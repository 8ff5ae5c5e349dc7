"""Contention-filtered wall time: time a run in short, repeated segments and cost each at its fastest.

The host this benchmark runs on is shared. Its speed drops in bursts of a
fraction of a second, so one long wall-time reading mixes the program's cost
with how busy the neighbours were. The fastest of many short segments of
identical work barely moves with those bursts, so ``filtered_s`` builds the
run time from it.

A *beat* is one call of a function that the workload repeats many times with
the same cost, such as a loss evaluation or one client's local round. The
recorder wraps that function, from outside fedsim like the tracer does, and
stores the start time of each call and a *key* that names what kind of call it
was (the fixture shape, or the client). ``stride`` consecutive beats of one key
make a segment, which runs from the first of them to the start of the next
beat of any key (or the end of the run). A segment's *kind* is its key and the
key of the beat that ends it, so segments of one kind do the same work, and

    filtered_s = (wall time outside segments of frequent kinds)
               + sum over frequent kinds of (segments of that kind) * (fastest of them)

A kind is frequent when it has at least ``min_segments`` segments; the time of
any other kind counts as measured. With no beats, ``filtered_s`` is the wall
time itself.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Callable, Hashable

MIN_SEGMENTS = 64


class BeatRecorder:
    """Stores the start time and the key's index of every call of one wrapped function."""

    def __init__(self) -> None:
        self.starts = array("q")
        self.keys = array("l")
        self.key_index: dict[Hashable, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def install(self, module: str, attr: str, key: Callable[[tuple], Hashable]) -> None:
        """Wrap ``module.attr``; ``key(args)`` names the kind of each call.

        Only that module's binding is replaced: it is the one the workload's
        loop looks up on every call.
        """
        owner = importlib.import_module(module)
        fn = getattr(owner, attr)
        starts, keys, index, clock = self.starts, self.keys, self.key_index, time.perf_counter_ns

        @functools.wraps(fn)
        def beat(*args, **kwargs):
            keys.append(index.setdefault(key(args), len(index)))
            starts.append(clock())
            return fn(*args, **kwargs)

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, beat)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def segments(starts, keys, end_ns: int, stride: int) -> dict[tuple, list[int]]:
    """Per kind ``(key, key of the next beat or None)``, its segments' durations in ns."""
    positions: dict[Hashable, list[int]] = {}
    for i, key in enumerate(keys):
        positions.setdefault(key, []).append(i)
    out: dict[tuple, list[int]] = {}
    for key, pos in positions.items():
        for m in range(len(pos) // stride):
            first, last = pos[m * stride], pos[m * stride + stride - 1]
            if last + 1 < len(starts):
                kind, stop = (key, keys[last + 1]), starts[last + 1]
            else:
                kind, stop = (key, None), end_ns
            out.setdefault(kind, []).append(stop - starts[first])
    return out


def filtered_s(
    starts, keys, start_ns: int, end_ns: int, stride: int = 1, min_segments: int = MIN_SEGMENTS
) -> float:
    """The run's wall time with each frequent kind of segment costed at its fastest."""
    total = end_ns - start_ns
    for durations in segments(starts, keys, end_ns, stride).values():
        if len(durations) >= min_segments:
            total += len(durations) * min(durations) - sum(durations)
    return total * 1e-9
