"""Flat parameter vectors, seeded RNG streams, and core numeric routines.

Everything here is float64. The simplex projection is the exact
sort-then-threshold algorithm, so the per-row aggregation QP downstream
needs no external solver.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True, eq=False)
class FlatParams:
    """A flat float64 vector with a (layer_index, length) manifest: a checkpoint's parameter set.

    The manifest records which adapter layer each contiguous slice belongs
    to; layer indices are 1-based and strictly increasing. Values are kept
    read-only so a FlatParams can be shared safely. The round itself moves
    plain vectors laid out by a manifest, not FlatParams.
    """

    values: np.ndarray
    manifest: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise InvalidArgumentError("FlatParams values must be a 1-D vector")
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("FlatParams values must be finite")
        manifest = tuple((int(i), int(n)) for i, n in self.manifest)
        if any(n < 0 for _, n in manifest):
            raise InvalidArgumentError("manifest lengths must be non-negative")
        if sum(n for _, n in manifest) != values.size:
            raise InvalidArgumentError(
                f"manifest lengths sum to {sum(n for _, n in manifest)}, "
                f"but values has {values.size} entries"
            )
        indices = [i for i, _ in manifest]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise InvalidArgumentError("manifest layer indices must be strictly increasing")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "manifest", manifest)

    def split(self) -> list[tuple[int, np.ndarray]]:
        """Per-layer (index, slice) pairs, in manifest order."""
        out = []
        offset = 0
        for idx, length in self.manifest:
            out.append((idx, self.values[offset : offset + length]))
            offset += length
        return out


@dataclass
class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Identical keys replay identical draw sequences; distinct stream ids give
    statistically independent sequences. A stream is owned by one execution
    context at a time (draws advance internal state).
    """

    seed: int
    stream_id: int
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not 0 <= int(value) < 2**64:
                raise InvalidArgumentError(f"{name} must fit in an unsigned 64-bit integer")
        seq = np.random.SeedSequence([int(self.seed), int(self.stream_id)])
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def draw_gaussian(self, count: int) -> np.ndarray:
        if count < 0:
            raise InvalidArgumentError("count must be >= 0")
        return self._gen.standard_normal(count)

    def draw_uniform(self, count: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        if count < 0:
            raise InvalidArgumentError("count must be >= 0")
        return self._gen.uniform(low, high, count)

    def draw_integer(self, low: int, high: int) -> int:
        """One integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def derive_stream_id(*parts: object) -> int:
    """Stable 64-bit stream id from a tuple of labels (strings/ints)."""
    text = "/".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def simplex_project(c: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection of c onto {w : w >= 0, sum(w) = 1}.

    Sort-then-threshold: find the support size rho and threshold tau such
    that w_j = max(c_j - tau, 0). Ties in the descending sort are broken by
    original index (stable sort) for cross-platform determinism.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise InvalidArgumentError("input must be a non-empty 1-D vector")
    if not np.all(np.isfinite(c)):
        raise InvalidArgumentError("input must be finite")
    order = np.argsort(-c, kind="stable")
    u = c[order]
    excess = np.cumsum(u) - 1.0
    counts = np.arange(1, c.size + 1)
    support = np.nonzero(u * counts > excess)[0]
    if support.size == 0:
        # u_1 > u_1 - 1 holds in exact arithmetic; in float64 it can fail once
        # |u_1| reaches 2**53, where subtracting 1 may be lost to rounding.
        raise InvalidArgumentError("input entries are too large to project in float64")
    rho = support[-1]
    tau = excess[rho] / (rho + 1.0)
    return np.maximum(c - tau, 0.0)


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient oracle: (f(x + h e_j) - f(x - h e_j)) / 2h.

    Non-finite f evaluations propagate into the returned vector.
    """
    if h <= 0:
        raise InvalidArgumentError("step size h must be > 0")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        grad[j] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad
