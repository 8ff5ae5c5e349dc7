"""In-memory span tracer that wraps fedsim's public functions from outside the package.

Each wrapped call records one span: name, start, end and the span that was
open when it started (its parent). Spans stay in memory until the run ends.
A layer's self time is its span's duration minus the part of that interval
its child spans cover.

fedsim imports functions by name (``from .adapter_net import
objective_and_grad`` in ``fed_client`` and ``oracles``, for example), so a
wrapped module-level function is rebound in every loaded ``fedsim`` module
that holds it, not only in the module that defines it. Methods are patched on
their class, which every caller looks up at call time.

The tracer assumes one thread: all of fedsim's benchmark workloads run their
clients one after another.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _serialized_bytes(args, kwargs, result) -> int:
    return len(result)


def _payload_bytes(args, kwargs, result) -> int:
    return len(args[0] if args else kwargs["data"])


def _written_file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _store_bytes(args, kwargs, result) -> int:
    out = args[1] if len(args) > 1 else kwargs["out_dir"]
    return sum(entry.stat().st_size for entry in os.scandir(out) if entry.is_file())


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:qualname``, reported as ``name``."""

    module: str
    qualname: str
    name: str
    nbytes: Callable | None = None


def _t(module: str, qualname: str, label: str | None = None, nbytes=None) -> Target:
    short = module.rsplit(".", 1)[-1]
    return Target(module, qualname, f"{short}.{label or qualname}", nbytes)


# The layer boundaries: one entry per wrapped public function or method.
TARGETS: tuple[Target, ...] = (
    _t("fedsim.config", "load_config"),
    _t("fedsim.datagen", "generate_federation"),
    _t("fedsim.adapter_net", "build_model"),
    _t("fedsim.adapter_net", "objective_and_grad"),
    _t("fedsim.adapter_net", "objective"),
    _t("fedsim.adapter_net", "model_forward"),
    _t("fedsim.adapter_net", "adam_step"),
    _t("fedsim.adapter_net", "ToyFM.adapter_params"),
    _t("fedsim.adapter_net", "ToyFM.install_adapter_params"),
    _t("fedsim.adapter_net", "ToyFM.clone"),
    _t("fedsim.numerics", "FlatParams.__post_init__", "FlatParams.construct"),
    _t("fedsim.numerics", "simplex_project"),
    _t("fedsim.numerics", "finite_diff_grad"),
    _t("fedsim.server", "pairwise_similarity"),
    _t("fedsim.server", "update_matrix"),
    _t("fedsim.server", "solve_row"),
    _t("fedsim.server", "aggregate"),
    _t("fedsim.server", "fedavg_aggregate"),
    _t("fedsim.transport", "serialize_params", nbytes=_serialized_bytes),
    _t("fedsim.transport", "deserialize_params", nbytes=_payload_bytes),
    _t("fedsim.transport", "payload_scalar_count"),
    _t("fedsim.transport", "CommLedger.record"),
    _t("fedsim.transport", "write_params_file", nbytes=_written_file_bytes),
    _t("fedsim.fed_client", "install_low_adapters"),
    _t("fedsim.fed_client", "local_train_round"),
    _t("fedsim.fed_client", "evaluate"),
    _t("fedsim.fed_client", "measure_param_shift"),
    _t("fedsim.orchestrator", "run_experiment"),
    _t("fedsim.orchestrator", "ResultsStore.save", nbytes=_store_bytes),
    _t("fedsim.oracles", "gradient_fixtures"),
    _t("fedsim.oracles", "gradient_rel_error"),
)


class Tracer:
    """Records spans of wrapped calls in parallel lists indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start_ns: list[int] = []
        self.end_ns: list[int] = []
        self.bytes: dict[int, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable, nbytes: Callable | None = None) -> Callable:
        """``fn`` with a span recorded around every call."""
        nid = self.name_id(name)
        span_name, parent, start_ns, end_ns = self.span_name, self.parent, self.start_ns, self.end_ns
        stack, byte_counts, clock = self._stack, self.bytes, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start_ns)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end_ns.append(0)
            stack.append(span)
            start_ns.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_ns[span] = clock()
                stack.pop()
            if nbytes is not None:
                byte_counts[nid] = byte_counts.get(nid, 0) + nbytes(args, kwargs, result)
            return result

        return traced

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        """Wrap every target, rebinding module-level functions wherever fedsim imported them."""
        for target in targets:
            module = importlib.import_module(target.module)
            *owner_path, attr = target.qualname.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(target.name, raw.__func__, target.nbytes))
            else:
                wrapped = self.wrap(target.name, raw, target.nbytes)
            self._patch(owner, attr, raw, wrapped)
            if owner is module:
                for other in list(sys.modules.values()):
                    mod_name = getattr(other, "__name__", "")
                    if other is module or not (mod_name == "fedsim" or mod_name.startswith("fedsim.")):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is raw:
                            self._patch(other, key, raw, wrapped)

    def _patch(self, owner: object, attr: str, original: object, wrapped: object) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict]:
        """Per name: calls, total and self seconds, and bytes where counted."""
        self_ns = self_times(self.parent, self.start_ns, self.end_ns)
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for span, nid in enumerate(self.span_name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_s"] += (self.end_ns[span] - self.start_ns[span]) * 1e-9
            row["self_s"] += self_ns[span] * 1e-9
        for nid, count in self.bytes.items():
            out[self.names[nid]]["bytes"] = count
        return out

    def write_spans(self, path: str) -> None:
        """One CSV line per span: id, parent id (-1 for a root), name, start and end in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_ns,end_ns\n")
            for span, nid in enumerate(self.span_name):
                fh.write(
                    f"{span},{self.parent[span]},{self.names[nid]},"
                    f"{self.start_ns[span]},{self.end_ns[span]}\n"
                )


def self_times(parent: list[int], start: list[int], end: list[int]) -> list[int]:
    """Each span's duration minus the union of its direct children's intervals within it."""
    children: dict[int, list[int]] = {}
    for span, up in enumerate(parent):
        if up >= 0:
            children.setdefault(up, []).append(span)
    own = [e - s for s, e in zip(start, end)]
    for up, kids in children.items():
        lo, hi = start[up], end[up]
        covered = 0
        cur_start = cur_end = None
        for kid in sorted(kids, key=start.__getitem__):
            s, e = max(start[kid], lo), min(end[kid], hi)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        own[up] -= covered
    return own
