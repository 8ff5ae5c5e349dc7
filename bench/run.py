"""fedsim benchmark: run one workload in fresh processes and print every metric by name with its unit.

    python3 bench/run.py --workload {train_default,many_clients,grad_oracle}
                         --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout of the repository; it imports fedsim
from the checkout's ``src``. With ``--trace 0`` it reports the end-to-end
metrics listed in ``BENCHMARK.json``; with ``--trace 1`` it alternates
untraced and traced runs and reports the per-layer metrics. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. A fuller record, with machine metadata and every run's raw
values, goes to ``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from checks import check_digests  # noqa: E402
from tracer import TARGETS  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

OUT_DIR = BENCH_DIR / "out"
WORKER = BENCH_DIR / "worker.py"
# The whole invocation must finish within 180 s, children included.
HARD_LIMIT_S = 165.0
SETUPS_PER_RUN = 3
LAYER_KINDS = ("self_s", "calls", "bytes")
TRACED_NAMES = frozenset(t.name for t in TARGETS)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


@dataclass
class Child:
    """Outcome of one worker process."""

    mode: str
    record: dict | None
    wall_s: float
    error: str | None

    @property
    def ok(self) -> bool:
        return self.error is None


def spawn(workload: str, config: Path, mode: str, index: int, timeout: float) -> Child:
    """Start a fresh worker, wait for it, and time its set-up from before the interpreter starts."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    run_dir = OUT_DIR / "runs" / f"{mode}-{index}"
    spans = OUT_DIR / f"spans_{workload}.csv"
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--config", str(config)]
    cmd += ["--mode", mode, "--out", str(run_dir), "--spans", str(spans)]
    shutil.rmtree(run_dir, ignore_errors=True)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        return Child(mode, None, time.monotonic() - start, f"timed out after {timeout:.0f} s")
    finally:
        wall = time.monotonic() - start
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return Child(mode, None, wall, f"exit {proc.returncode}: {' | '.join(tail)}")
    try:
        record = json.loads(lines[-1])
    except ValueError:
        return Child(mode, None, wall, f"unparsable output line {lines[-1][:200]!r}")
    record["setup_s"] = record["setup_done"] - start
    errors = record.get("errors", [])
    return Child(mode, record, wall, "; ".join(errors) if errors else None)


def measure(workload: str, config: Path, seconds: float, trace: bool) -> list[Child]:
    """Full runs until ``seconds`` have passed; untraced, each follows a few set-up-only runs.

    Spreading the set-up-only runs over the invocation keeps a slow phase of
    the host from landing on all of them.
    """
    t0 = time.monotonic()

    def remaining() -> float:
        return HARD_LIMIT_S - (time.monotonic() - t0)

    spawn(workload, config, "setup", -1, remaining())  # fills bytecode caches; not counted
    children: list[Child] = []
    modes = ("run", "trace") if trace else ("run",)
    loop_start = time.monotonic()
    index = 0
    while True:
        mode = modes[index % len(modes)]
        if not trace:
            for _ in range(SETUPS_PER_RUN):
                children.append(spawn(workload, config, "setup", len(children), remaining()))
        children.append(spawn(workload, config, mode, len(children), remaining()))
        index += 1
        elapsed = time.monotonic() - loop_start
        longest = max(c.wall_s for c in children if c.mode != "setup")
        if index >= len(modes) and elapsed + longest / 2 >= seconds:
            break
        if remaining() < 1.2 * longest:
            break
    return children


def layer_value(name: str, traced: list[dict], untraced: list[dict], work: int) -> float:
    """One per-layer metric from the traced and untraced runs' records."""

    def summed(rec: dict, prefix: str, kind: str) -> float:
        return sum(v.get(kind, 0) for k, v in rec["layers"].items() if k.startswith(prefix))

    if name == "work.units":
        return work
    if name == "trace.run_s":
        return median([r["wall_s"] for r in traced])
    if name == "trace.untraced_run_s":
        return median([r["wall_s"] for r in untraced])
    if name == "trace.overhead_s":
        return median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in untraced])
    if name == "trace.filtered_run_s":
        return median([r["run_s"] for r in untraced])
    if name == "process.cpu_s":
        return median([r["cpu_s"] for r in untraced])
    if name == "process.cpu_per_wall":
        return median([r["cpu_s"] / r["wall_s"] for r in untraced])
    if name == "numerics.FlatParams.per_unit":
        return median([summed(r, "numerics.FlatParams.construct", "calls") / work for r in traced])
    layer, _, kind = name.rpartition(".")
    if kind not in LAYER_KINDS:
        raise KeyError(name)
    if layer.endswith(".all"):
        prefix = layer[: -len("all")]
        return median([summed(r, prefix, kind) for r in traced])
    if layer not in TRACED_NAMES:
        raise KeyError(name)
    return median([r["layers"].get(layer, {}).get(kind, 0) for r in traced])


def end_to_end_value(name: str, runs: list[dict], setups: list[float]) -> float:
    if name == "setup_s":
        return median(setups)
    if name == "run_s":
        return median([r["run_s"] for r in runs])
    if name == "work_per_s":
        return median([r["work"] / r["run_s"] for r in runs])
    if name == "peak_rss_mb":
        return median([r["peak_rss_mb"] for r in runs])
    raise KeyError(name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    needed = [spec_path, ROOT / "src" / "fedsim" / "__init__.py", ROOT / "configs"]
    missing = [str(p) for p in needed if not p.exists()]
    if missing:
        print(f"bench: not inside a fedsim checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT_DIR.mkdir(exist_ok=True)
    generated = generate(args.workload, args.seed, ROOT / "configs")
    config = OUT_DIR / generated.filename
    config.write_text(generated.text, encoding="utf-8")

    children = measure(args.workload, config, args.seconds, bool(args.trace))
    shutil.rmtree(OUT_DIR / "runs", ignore_errors=True)

    full = [c for c in children if c.mode != "setup"]
    digests = [c.record.get("digest") if c.record else None for c in full]
    for i in check_digests(digests):
        if full[i].ok:
            full[i].error = "output digest differs from the other runs of this invocation"
    failures = [f"{c.mode}: {c.error}" for c in children if not c.ok]
    ok = [c.record for c in children if c.ok]
    runs = [r for r in ok if r["mode"] == "run"]
    traced = [r for r in ok if r["mode"] == "trace"]
    if not runs or (args.trace and not traced):
        for line in failures:
            print(f"bench: {line}", file=sys.stderr)
        print("bench: no run succeeded; no metrics to report", file=sys.stderr)
        return 1

    work = runs[0]["work"]
    metrics = {}
    for m in wanted:
        if args.trace:
            value = layer_value(m["name"], traced, runs, work)
        else:
            value = end_to_end_value(m["name"], runs, [r["setup_s"] for r in ok if r["mode"] != "trace"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    result = {
        "correct": not failures,
        "attempted": len(children),
        "failed": len(failures),
        "metrics": metrics,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": generated.filename,
        "config_sha256": hashlib.sha256(generated.text.encode("utf-8")).hexdigest(),
        "machine": runs[0].get("machine"),
        "work_units": work,
        "failures": failures,
        "runs": [dict(c.record or {}, mode=c.mode, wall_s=c.wall_s, error=c.error) for c in children],
        **result,
    }
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for line in failures:
        print(f"FAILED {line}")
    for key, m in metrics.items():
        print(f"{key:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
