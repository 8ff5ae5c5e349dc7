"""One benchmark workload in a fresh process; ``run.py`` starts it and reads its last stdout line.

    python3 bench/worker.py --workload NAME --config PATH --mode {setup,run,trace}
                            [--out DIR] [--spans PATH]

``setup`` stops after set-up; ``run`` also makes the timed call, records the
start of each of the workload's repeated calls for the filtered run time (see
``beats.py``), and checks its outputs; ``trace`` makes and checks the call with
every layer boundary wrapped by the tracer instead, and writes the spans to
``--spans``. fedsim must be importable (run.py puts the checkout's ``src`` on
``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import struct
import sys
import time
from typing import Callable


# The repeated call each workload's filtered run time is cut at (see beats.py):
# module, attribute, the kind of a call from its arguments, and beats per segment.
# Clients with as many training samples do the same work; client 0 is keyed
# apart so that the segment ending each round, which holds the server's
# work, is a kind of its own.
TRAINING_BEAT = (
    "fedsim.orchestrator",
    "local_train_round",
    lambda args: (len(args[0].dataset.train), args[0].client_id == 0),
    1,
)
# One central difference evaluates the loss twice.
GRAD_BEAT = ("fedsim.oracles", "objective", lambda args: (args[0].shape, args[2].num_blocks), 2)


def _training(fedsim, args) -> tuple[int, Callable, Callable, tuple]:
    """Set up a training workload; return its work count, timed call, output check and beat."""
    from checks import check_training_run, dir_digest
    from workloads import REFERENCE_IOU, read_ini_numbers

    cfg = fedsim.load_config(args.config)
    datasets = fedsim.generate_federation(cfg.federation)
    fedsim.build_model(
        cfg.model.feature_dim,
        cfg.model.bottleneck_dim,
        cfg.model.num_blocks,
        fedsim.RngStream(cfg.seed, fedsim.derive_stream_id("backbone")),
        fedsim.RngStream(cfg.seed, fedsim.derive_stream_id("adapter", "base")),
    )
    batches = sum(math.ceil(len(ds.train) / cfg.client.batch_size) for ds in datasets)

    def run():
        return fedsim.run_experiment(cfg, args.out)

    def check(_store) -> tuple[str, list[str], dict]:
        with open(args.config, encoding="utf-8") as fh:
            numbers = read_ini_numbers(fh.read())
        errors = check_training_run(args.out, numbers, REFERENCE_IOU[args.workload])
        return dir_digest(args.out), errors, {}

    return cfg.rounds * cfg.client.local_epochs * batches, run, check, TRAINING_BEAT


def _grad_oracle(fedsim, args) -> tuple[int, Callable, Callable, tuple]:
    """Set up the gradient-oracle workload; return its work count, timed call, output check and beat."""
    from fedsim import oracles

    from checks import check_grad_errors
    from workloads import GRAD_RECHECK_STEP, MAX_GRAD_REL_ERROR, grad_loss_evaluations

    with open(args.config, encoding="utf-8") as fh:
        spec = json.load(fh)
    fixtures = oracles.gradient_fixtures(spec["fixture_seed"])[: spec["num_fixtures"]]

    def run():
        return [oracles.gradient_rel_error(fx) for fx in fixtures]

    def check(errors) -> tuple[str, list[str], dict]:
        digest = hashlib.sha256(b"".join(struct.pack("<d", e) for e in errors)).hexdigest()
        rechecked = {
            i: oracles.gradient_rel_error(fx, h=GRAD_RECHECK_STEP)
            for i, (fx, err) in enumerate(zip(fixtures, errors))
            if not err < MAX_GRAD_REL_ERROR
        }
        failures = check_grad_errors(errors, rechecked, MAX_GRAD_REL_ERROR)
        return digest, failures, {"grad_rel_errors": errors, "grad_rechecked": rechecked}

    return grad_loss_evaluations(fixtures), run, check, GRAD_BEAT


def blas_threads() -> dict:
    """OpenBLAS's thread count as the environment and its defaults set it."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        raw = os.environ.get(var, "").strip()
        if raw.isdigit() and int(raw) > 0:
            return {"threads": int(raw), "source": var}
    return {"threads": len(os.sched_getaffinity(0)), "source": "default: usable cores"}


def machine_metadata() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import fedsim

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup = _grad_oracle if args.workload == "grad_oracle" else _training
    work, run, check, beat = setup(fedsim, args)
    record = {"mode": args.mode, "setup_done": time.monotonic(), "work": work}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    recorder = None
    if args.mode == "run":
        from beats import BeatRecorder, filtered_s

        module, attr, key, stride = beat
        recorder = BeatRecorder()
        recorder.install(module, attr, key)
    cpu0 = time.process_time()
    t0 = time.perf_counter_ns()
    result = run()
    t1 = time.perf_counter_ns()
    cpu_s = time.process_time() - cpu0
    record.update(
        wall_s=(t1 - t0) * 1e-9,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if recorder is not None:
        recorder.uninstall()
        record["run_s"] = filtered_s(recorder.starts, recorder.keys, t0, t1, stride)
        record["beats"] = len(recorder.starts)
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)

    digest, errors, details = check(result)
    record.update(digest=digest, errors=errors, **details)
    if args.mode == "run":
        record["machine"] = machine_metadata()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
