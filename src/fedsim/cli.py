"""Command-line interface: run, sweep, oracle-check, export.

Exit codes: 0 success, 2 validation error, 3 numeric/oracle failure,
4 I/O error, 1 anything unexpected. A sweep whose every run failed exits
as `run` would on the first failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import SWEEP_AXES, load_config
from .errors import FedsimError, NumericError
from .oracles import NUM_GRADIENT_FIXTURES, check_gradients, check_projection, check_row_solver
from .orchestrator import ResultsStore, export_store, run_experiment, run_sweep

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Deterministic simulator of federated adapter tuning with "
        "similarity-guided collaborative aggregation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("--config", required=True, help="path to the INI-style config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="directory for the results store")

    sweep_p = sub.add_parser("sweep", help="run one experiment per axis value")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep_p.add_argument("--values", required=True, help="comma-separated axis values")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--out", default=None, help="root directory for per-value runs")

    oracle_p = sub.add_parser(
        "oracle-check", help="run the projection/QP/gradient oracle suites"
    )
    oracle_p.add_argument(
        "--instances", type=int, default=1000, help="random instances per QP suite (>= 1)"
    )
    oracle_p.add_argument(
        "--gradient-fixtures",
        type=int,
        default=NUM_GRADIENT_FIXTURES,
        help=f"model fixtures for the gradient suite (1..{NUM_GRADIENT_FIXTURES})",
    )

    export_p = sub.add_parser("export", help="export a stored run as flat tables")
    export_p.add_argument("--run", required=True, help="results directory of a finished run")
    export_p.add_argument("--format", required=True, choices=("csv", "jsonl"))
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    store = run_experiment(cfg, args.out)
    print(
        f"run complete: rounds={cfg.rounds} aggregator={cfg.aggregator} "
        f"mean_iou={store.summary['final_mean_iou']:.4f} "
        f"mean_dice={store.summary['final_mean_dice']:.4f} "
        f"comm_total={store.summary['comm_total']}"
    )
    if args.out:
        print(f"results written to {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    items = run_sweep(cfg, args.axis, values, args.out)
    failures = 0
    for item in items:
        if item.error is None:
            print(
                f"{args.axis}={item.value}: mean_iou={item.store.summary['final_mean_iou']:.4f} "
                f"comm_total={item.store.summary['comm_total']}"
            )
        else:
            failures += 1
            print(f"{args.axis}={item.value}: FAILED ({type(item.error).__name__}: {item.error})")
    if failures:
        print(f"{failures}/{len(items)} sweep runs failed")
    if failures == len(items):
        # Nothing succeeded: exit as `fedsim run` would on the first failure.
        raise items[0].error
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    results = [
        check_projection(num_instances=args.instances),
        check_row_solver(num_instances=args.instances),
        check_gradients(num_fixtures=args.gradient_fixtures),
    ]
    all_passed = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
        all_passed &= result.passed
    return EXIT_OK if all_passed else EXIT_NUMERIC


def _cmd_export(args) -> int:
    store = ResultsStore.load(args.run)
    written = export_store(store, args.run, args.format)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "oracle-check": _cmd_oracle_check,
        "export": _cmd_export,
    }
    try:
        return handlers[args.command](args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FedsimError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
