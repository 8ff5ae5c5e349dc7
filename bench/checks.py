"""Per-run correctness checks. Each returns a list of failure messages, empty when the run is correct.

The training checks read the results directory as a user would (plain JSON
files), not through fedsim's own loader.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import expected_comm_total

ROW_SUM_TOL = 1e-9


def dir_digest(root: str | Path) -> str:
    """SHA-256 over every file under ``root``: relative path, then contents, in sorted order."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def read_results(out_dir: str | Path) -> tuple[dict, list[dict]]:
    """The run's summary and its per-round records."""
    out = Path(out_dir)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    rounds = [
        json.loads(line)
        for line in (out / "rounds.jsonl").read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    return summary, rounds


def check_comm_total(summary: dict, rounds: list[dict], expected: int) -> list[str]:
    """The ledger total equals 2*R*N*L*2*d*b exactly, in the summary and the last round."""
    errors = []
    if summary.get("comm_total") != expected:
        errors.append(f"summary comm_total {summary.get('comm_total')} != expected {expected}")
    if not rounds or rounds[-1].get("comm_total") != expected:
        last = rounds[-1].get("comm_total") if rounds else None
        errors.append(f"last round comm_total {last} != expected {expected}")
    return errors


def check_w_rows(rounds: list[dict], n: int) -> list[str]:
    """Every round's collaboration matrix is N x N, non-negative, and row-stochastic."""
    errors = []
    for rec in rounds:
        w = rec.get("w")
        if w is None or len(w) != n or any(len(row) != n for row in w):
            errors.append(f"round {rec.get('round')}: W is missing or not {n}x{n}")
            continue
        for i, row in enumerate(w):
            if not all(math.isfinite(v) and v >= 0.0 for v in row):
                errors.append(f"round {rec.get('round')}: W row {i} has a negative or non-finite entry")
            elif abs(math.fsum(row) - 1.0) > ROW_SUM_TOL:
                errors.append(f"round {rec.get('round')}: W row {i} sums to {math.fsum(row)!r}")
    return errors


def check_rounds(rounds: list[dict], expected_rounds: int) -> list[str]:
    got = [rec.get("round") for rec in rounds]
    if got != list(range(1, expected_rounds + 1)):
        return [f"rounds.jsonl holds rounds {got[:3]}..., expected 1..{expected_rounds}"]
    return []


def check_iou(value, reference: float, tolerance: float) -> list[str]:
    """Final mean IoU is finite and within ``tolerance`` of ``reference``."""
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return [f"final mean IoU {value!r} is not a finite number"]
    if abs(value - reference) > tolerance:
        return [f"final mean IoU {value:.4f} is not within {tolerance} of {reference}"]
    return []


def check_training_run(out_dir: str | Path, numbers: dict, reference: tuple[float, float]) -> list[str]:
    """All training checks on one results directory."""
    try:
        summary, rounds = read_results(out_dir)
    except (OSError, ValueError) as exc:
        return [f"results directory unreadable: {exc}"]
    return (
        check_rounds(rounds, numbers["rounds"])
        + check_comm_total(summary, rounds, expected_comm_total(numbers))
        + check_w_rows(rounds, numbers["num_clients"])
        + check_iou(summary.get("final_mean_iou"), *reference)
    )


def check_grad_errors(errors: list[float], rechecked: dict[int, float], bound: float) -> list[str]:
    """Every fixture's max relative gradient error is finite and below ``bound``.

    ``rechecked`` maps a fixture that missed the bound to its error at a
    smaller difference step. Central differences that straddle a ReLU kink
    miss at one step and agree at a smaller one, while a wrong analytic
    gradient misses at every step, so such a fixture passes on its recheck.
    """
    if not errors:
        return ["no gradient fixtures were checked"]
    failures = []
    for i, err in enumerate(errors):
        if math.isfinite(err) and err < bound:
            continue
        fine = rechecked.get(i, math.nan)
        if not (math.isfinite(fine) and fine < bound):
            failures.append(f"fixture {i}: max relative gradient error {err!r}, rechecked {fine!r}, bound {bound}")
    return failures


def check_digests(digests: list[str | None]) -> list[int]:
    """Indices of runs whose digest differs from the first present one (a missing digest differs)."""
    ref = next((d for d in digests if d is not None), None)
    return [i for i, d in enumerate(digests) if d is None or d != ref]
