"""The round loop, results store, export, and ablation sweeps.

One experiment: generate the federation, build per-client models on a
shared frozen backbone, then for each round broadcast the mixed low-level
adapters, train every client locally, collect uploads, and refresh the
collaboration matrix. All randomness flows through named RNG streams, so a
run is a pure function of its config and seed.
"""

from __future__ import annotations

import csv
import io
import json
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .adapter_net import AdamState, ToyFM, draw_adapters, frozen_backbone
from .config import SWEEP_AXES, ExperimentConfig, apply_sweep_value
from .datagen import generate_federation
from .errors import ConfigError, DecodeError, FedsimError, NumericError
from .fed_client import ClientState, evaluate, install_low_adapters, local_train_round
from .fed_client import step_workspace
from .numerics import RngStream, derive_stream_id
from .server import CollaborationMatrix, aggregate, fedavg_aggregate, update_matrix
from .transport import CommLedger, LedgerEntry, serialize_params, write_params_file


@dataclass
class RoundRecord:
    round: int
    train_loss: list[float]
    test_iou: list[float]
    test_dice: list[float]
    mean_iou: float
    mean_dice: float
    w: list[list[float]] | None
    layer_shift: list[float]
    comm_total: int


@dataclass
class RunSummary:
    """summary.json: the run's size and its final metrics."""

    rounds: int
    num_clients: int
    aggregator: str
    final_mean_iou: float
    final_mean_dice: float
    final_test_iou: list[float]
    final_test_dice: list[float]
    comm_total: int


@dataclass
class ResultsStore:
    manifest: dict
    records: list[RoundRecord]
    summary: dict
    ledger: CommLedger = field(default_factory=CommLedger)

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_text(out / "manifest.json", _json_pretty(self.manifest))
        _write_text(out / "rounds.jsonl", "".join(_json_line(vars(r)) for r in self.records))
        _write_text(out / "summary.json", _json_pretty(self.summary))
        _write_text(out / "ledger.csv", _csv_text(self.ledger.to_rows()))

    @classmethod
    def load(cls, run_dir: str | Path) -> "ResultsStore":
        """Read a saved store; raises DecodeError naming the file, and the line, that is wrong.

        Each field needs its declared type, each per-client list num_clients entries. Line i
        of rounds.jsonl is round i, for i in 1..rounds; a ledger row names one and a client.
        """
        run = Path(run_dir)
        manifest = _read_json(run / "manifest.json")
        path = run / "summary.json"
        summary = _read_json(path)
        run_summary = _decode(path, None, lambda: _run_summary(summary))
        path = run / "rounds.jsonl"
        records = [
            _decode(path, i, lambda: _round_record(json.loads(line), run_summary, i))
            for i, line in enumerate(_read_text(path).splitlines(), 1)
        ]
        if not records:
            raise DecodeError(f"{path}: no round records")
        if len(records) != run_summary.rounds:
            raise DecodeError(f"{path}: {len(records)} round records, not {run_summary.rounds}")
        path = run / "ledger.csv"
        rows = csv.DictReader(io.StringIO(_read_text(path)))
        entries = [
            _decode(path, rows.line_num, lambda: _ledger_entry(row, run_summary)) for row in rows
        ]
        total = sum(e.scalar_count for e in entries)
        if total != run_summary.comm_total:
            want = run_summary.comm_total
            raise DecodeError(f"{path}: scalar counts sum to {total}, not comm_total {want}")
        return cls(manifest, records, summary, CommLedger(entries, total))


def _conforms(value, tp) -> bool:
    """Whether a JSON value has type tp: int, float (an int too), str, None, list[X] or a union."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is list:
        return isinstance(value, list) and all(_conforms(v, args[0]) for v in value)
    if args:
        return any(_conforms(value, arg) for arg in args)
    return not isinstance(value, bool) and isinstance(value, (int, float) if tp is float else tp)


def _typed(cls, data: dict):
    """cls from a stored dict: KeyError if a field is missing, TypeError if one is mistyped."""
    record = cls(**{f.name: data[f.name] for f in fields(cls)})
    for name, tp in typing.get_type_hints(cls).items():
        value = getattr(record, name)
        if not _conforms(value, tp):
            kind = tp.__name__ if tp in (int, float, str) else tp
            raise TypeError(f"{name}: expected {kind}, got {value!r:.40}")
    return record


def _check_clients(n: int, *lists: list) -> None:
    if any(len(values) != n for values in lists):
        raise ValueError(f"per-client values must have num_clients = {n} entries")


def _run_summary(data: dict) -> RunSummary:
    summary = _typed(RunSummary, data)
    _check_clients(summary.num_clients, summary.final_test_iou, summary.final_test_dice)
    return summary


def _round_record(data: dict, summary: RunSummary, line: int) -> RoundRecord:
    """Line `line` of rounds.jsonl: round `line`, its metrics num_clients long, W n by n or null."""
    record = _typed(RoundRecord, data)
    if record.round != line:
        raise ValueError(f"round {record.round} where round {line} belongs")
    w = [] if record.w is None else [record.w, *record.w]
    _check_clients(summary.num_clients, record.train_loss, record.test_iou, record.test_dice, *w)
    return record


def _ledger_entry(row: dict[str, str], summary: RunSummary) -> LedgerEntry:
    entry = LedgerEntry.from_row(row)
    if not 1 <= entry.round <= summary.rounds:
        raise ValueError(f"round {entry.round} is not in 1..{summary.rounds}")
    if not 0 <= entry.client_id < summary.num_clients:
        raise ValueError(f"client_id {entry.client_id} is not in 0..{summary.num_clients - 1}")
    return entry


def _decode(path: Path, line: int | None, parse):
    """parse(); a malformed value is a DecodeError naming path and line (None: the whole file)."""
    where = f"{path}: line {line}" if line else str(path)
    try:
        return parse()
    except json.JSONDecodeError as exc:
        raise DecodeError(f"{path}: line {line + exc.lineno - 1}: {exc.msg}") from exc
    except KeyError as exc:
        raise DecodeError(f"{where}: missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise DecodeError(f"{where}: {exc}") from exc


def _read_text(path: Path) -> str:
    return _decode(path, None, lambda: path.read_text(encoding="utf-8"))


def _read_json(path: Path):
    text = _read_text(path)
    return _decode(path, 1, lambda: json.loads(text))


def _json_pretty(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _init_states(cfg: ExperimentConfig, datasets) -> tuple[np.ndarray, list[ClientState]]:
    d, r, k = cfg.model.feature_dim, cfg.model.bottleneck_dim, cfg.model.num_blocks
    n, size = cfg.federation.num_clients, k * 2 * d * r
    # The run's state, allocated once before any model: client i's model.flat is
    # row i of `params`, and its Adam moments are rows i of moments[0] and moments[1].
    params, moments = np.zeros((n, size)), np.zeros((2, n, size))
    # One frozen backbone shared by every client; adapters are per-client draws.
    blocks, head = frozen_backbone(d, k, RngStream(cfg.seed, derive_stream_id("backbone")))
    # Clients train one after another, so they share one step workspace.
    workspace = step_workspace(size)
    states = []
    for i in range(n):
        model = ToyFM(blocks, head, d, r, params[i])
        draw_adapters(model, RngStream(cfg.seed, derive_stream_id("adapter", i)))
        adam = AdamState(moments[0, i], moments[1, i])
        states.append(ClientState(i, model, datasets[i], cfg.client, cfg.seed, adam, workspace))
    return params, states


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> ResultsStore:
    """Execute the full round loop and return (and optionally save) the results.

    The uploads x are the first L layers of _init_states' (N, P) parameter
    matrix, whose row i is client i's model.flat: client i's upload is in
    x[i] as it finishes training, so only the ledger counts it. The server
    reads x, as its (N, L, layer_size) view, only where every row holds that
    client's trained layers: the mixing, before any client of the round
    trains, and the similarity, after the round's evaluate. Either
    aggregator mixes in place, so x[i] holds client i's broadcast from the
    mix until client i trains; each broadcast is serialized from x[i] just
    before its install, which writes the same bits back, so at most one
    payload is alive at a time. Clients train one after another, in id order.
    """
    cfg.validate()
    datasets = generate_federation(cfg.federation)
    params, states = _init_states(cfg, datasets)
    n = cfg.federation.num_clients
    sizes = list(cfg.federation.client_sizes)
    layers = cfg.client.low_layers
    manifest = states[0].model.manifest(layers)
    ledger = CommLedger()

    x = params[:, : layers * states[0].model.layer_size]
    uploads = x.reshape(n, layers, -1)
    # Initial mixing weights are size-proportional, so round 1 matches FedAvg.
    m_row = np.array(sizes, dtype=np.float64) / float(sum(sizes))
    matrix = CollaborationMatrix(np.tile(m_row, (n, 1)))

    records: list[RoundRecord] = []
    for round_index in range(1, cfg.rounds + 1):
        if cfg.aggregator == "sgca":
            aggregate(matrix, uploads)
        else:
            fedavg_aggregate(uploads, sizes)
        # ledger.csv lists a round's broadcasts first; every payload carries the
        # manifest's x.shape[1] values, so each is counted before it is serialized.
        for i in range(n):
            ledger.record("broadcast", i, round_index, x.shape[1])

        updates = []
        for i, state in enumerate(states):
            install_low_adapters(state, serialize_params(x[i], manifest))
            try:
                update = local_train_round(state, round_index)
            except NumericError as exc:
                raise NumericError(f"round {round_index}: {exc}") from exc
            ledger.record("upload", i, round_index, x.shape[1])
            updates.append(update)

        metrics = np.array([[u.train_loss for u in updates], *evaluate(states)])
        if not np.all(np.isfinite(metrics)):
            raise NumericError(f"non-finite client metrics at round {round_index}")

        w_snapshot = None
        if cfg.aggregator == "sgca":
            matrix = update_matrix(uploads, cfg.sgca)
            w_snapshot = [[float(v) for v in row] for row in matrix.w]

        records.append(
            RoundRecord(
                round=round_index,
                train_loss=metrics[0].tolist(),
                test_iou=metrics[1].tolist(),
                test_dice=metrics[2].tolist(),
                mean_iou=float(metrics[1].mean()),
                mean_dice=float(metrics[2].mean()),
                w=w_snapshot,
                layer_shift=np.mean([u.layer_shift for u in updates], axis=0).tolist(),
                comm_total=ledger.total,
            )
        )

    final = records[-1]
    summary = RunSummary(
        rounds=cfg.rounds,
        num_clients=n,
        aggregator=cfg.aggregator,
        final_mean_iou=final.mean_iou,
        final_mean_dice=final.mean_dice,
        final_test_iou=final.test_iou,
        final_test_dice=final.test_dice,
        comm_total=ledger.total,
    )
    manifest = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "code_version": __version__,
        "config": cfg.to_dict(),
    }
    store = ResultsStore(manifest, records, asdict(summary), ledger)
    if out_dir is not None:
        store.save(out_dir)
        ckpt_dir = Path(out_dir) / "checkpoints"
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        for state in states:
            path = str(ckpt_dir / f"client_{state.client_id}.fsca")
            write_params_file(state.model.flat, path, state.model.manifest())
    return store


@dataclass
class SweepItem:
    value: str
    store: ResultsStore | None
    error: FedsimError | OSError | None  # what stopped the run
    run_dir: str | None


def run_sweep(
    base: ExperimentConfig,
    axis: str,
    values: list[str],
    out_root: str | Path | None = None,
) -> list[SweepItem]:
    """One full run per axis value, shared seed; failures are isolated per run."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    items: list[SweepItem] = []
    for value in values:
        run_dir = None
        if out_root is not None:
            run_dir = str(Path(out_root) / f"{axis}_{value}")
        try:
            cfg = apply_sweep_value(base, axis, str(value))
            store = run_experiment(cfg, run_dir)
            items.append(SweepItem(str(value), store, None, run_dir))
        except (FedsimError, OSError) as exc:
            items.append(SweepItem(str(value), None, exc, run_dir))
    if out_root is not None:
        summary = {
            "axis": axis,
            "items": [
                {
                    "value": item.value,
                    "ok": item.error is None,
                    "error": item.error and f"{type(item.error).__name__}: {item.error}",
                    "final_mean_iou": item.store.summary["final_mean_iou"] if item.store else None,
                    "final_mean_dice": item.store.summary["final_mean_dice"] if item.store else None,
                    "comm_total": item.store.summary["comm_total"] if item.store else None,
                }
                for item in items
            ],
        }
        _write_text(Path(out_root) / "sweep_summary.json", _json_pretty(summary))
    return items


def export_store(store: ResultsStore, run_dir: str | Path, fmt: str) -> list[Path]:
    """Flat per-round tables (metrics, W, shifts, ledger) as CSV or JSONL."""
    if fmt not in ("csv", "jsonl"):
        raise ConfigError(f"format must be csv or jsonl, got {fmt!r}")
    out = Path(run_dir) / "export"
    out.mkdir(parents=True, exist_ok=True)
    # The final row: the last round's train losses, every other value from the summary.
    summary = store.summary
    finals = {k: summary["final_" + k] for k in ("test_iou", "test_dice", "mean_iou", "mean_dice")}
    final = replace(store.records[-1], comm_total=summary["comm_total"], **finals)
    metric_rows = [_metric_row(rec.round, rec) for rec in store.records]
    metric_rows.append(_metric_row("final", final))
    w_rows = [
        {"round": rec.round, "i": i, "j": j, "w": value}
        for rec in store.records
        if rec.w is not None
        for i, row in enumerate(rec.w)
        for j, value in enumerate(row)
    ]
    shift_rows = [
        {"round": rec.round, "layer": k + 1, "mean_shift": value}
        for rec in store.records
        for k, value in enumerate(rec.layer_shift)
    ]
    ledger_rows = store.ledger.to_rows()
    tables = {"metrics": metric_rows, "w": w_rows, "shifts": shift_rows, "ledger": ledger_rows}
    written = []
    for name, rows in tables.items():
        path = out / f"{name}.{fmt}"
        _write_text(path, _csv_text(rows) if fmt == "csv" else "".join(map(_json_line, rows)))
        written.append(path)
    return written


def _metric_row(label: int | str, rec: RoundRecord) -> dict:
    """A metrics table row: the label, each client's loss, IoU and Dice, then the means."""
    row: dict = {"round": label}
    for i, values in enumerate(zip(rec.train_loss, rec.test_iou, rec.test_dice)):
        row.update(zip((f"train_loss_{i}", f"test_iou_{i}", f"test_dice_{i}"), values))
    row.update(mean_iou=rec.mean_iou, mean_dice=rec.mean_dice, comm_total=rec.comm_total)
    return row


def _csv_text(rows: list[dict]) -> str:
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()
