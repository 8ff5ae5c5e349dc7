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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .adapter_net import AdamState, build_model
from .config import SWEEP_AXES, ExperimentConfig, apply_sweep_value
from .datagen import generate_federation
from .errors import ConfigError, FedsimError, NumericError
from .fed_client import ClientState, install_low_adapters, local_train_round, measure_param_shift
from .numerics import FlatParams, RngStream, derive_stream_id
from .server import CollaborationMatrix, aggregate, fedavg_aggregate, update_matrix
from .transport import (
    CommLedger,
    LedgerEntry,
    WireMessage,
    deserialize_params,
    serialize_params,
    write_params_file,
)


@dataclass
class RoundRecord:
    round_index: int
    train_loss: list[float]
    test_iou: list[float]
    test_dice: list[float]
    mean_iou: float
    mean_dice: float
    w: list[list[float]] | None
    layer_shift: list[float]
    comm_total: int

    def to_dict(self) -> dict:
        return {
            "round": self.round_index,
            "train_loss": self.train_loss,
            "test_iou": self.test_iou,
            "test_dice": self.test_dice,
            "mean_iou": self.mean_iou,
            "mean_dice": self.mean_dice,
            "w": self.w,
            "layer_shift": self.layer_shift,
            "comm_total": self.comm_total,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RoundRecord":
        return cls(
            round_index=data["round"],
            train_loss=data["train_loss"],
            test_iou=data["test_iou"],
            test_dice=data["test_dice"],
            mean_iou=data["mean_iou"],
            mean_dice=data["mean_dice"],
            w=data["w"],
            layer_shift=data["layer_shift"],
            comm_total=data["comm_total"],
        )


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
        _write_text(
            out / "rounds.jsonl",
            "".join(_json_line(r.to_dict()) for r in self.records),
        )
        _write_text(out / "summary.json", _json_pretty(self.summary))
        _write_text(out / "ledger.csv", self.ledger.to_csv_text())

    @classmethod
    def load(cls, run_dir: str | Path) -> "ResultsStore":
        run = Path(run_dir)
        manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
        records = [
            RoundRecord.from_dict(json.loads(line))
            for line in (run / "rounds.jsonl").read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        summary = json.loads((run / "summary.json").read_text(encoding="utf-8"))
        ledger = CommLedger()
        reader = csv.DictReader(io.StringIO((run / "ledger.csv").read_text(encoding="utf-8")))
        for row in reader:
            entry = LedgerEntry(
                round_index=int(row["round"]),
                direction=row["direction"],
                client_id=int(row["client_id"]),
                scalar_count=int(row["scalar_count"]),
            )
            ledger.entries.append(entry)
            ledger.total += entry.scalar_count
        return cls(manifest, records, summary, ledger)


def _json_pretty(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _client_adapter_init(cfg: ExperimentConfig, client_id: int) -> FlatParams:
    """Per-client adapter draw: random down projections, zero up projections."""
    stream = RngStream(cfg.seed, derive_stream_id("adapter", client_id))
    d, b = cfg.model.feature_dim, cfg.model.bottleneck_dim
    parts = []
    for k in range(1, cfg.model.num_blocks + 1):
        down = stream.draw_gaussian(b * d) / np.sqrt(d)
        parts.append((k, np.concatenate([down, np.zeros(d * b)])))
    return FlatParams.from_layers(parts)


def _init_states(cfg: ExperimentConfig, datasets) -> list[ClientState]:
    # One frozen backbone shared by every client; adapters are per-client.
    base = build_model(
        cfg.model.feature_dim,
        cfg.model.bottleneck_dim,
        cfg.model.num_blocks,
        RngStream(cfg.seed, derive_stream_id("backbone")),
        RngStream(cfg.seed, derive_stream_id("adapter", "base")),
    )
    states = []
    for i in range(cfg.federation.num_clients):
        model = base.clone()
        model.install_adapter_params(_client_adapter_init(cfg, i))
        states.append(
            ClientState(
                client_id=i,
                model=model,
                adam=AdamState.for_params(model.adapter_params()),
                dataset=datasets[i],
                config=cfg.client,
                seed=cfg.seed,
            )
        )
    return states


def _client_round(state: ClientState, broadcast_payload: bytes, round_index: int):
    install_low_adapters(state, deserialize_params(broadcast_payload))
    model = state.model
    before = model.flat.copy()
    update = local_train_round(state, round_index)
    shift = measure_param_shift(before, model.flat, model.manifest())
    # The broadcast served as this round's regularizer reference only.
    state.theta_ref = None
    return update, shift


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> ResultsStore:
    """Execute the full round loop and return (and optionally save) the results.

    The server keeps one (N, P) matrix x of the round's uploads: each upload
    is decoded into its row as soon as that client finishes, x is dropped
    once it has been mixed, the mixes once they have been serialized, and a
    client's broadcast payload once its round ends, so at most two such
    buffers are alive at a time. Clients run one after another, in id
    order; run.workers has no effect.
    """
    cfg.validate()
    datasets = generate_federation(cfg.federation)
    states = _init_states(cfg, datasets)
    n = cfg.federation.num_clients
    sizes = [ds.n_i for ds in datasets]
    manifest = states[0].model.manifest(states[0].low_layer_list)
    ledger = CommLedger()

    x = np.stack([state.model.adapter_params(state.low_layer_list).values for state in states])
    shape = x.shape
    # Initial mixing weights are size-proportional, so round 1 matches FedAvg.
    m_row = np.array(sizes, dtype=np.float64) / float(sum(sizes))
    w = np.tile(m_row, (n, 1))

    records: list[RoundRecord] = []
    for round_index in range(1, cfg.rounds + 1):
        if cfg.aggregator == "sgca":
            mixed = aggregate(CollaborationMatrix(w, round_index - 1), x)
            del x
            broadcasts = [serialize_params(row, manifest) for row in mixed]
            del mixed
        else:
            broadcasts = [serialize_params(fedavg_aggregate(x, sizes), manifest)] * n
            del x
        for i, payload in enumerate(broadcasts):
            ledger.record(WireMessage("broadcast", i, round_index, payload))

        x = np.empty(shape)
        updates = []
        shifts = []
        for i, state in enumerate(states):
            try:
                update, shift = _client_round(state, broadcasts[i], round_index)
            except NumericError as exc:
                raise NumericError(f"round {round_index}: {exc}") from exc
            broadcasts[i] = None
            msg = WireMessage(
                "upload", update.client_id, round_index, serialize_params(update.low_params)
            )
            ledger.record(msg)
            deserialize_params(msg.payload, manifest=manifest, out=x[i])
            # Row i of x is now the server's only copy of this upload.
            update.low_params = None
            updates.append(update)
            shifts.append(shift)

        metrics = np.array(
            [[u.train_loss, u.test_iou, u.test_dice] for u in updates], dtype=np.float64
        )
        if not np.all(np.isfinite(metrics)):
            raise NumericError(f"non-finite client metrics at round {round_index}")

        w_snapshot = None
        if cfg.aggregator == "sgca":
            matrix = update_matrix(updates, x, cfg.sgca)
            w = matrix.w
            w_snapshot = [[float(v) for v in row] for row in w]

        records.append(
            RoundRecord(
                round_index=round_index,
                train_loss=[float(u.train_loss) for u in updates],
                test_iou=[float(u.test_iou) for u in updates],
                test_dice=[float(u.test_dice) for u in updates],
                mean_iou=float(metrics[:, 1].mean()),
                mean_dice=float(metrics[:, 2].mean()),
                w=w_snapshot,
                layer_shift=[float(v) for v in np.stack(shifts).mean(axis=0)],
                comm_total=ledger.total,
            )
        )

    final = records[-1]
    summary = {
        "rounds": cfg.rounds,
        "num_clients": n,
        "aggregator": cfg.aggregator,
        "final_mean_iou": final.mean_iou,
        "final_mean_dice": final.mean_dice,
        "final_test_iou": final.test_iou,
        "final_test_dice": final.test_dice,
        "comm_total": ledger.total,
    }
    manifest = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "code_version": __version__,
        "config": cfg.to_dict(),
    }
    store = ResultsStore(manifest, records, summary, ledger)
    if out_dir is not None:
        store.save(out_dir)
        ckpt_dir = Path(out_dir) / "checkpoints"
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        for state in states:
            write_params_file(
                state.model.adapter_params(), str(ckpt_dir / f"client_{state.client_id}.fsca")
            )
    return store


@dataclass
class SweepItem:
    value: str
    store: ResultsStore | None
    error: str | None
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
            items.append(SweepItem(str(value), None, f"{type(exc).__name__}: {exc}", run_dir))
    if out_root is not None:
        summary = {
            "axis": axis,
            "items": [
                {
                    "value": item.value,
                    "ok": item.error is None,
                    "error": item.error,
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
    n = store.summary["num_clients"]

    metric_rows = []
    for rec in store.records:
        row: dict = {"round": rec.round_index}
        for i in range(n):
            row[f"train_loss_{i}"] = rec.train_loss[i]
            row[f"test_iou_{i}"] = rec.test_iou[i]
            row[f"test_dice_{i}"] = rec.test_dice[i]
        row["mean_iou"] = rec.mean_iou
        row["mean_dice"] = rec.mean_dice
        row["comm_total"] = rec.comm_total
        metric_rows.append(row)
    summary_row: dict = {"round": "final"}
    for i in range(n):
        summary_row[f"train_loss_{i}"] = store.records[-1].train_loss[i]
        summary_row[f"test_iou_{i}"] = store.summary["final_test_iou"][i]
        summary_row[f"test_dice_{i}"] = store.summary["final_test_dice"][i]
    summary_row["mean_iou"] = store.summary["final_mean_iou"]
    summary_row["mean_dice"] = store.summary["final_mean_dice"]
    summary_row["comm_total"] = store.summary["comm_total"]
    metric_rows.append(summary_row)

    w_rows = [
        {"round": rec.round_index, "i": i, "j": j, "w": rec.w[i][j]}
        for rec in store.records
        if rec.w is not None
        for i in range(n)
        for j in range(n)
    ]
    shift_rows = [
        {"round": rec.round_index, "layer": k + 1, "mean_shift": value}
        for rec in store.records
        for k, value in enumerate(rec.layer_shift)
    ]
    ledger_rows = store.ledger.to_rows()

    written = []
    tables = {
        "metrics": metric_rows,
        "w": w_rows,
        "shifts": shift_rows,
        "ledger": ledger_rows,
    }
    for name, rows in tables.items():
        path = out / f"{name}.{fmt}"
        if fmt == "csv":
            _write_text(path, _csv_text(rows))
        else:
            _write_text(path, "".join(_json_line(r) for r in rows))
        written.append(path)
    return written


def _csv_text(rows: list[dict]) -> str:
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()
