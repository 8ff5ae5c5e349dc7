"""The federated round written as plainly as it can be: the reference for run_experiment.

Each client owns its model, Adam moments and step workspace. Each round the
server mixes the uploads it decoded in the round before into a new matrix,
W @ X under sgca or the size-weighted mean under fedavg, and sends row i to
client i as bytes; each client trains and uploads its low layers as bytes.
It shares the client kernels and update_matrix with the run, but not its loop
or its in-place mixes (tests/test_layering.py keeps it so). Each round's W is
also rebuilt from a pairwise-loop similarity and oracles.kkt_row_argmin.
"""

from dataclasses import dataclass

import numpy as np

from fedsim.adapter_net import AdamState, ToyFM, draw_adapters, frozen_backbone
from fedsim.datagen import generate_federation
from fedsim.fed_client import ClientState, install_low_adapters, local_train_round, step_workspace
from fedsim.numerics import RngStream, derive_stream_id
from fedsim.oracles import kkt_row_argmin
from fedsim.server import update_matrix
from fedsim.transport import CommLedger, deserialize_params, payload_scalar_count, serialize_params


@dataclass
class ReferenceRun:
    records: list[dict]  # RoundRecord's fields, in its order
    ledger: CommLedger
    checkpoints: dict[str, bytes]  # file name under checkpoints/ -> its bytes
    kkt_gaps: list[float]  # per sgca round: max |W - W_kkt|


def loop_similarity(x: np.ndarray, metric: str, normalization: str) -> np.ndarray:
    """The similarity of every pair of flat uploads, one pair at a time."""
    n = len(x)
    s = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            a, b = x[i], x[j]
            if metric == "inner":
                s[i, j] = a @ b
            elif metric == "cosine":
                norms = np.linalg.norm(a) * np.linalg.norm(b)
                s[i, j] = a @ b / norms if norms > 0 else 0.0
            elif metric == "l1_based":
                s[i, j] = -np.abs(a - b).sum()
            else:
                s[i, j] = -np.linalg.norm(a - b)
    if normalization == "max_abs_row":
        for i in range(n):
            scale = max(abs(s[i, j]) for j in range(n) if j != i)
            if scale > 0:
                s[i] /= scale
    return s


def run_reference(cfg) -> ReferenceRun:
    d, r, k = cfg.model.feature_dim, cfg.model.bottleneck_dim, cfg.model.num_blocks
    n, layers, size = cfg.federation.num_clients, cfg.client.low_layers, k * 2 * d * r
    datasets = generate_federation(cfg.federation)
    blocks, head = frozen_backbone(d, k, RngStream(cfg.seed, derive_stream_id("backbone")))
    clients = []
    for i in range(n):
        model = ToyFM(blocks, head, d, r, np.zeros(size))
        draw_adapters(model, RngStream(cfg.seed, derive_stream_id("adapter", i)))
        adam, workspace = AdamState(np.zeros(size), np.zeros(size)), step_workspace(size)
        clients.append(ClientState(i, model, datasets[i], cfg.client, cfg.seed, adam, workspace))
    manifest = clients[0].model.manifest(layers)
    m = np.array(cfg.federation.client_sizes, dtype=np.float64)
    m /= m.sum()
    w = np.tile(m, (n, 1))
    x = np.stack([c.model.low(layers) for c in clients])  # the server's copy of the uploads
    ledger, records, kkt_gaps = CommLedger(), [], []
    for round_index in range(1, cfg.rounds + 1):
        mixed = w @ x if cfg.aggregator == "sgca" else np.tile(m @ x, (n, 1))
        broadcasts = [serialize_params(row, manifest) for row in mixed]
        for i, payload in enumerate(broadcasts):
            ledger.record("broadcast", i, round_index, payload_scalar_count(payload))
        updates, x = [], np.empty_like(x)
        for client, payload in zip(clients, broadcasts):
            install_low_adapters(client, payload)
            updates.append(local_train_round(client, round_index))
            upload = serialize_params(client.model.low(layers), manifest)
            ledger.record("upload", client.client_id, round_index, payload_scalar_count(upload))
            deserialize_params(upload, manifest=manifest, out=x[client.client_id])
        if cfg.aggregator == "sgca":
            w = update_matrix(x.reshape(n, layers, -1), cfg.sgca).w
            s = loop_similarity(x, cfg.sgca.metric, cfg.sgca.normalization)
            kkt = np.array([kkt_row_argmin(1.0 / n, row, cfg.sgca.alpha) for row in s])
            kkt_gaps.append(float(np.max(np.abs(w - kkt))))
        iou, dice = [u.test_iou for u in updates], [u.test_dice for u in updates]
        records.append(
            {
                "round": round_index,
                "train_loss": [u.train_loss for u in updates],
                "test_iou": iou,
                "test_dice": dice,
                "mean_iou": float(np.mean(iou)),
                "mean_dice": float(np.mean(dice)),
                "w": w.tolist() if cfg.aggregator == "sgca" else None,
                "layer_shift": np.mean([u.layer_shift for u in updates], axis=0).tolist(),
                "comm_total": ledger.total,
            }
        )
    checkpoints = {
        f"client_{c.client_id}.fsca": serialize_params(c.model.flat, c.model.manifest())
        for c in clients
    }
    return ReferenceRun(records, ledger, checkpoints, kkt_gaps)
