"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np

from fedsim.adapter_net import AdamState, build_model
from fedsim.config import parse_config_text
from fedsim.datagen import ClusterParams, FederationSpec, generate_client_dataset
from fedsim.errors import DecodeError
from fedsim.fed_client import (
    ClientConfig,
    ClientState,
    install_low_adapters,
    iou_dice,
    local_train_round,
    measure_param_shift,
    step_workspace,
)
from fedsim.numerics import RngStream, derive_stream_id
from fedsim.oracles import check_gradients, check_row_solver
from fedsim.orchestrator import export_store, run_experiment
from fedsim.transport import (
    CommLedger,
    deserialize_params,
    payload_scalar_count,
    serialize_params,
)


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {criterion:02d}] {status} - {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


CLUSTER_RECOVERY_CONFIG = """
[run]
rounds = 30
seed = {seed}
aggregator = sgca

[model]
num_blocks = 6
feature_dim = 256
bottleneck_dim = 16

[client]
learning_rate = 0.01
batch_size = 32
local_epochs = 1
beta = 0.01
low_layers = 1

[sgca]
alpha = 1.0
metric = l2_based

[federation]
client_sizes = 100, 100, 100, 100
clusters = 0, 0, 1, 1

[cluster.0]
gain = 1.5
noise = 0.04
offset = -3.0, -3.0
radius = 2.0, 3.5
blob_count = 1, 2

[cluster.1]
gain = 0.4
noise = 0.04
offset = 3.0, 3.0
radius = 2.0, 3.5
blob_count = 1, 2
"""

SUPERIORITY_CONFIG = """
[run]
rounds = 60
seed = {seed}
aggregator = {aggregator}

[model]
num_blocks = 6
feature_dim = 256
bottleneck_dim = 16

[client]
learning_rate = 0.01
batch_size = 32
local_epochs = 1
beta = 0.01
low_layers = {low_layers}

[sgca]
alpha = 1.0
metric = l2_based

[federation]
client_sizes = 40, 40, 120, 160
clusters = 0, 0, 1, 1

[cluster.0]
gain = 1.5
noise = 0.05
radius = 2.0, 3.5
blob_count = 1, 2

[cluster.1]
gain = 0.5
noise = 0.05
radius = 2.0, 3.5
blob_count = 1, 2
"""

MATRIX_INVARIANT_CONFIG = """
[run]
rounds = 100
seed = 7
aggregator = sgca

[model]
num_blocks = 2
feature_dim = 64
bottleneck_dim = 4

[client]
learning_rate = 0.01
batch_size = 16
beta = 0.01
low_layers = 1

[sgca]
alpha = {alpha}

[federation]
client_sizes = 12, 10, 14, 16
clusters = 0, 0, 1, 1
mask_side = 8

[cluster.0]
gain = 1.5
noise = 0.05
radius = 1.5, 2.5

[cluster.1]
gain = 0.5
noise = 0.05
radius = 1.5, 2.5
"""


def test_criterion_01_qp_oracle_equivalence():
    start = time.perf_counter()
    result = check_row_solver(num_instances=1000)
    elapsed = time.perf_counter() - start
    report(
        1,
        result.passed and elapsed < 10.0,
        f"row QP vs KKT enumeration on 1000 instances: {result.detail}, {elapsed:.1f}s",
    )


def test_criterion_02_collaboration_matrix_invariants():
    store = run_experiment(parse_config_text(MATRIX_INVARIANT_CONFIG.format(alpha="1.0")))
    worst_sum = 0.0
    min_entry = np.inf
    for record in store.records:
        w = np.array(record.w)
        min_entry = min(min_entry, float(w.min()))
        worst_sum = max(worst_sum, float(np.max(np.abs(w.sum(axis=1) - 1.0))))
    uniform = run_experiment(
        parse_config_text(MATRIX_INVARIANT_CONFIG.format(alpha="0.0").replace("rounds = 100", "rounds = 2"))
    )
    exactly_uniform = True
    for record in uniform.records:
        for row in record.w:
            exactly_uniform &= len(set(row)) == 1
            exactly_uniform &= abs(row[0] - 0.25) < 1e-12
    passed = min_entry >= 0.0 and worst_sum <= 1e-9 and exactly_uniform
    report(
        2,
        passed,
        f"100 rounds: min entry {min_entry:.1e}, worst row-sum dev {worst_sum:.1e}, "
        f"alpha=0 rows exactly uniform: {exactly_uniform}",
    )


def test_criterion_03_gradient_correctness():
    start = time.perf_counter()
    result = check_gradients(num_fixtures=20)
    elapsed = time.perf_counter() - start
    report(
        3,
        result.passed and elapsed < 30.0,
        f"20 fixtures incl. regularizer term: {result.detail}, {elapsed:.1f}s",
    )


def test_criterion_04_communication_cost_exactness():
    start = time.perf_counter()
    model = build_model(
        256, 16, 6,
        RngStream(0, derive_stream_id("cost", "frozen")),
        RngStream(0, derive_stream_id("cost", "adapters")),
    )
    rounds, clients = 100, 4

    def total_for(depth):
        scalars = payload_scalar_count(serialize_params(model.low(depth), model.manifest(depth)))
        ledger = CommLedger()
        for round_index in range(1, rounds + 1):
            for client in range(clients):
                ledger.record("broadcast", client, round_index, scalars)
                ledger.record("upload", client, round_index, scalars)
        return ledger.total

    low = total_for(1)
    full = total_for(6)
    layer_size = 2 * 256 * 16
    exact = low == 2 * rounds * clients * layer_size
    ratio_exact = full * 1 == low * 6  # integer identity, zero tolerance
    elapsed = time.perf_counter() - start
    report(
        4,
        exact and ratio_exact and elapsed < 1.0,
        f"total {low} == 2*100*4*{layer_size}: {exact}; full/low ratio == 6: {ratio_exact}; "
        f"{elapsed:.2f}s",
    )


def test_criterion_05_cluster_recovery():
    start = time.perf_counter()
    min_masses = []
    for seed in (0, 1, 2):
        store = run_experiment(parse_config_text(CLUSTER_RECOVERY_CONFIG.format(seed=seed)))
        w = np.array(store.records[-1].w)
        masses = [w[0, :2].sum(), w[1, :2].sum(), w[2, 2:].sum(), w[3, 2:].sum()]
        min_masses.append(min(masses))
    elapsed = time.perf_counter() - start
    passed = all(m > 0.6 for m in min_masses) and elapsed < 120.0
    report(
        5,
        passed,
        "final-round within-cluster row mass per seed: "
        + ", ".join(f"{m:.3f}" for m in min_masses)
        + f" (threshold 0.6, 3/3 seeds), {elapsed:.1f}s",
    )


def test_criterion_06_directional_superiority():
    start = time.perf_counter()
    gaps = []
    for seed in (0, 1, 2):
        ours = run_experiment(
            parse_config_text(SUPERIORITY_CONFIG.format(seed=seed, aggregator="sgca", low_layers=1))
        )
        control = run_experiment(
            parse_config_text(SUPERIORITY_CONFIG.format(seed=seed, aggregator="fedavg", low_layers=6))
        )
        gaps.append(ours.records[-1].mean_iou - control.records[-1].mean_iou)
    mean_gap = float(np.mean(gaps))
    elapsed = time.perf_counter() - start
    report(
        6,
        mean_gap >= 0.01 and elapsed < 6 * 300.0,
        "final-round mean IoU gap (similarity aggregation + low-layer transfer vs "
        f"plain averaging, 3 seeds): {mean_gap:+.4f} >= +0.0100, per-seed "
        + ", ".join(f"{g:+.3f}" for g in gaps)
        + f", {elapsed:.1f}s",
    )


def test_criterion_07_parameter_shift_ordering():
    start = time.perf_counter()
    outcomes = []
    for seed in (0, 1, 2):
        spec = FederationSpec(
            client_sizes=(100, 100),
            cluster_of=(0, 0),
            clusters={0: ClusterParams(gain=1.5, noise=0.05, radius=(2.0, 3.5), blob_count=(1, 2))},
            mask_side=16,
            seed=seed,
        )
        dataset = generate_client_dataset(spec, 0)
        model = build_model(
            256, 16, 6,
            RngStream(seed, derive_stream_id("backbone")),
            RngStream(seed, derive_stream_id("adapter", 0)),
        )
        state = ClientState(
            client_id=0,
            model=model,
            dataset=dataset,
            config=ClientConfig(learning_rate=1e-2, local_epochs=10, beta=0.1, low_layers=1),
            seed=seed,
            adam=AdamState(np.zeros(model.flat.size), np.zeros(model.flat.size)),
            workspace=step_workspace(model.flat.size),
        )
        install_low_adapters(state, serialize_params(model.low(1), model.manifest(1)))
        before = model.flat.copy()
        local_train_round(state, 1)
        shift = measure_param_shift(before, model.flat, model.manifest(), np.empty_like(before))
        outcomes.append((float(shift[0]), float(shift[-1])))
    elapsed = time.perf_counter() - start
    passed = all(low < high for low, high in outcomes) and elapsed < 60.0
    report(
        7,
        passed,
        "layer-1 vs layer-6 relative shift after 10 local epochs: "
        + ", ".join(f"{lo:.3f}<{hi:.3f}" for lo, hi in outcomes)
        + f" (strict, 3/3 seeds), {elapsed:.1f}s",
    )


def test_criterion_08_byte_identical_determinism(tmp_path):
    cfg_text = SUPERIORITY_CONFIG.format(seed=0, aggregator="sgca", low_layers=1)
    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        store = run_experiment(parse_config_text(cfg_text), out)
        export_store(store, out, "csv")
        export_store(store, out, "jsonl")
        trees.append(
            {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
        )
    identical = trees[0] == trees[1]
    report(
        8,
        identical,
        f"two identical runs: {len(trees[0])} files each (store, W snapshots, ledger CSV, "
        f"both export formats) byte-identical: {identical}",
    )


def test_criterion_09_metric_unit_suite():
    perfect = iou_dice(np.array([1, 0, 1]), np.array([1, 0, 1]))
    disjoint = iou_dice(np.array([1, 1, 0, 0]), np.array([0, 0, 1, 1]))
    partial = iou_dice(np.array([1, 1, 0, 0, 0, 0]), np.array([1, 1, 1, 1, 0, 0]))
    passed = (
        perfect == (1.0, 1.0)
        and disjoint == (0.0, 0.0)
        and partial[0] == 0.5
        and abs(partial[1] - 2.0 / 3.0) < 1e-15
    )
    report(
        9,
        passed,
        f"perfect {perfect}, disjoint {disjoint}, partial overlap "
        f"({partial[0]:.4f}, {partial[1]:.4f})",
    )


def test_criterion_10_serialization_robustness():
    start = time.perf_counter()
    stream = RngStream(99, 0)
    failures = 0
    for _ in range(10_000):
        num_layers = stream.draw_integer(1, 5)
        start_idx = stream.draw_integer(1, 10)
        parts = []
        idx = start_idx
        for _ in range(num_layers):
            parts.append((idx, stream.draw_gaussian(stream.draw_integer(1, 40))))
            idx += stream.draw_integer(1, 5)
        values = np.concatenate([v for _, v in parts])
        manifest = tuple((k, v.size) for k, v in parts)
        data = serialize_params(values, manifest)
        decoded = deserialize_params(data, manifest=manifest, out=np.empty(values.size))
        if decoded.tobytes() != values.tobytes():
            failures += 1
    rejected = 0
    good = serialize_params(np.arange(8.0), ((1, 8),))
    for bad in (b"YYYY" + good[4:], good[:4] + b"\x09" + good[5:], good[:-2]):
        try:
            deserialize_params(bad, manifest=((1, 8),), out=np.empty(8))
        except DecodeError:
            rejected += 1
    elapsed = time.perf_counter() - start
    passed = failures == 0 and rejected == 3 and elapsed < 10.0
    report(
        10,
        passed,
        f"10^4 round trips bit-exact ({failures} failures); "
        f"{rejected}/3 malformed classes rejected; {elapsed:.1f}s",
    )
