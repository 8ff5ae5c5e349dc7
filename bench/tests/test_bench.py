"""Tests of the benchmark itself: tracer arithmetic, correctness checks, workload generation.

Run with ``python3 -m pytest -q bench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import beats
import checks
import run
import workloads
from tracer import TARGETS, Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]
CONFIGS = ROOT / "configs"

TINY_CONFIG = """
[run]
rounds = 3
seed = 0
aggregator = sgca

[model]
num_blocks = 3
feature_dim = 64
bottleneck_dim = 4

[client]
learning_rate = 0.01
batch_size = 16
low_layers = 2

[federation]
client_sizes = 12, 10, 14, 16
clusters = 0, 0, 1, 1
mask_side = 8

[cluster.0]
gain = 1.5
noise = 0.05
radius = 1.5, 2.5
blob_count = 1, 2

[cluster.1]
gain = 0.5
noise = 0.05
radius = 1.5, 2.5
blob_count = 1, 2
"""


# --- self time -------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    # root [0, 100] > a [10, 40] > a1 [20, 30]; root > b [50, 60]
    parent = [-1, 0, 1, 0]
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 60]
    assert self_times(parent, start, end) == [60, 20, 10, 10]


def test_self_time_counts_overlapping_children_once():
    # Children [10, 40] and [30, 50] overlap on [30, 40]: coverage is 40, not 50.
    parent = [-1, 0, 0]
    start = [0, 10, 30]
    end = [100, 40, 50]
    assert self_times(parent, start, end) == [60, 30, 20]


def test_self_time_clips_children_to_parent_interval():
    parent = [-1, 0]
    start = [10, 5]
    end = [20, 15]
    assert self_times(parent, start, end)[0] == 5


def test_tracer_records_parents_and_summary():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap("m.leaf", leaf)

    def outer(x):
        return traced_leaf(traced_leaf(x))

    traced_outer = tracer.wrap("m.outer", outer, nbytes=lambda args, kwargs, result: 8 * result)
    assert traced_outer(1) == 3
    assert tracer.parent == [-1, 0, 0]
    summary = tracer.summary()
    assert summary["m.leaf"]["calls"] == 2
    assert summary["m.outer"]["calls"] == 1
    assert summary["m.outer"]["bytes"] == 24
    leaf_total = summary["m.leaf"]["total_s"]
    assert summary["m.outer"]["self_s"] == pytest.approx(summary["m.outer"]["total_s"] - leaf_total)


def test_tracer_rebinds_imported_names_and_preserves_outputs(tmp_path):
    import fedsim
    from fedsim import adapter_net, fed_client, orchestrator

    cfg = fedsim.parse_config_text(TINY_CONFIG)
    fedsim.run_experiment(cfg, tmp_path / "plain")
    original = fed_client.objective_and_grad
    tracer = Tracer()
    tracer.install()
    try:
        assert fed_client.objective_and_grad is adapter_net.objective_and_grad
        assert fed_client.objective_and_grad is not original
        assert orchestrator.install_low_adapters is fed_client.install_low_adapters
        fedsim.run_experiment(cfg, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert fed_client.objective_and_grad is original
    assert checks.dir_digest(tmp_path / "plain") == checks.dir_digest(tmp_path / "traced")
    summary = tracer.summary()
    steps = 3 * 4  # rounds x clients, one batch each
    assert summary["adapter_net.objective_and_grad"]["calls"] == steps
    assert summary["fed_client.install_low_adapters"]["calls"] == steps
    assert summary["transport.serialize_params"]["bytes"] > 0
    assert all(row["self_s"] >= 0 for row in summary.values())


# --- filtered run time -----------------------------------------------------


def _beats(durations, keys):
    """Start times of back-to-back segments with the given durations, and the end time."""
    starts, t = [], 1000
    for d in durations:
        starts.append(t)
        t += d
    return starts, list(keys), t


def test_filtered_time_costs_segments_at_their_fastest():
    # 80 segments of 10 ns, sixteen of them slowed to 30 ns, after 50 ns of one-off work.
    durations = [30 if i % 5 == 0 else 10 for i in range(80)]
    starts, keys, end = _beats(durations, ["a"] * 80)
    assert end - 950 == 50 + 10 * 64 + 30 * 16
    assert beats.filtered_s(starts, keys, 950, end) == pytest.approx((50 + 80 * 10) * 1e-9)


def test_filtered_time_separates_kinds_by_their_next_beat():
    # Interleaved clients: "a" then "b" segments take 10 and 100 ns; the last one is cut short.
    durations = [10, 100] * 70
    starts, keys, end = _beats(durations, ["a", "b"] * 70)
    kinds = beats.segments(starts, keys, end, 1)
    assert {k: len(v) for k, v in kinds.items()} == {("a", "b"): 70, ("b", "a"): 69, ("b", None): 1}
    assert beats.filtered_s(starts, keys, 1000, end) == pytest.approx(sum(durations) * 1e-9)


def test_filtered_time_pairs_beats_by_stride():
    # Alternating 10 and 20 ns beats of one key: each two-beat segment takes 30 ns.
    # The lone "next" beat makes no whole segment, so its time counts as measured.
    durations = [10, 20] * 20 + [500]
    starts, keys, end = _beats(durations, ["k"] * 40 + ["next"])
    assert beats.segments(starts, keys, end, 2) == {("k", "k"): [30] * 19, ("k", "next"): [30]}


def test_filtered_time_is_wall_time_without_enough_segments():
    starts, keys, end = _beats([10, 50, 10], "aaa")
    assert beats.filtered_s(starts, keys, 1000, end) == pytest.approx(70e-9)
    assert beats.filtered_s([], [], 0, 123) == pytest.approx(123e-9)


def test_beat_recorder_wraps_and_restores_the_binding():
    from fedsim import orchestrator

    original = orchestrator.local_train_round
    recorder = beats.BeatRecorder()
    recorder.install("fedsim.orchestrator", "local_train_round", lambda args: args[0])
    try:
        assert orchestrator.local_train_round is not original
        with pytest.raises(AttributeError):  # a string is no ClientState
            orchestrator.local_train_round("client-7", 1)
    finally:
        recorder.uninstall()
    assert orchestrator.local_train_round is original
    assert recorder.key_index == {"client-7": 0}
    assert list(recorder.keys) == [0] and len(recorder.starts) == 1


# --- correctness checks ----------------------------------------------------


def _good_rounds(total=40):
    return [
        {"round": 1, "w": [[0.5, 0.5], [0.25, 0.75]], "comm_total": total // 2},
        {"round": 2, "w": [[1.0, 0.0], [0.3, 0.7]], "comm_total": total},
    ]


def test_comm_total_check_rejects_flipped_count():
    rounds = _good_rounds()
    assert checks.check_comm_total({"comm_total": 40}, rounds, 40) == []
    assert checks.check_comm_total({"comm_total": 41}, rounds, 40)
    rounds[-1]["comm_total"] = 39
    assert checks.check_comm_total({"comm_total": 40}, rounds, 40)


def test_w_rows_check_rejects_bad_rows():
    assert checks.check_w_rows(_good_rounds(), 2) == []
    off = _good_rounds()
    off[1]["w"][1] = [0.3, 0.7 + 1e-6]
    assert checks.check_w_rows(off, 2)
    negative = _good_rounds()
    negative[0]["w"][0] = [1.5, -0.5]
    assert checks.check_w_rows(negative, 2)
    missing = _good_rounds()
    missing[0]["w"] = None
    assert checks.check_w_rows(missing, 2)
    assert checks.check_w_rows(_good_rounds(), 3)


def test_iou_check_rejects_non_finite_and_far_values():
    assert checks.check_iou(0.16, 0.15, 0.1) == []
    assert checks.check_iou(float("nan"), 0.15, 0.1)
    assert checks.check_iou(None, 0.15, 0.1)
    assert checks.check_iou(0.3, 0.15, 0.1)


def test_grad_check_rejects_large_or_missing_errors():
    assert checks.check_grad_errors([1e-9, 2e-9], {}, 1e-4) == []
    assert checks.check_grad_errors([1e-9, 1e-3], {}, 1e-4)
    assert checks.check_grad_errors([1e-9, 1e-3], {1: 2e-4}, 1e-4)
    assert checks.check_grad_errors([math.nan], {}, 1e-4)
    assert checks.check_grad_errors([], {}, 1e-4)


def test_grad_check_accepts_a_kink_that_agrees_at_a_smaller_step():
    assert checks.check_grad_errors([1e-9, 3e-2], {1: 2e-9}, 1e-4) == []


def test_digest_check_flags_runs_that_differ():
    assert checks.check_digests(["a", "a", "a"]) == []
    assert checks.check_digests(["a", "b", "a"]) == [1]
    assert checks.check_digests([None, "a", "a"]) == [0]


def test_training_run_check_on_a_real_and_a_corrupted_store(tmp_path):
    import fedsim

    cfg = fedsim.parse_config_text(TINY_CONFIG)
    out = tmp_path / "run"
    store = fedsim.run_experiment(cfg, out)
    numbers = workloads.read_ini_numbers(TINY_CONFIG)
    reference = (store.summary["final_mean_iou"], 1e-12)
    assert checks.check_training_run(out, numbers, reference) == []

    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["comm_total"] += 1
    summary_path.write_text(json.dumps(summary))
    assert any("comm_total" in e for e in checks.check_training_run(out, numbers, reference))

    rounds_path = out / "rounds.jsonl"
    lines = rounds_path.read_text().splitlines()
    first = json.loads(lines[0])
    first["w"][0][0] += 0.01
    rounds_path.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
    assert any("W row 0" in e for e in checks.check_training_run(out, numbers, reference))


# --- workload generation ---------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_a_pure_function_of_its_seed(name):
    first = workloads.generate(name, 7, CONFIGS)
    assert workloads.generate(name, 7, CONFIGS) == first
    assert workloads.generate(name, 8, CONFIGS) != first


def test_train_default_is_the_shipped_config_with_the_benchmark_seed():
    import fedsim

    shipped = fedsim.load_config(str(CONFIGS / "default.ini"))
    generated = fedsim.parse_config_text(workloads.generate("train_default", 5, CONFIGS).text)
    assert generated.to_dict() == shipped.with_seed(5).to_dict()


def test_many_clients_layout():
    import fedsim

    cfg = fedsim.parse_config_text(workloads.generate("many_clients", 3, CONFIGS).text)
    assert cfg.federation.client_sizes == (10,) * 32
    assert cfg.federation.cluster_of == (0, 1) * 16
    assert (cfg.rounds, cfg.client.low_layers, cfg.model.num_blocks) == (30, 6, 6)
    assert (cfg.seed, cfg.federation.seed) == (3, 3)
    numbers = workloads.read_ini_numbers(workloads.generate("many_clients", 3, CONFIGS).text)
    assert workloads.expected_comm_total(numbers) == 2 * 30 * 32 * 6 * 2 * 256 * 16


def test_grad_oracle_counts_loss_evaluations():
    from fedsim.oracles import gradient_fixtures

    spec = json.loads(workloads.generate("grad_oracle", 20240903, CONFIGS).text)
    fixtures = gradient_fixtures(spec["fixture_seed"])[: spec["num_fixtures"]]
    assert workloads.grad_loss_evaluations(fixtures) == 27648


# --- metric plumbing -------------------------------------------------------


def test_every_listed_metric_resolves():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = {t.name: {"calls": 2, "self_s": 0.5, "total_s": 1.0, "bytes": 16} for t in TARGETS}
    traced = [{"wall_s": 2.0, "layers": layers}]
    untraced = [{"wall_s": 1.5, "run_s": 1.4, "cpu_s": 3.0, "work": 10, "peak_rss_mb": 50.0}]
    for metric in spec["per_layer"]:
        assert math.isfinite(run.layer_value(metric["name"], traced, untraced, 10))
    for metric in spec["end_to_end"]:
        assert run.end_to_end_value(metric["name"], untraced, [0.3]) > 0
    assert run.layer_value("trace.overhead_s", traced, untraced, 10) == pytest.approx(0.5)


def test_benchmark_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
