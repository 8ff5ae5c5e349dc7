import json
from pathlib import Path

import numpy as np
import pytest

import fedsim.orchestrator as orchestrator
from fedsim import cli
from fedsim.adapter_net import AdamState, build_model
from fedsim.config import apply_sweep_value, parse_config_text
from fedsim.datagen import ClusterParams, FederationSpec, generate_client_dataset
from fedsim.errors import ConfigError, NumericError
from fedsim.fed_client import ClientConfig, ClientState, install_low_adapters, local_train_round
from fedsim.numerics import RngStream, derive_stream_id
from fedsim.orchestrator import ResultsStore, export_store, run_experiment, run_sweep
from fedsim.server import fedavg_aggregate


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestRunExperiment:
    def test_two_clients_alpha_zero_gives_uniform_matrix(self, small_config_text):
        text = small_config_text.replace("client_sizes = 12, 10, 14, 16", "client_sizes = 12, 10")
        text = text.replace("clusters = 0, 0, 1, 1", "clusters = 0, 1")
        text = text.replace("alpha = 1.0", "alpha = 0.0").replace("rounds = 3", "rounds = 1")
        store = run_experiment(parse_config_text(text))
        assert store.records[0].w == [[0.5, 0.5], [0.5, 0.5]]

    def test_identical_runs_are_byte_identical(self, small_config_text, tmp_path):
        cfg = parse_config_text(small_config_text)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        export_store(ResultsStore.load(tmp_path / "a"), tmp_path / "a", "csv")
        export_store(ResultsStore.load(tmp_path / "b"), tmp_path / "b", "csv")
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")

    def test_worker_pool_matches_sequential_run(self, small_config_text, tmp_path):
        cfg = parse_config_text(small_config_text)
        run_experiment(cfg, tmp_path / "seq")
        cfg_pool = parse_config_text(small_config_text.replace("workers = 1", "workers = 4"))
        run_experiment(cfg_pool, tmp_path / "pool")
        seq = read_tree(tmp_path / "seq")
        pool = read_tree(tmp_path / "pool")
        # manifests differ in the recorded worker count only
        seq.pop("manifest.json")
        pool.pop("manifest.json")
        assert seq == pool

    def test_cumulative_comm_matches_closed_form(self, small_config_text):
        cfg = parse_config_text(small_config_text)
        store = run_experiment(cfg)
        layer_size = 2 * 64 * 4
        n = 4
        for record in store.records:
            assert record.comm_total == 2 * record.round_index * n * layer_size
        for entry in store.ledger.entries:
            assert entry.scalar_count == layer_size

    def test_fedavg_skips_matrix_recording(self, small_config_text):
        cfg = parse_config_text(small_config_text.replace("aggregator = sgca", "aggregator = fedavg"))
        store = run_experiment(cfg)
        assert all(record.w is None for record in store.records)

    def test_saved_run_includes_per_client_checkpoints(self, small_config_text, tmp_path):
        from fedsim.transport import read_params_file

        cfg = parse_config_text(small_config_text)
        run_experiment(cfg, tmp_path)
        for client_id in range(4):
            params = read_params_file(str(tmp_path / "checkpoints" / f"client_{client_id}.fsca"))
            assert params.layer_indices == (1, 2, 3)

    def test_sgca_alpha_zero_broadcast_is_plain_mean(self, small_config_text, monkeypatch):
        # Equal sizes so every row of the mixing matrix is built from the same m.
        text = small_config_text.replace("client_sizes = 12, 10, 14, 16", "client_sizes = 12, 12, 12, 12")
        text = text.replace("alpha = 1.0", "alpha = 0.0").replace("rounds = 3", "rounds = 1")
        cfg = parse_config_text(text)
        seen = {}
        original = orchestrator.aggregate

        def spy(matrix, params):
            mixed = original(matrix, params)
            seen.setdefault("first", (params, mixed))
            return mixed

        monkeypatch.setattr(orchestrator, "aggregate", spy)
        run_experiment(cfg)
        params, mixed = seen["first"]
        mean = np.mean([p.values for p in params], axis=0)
        for broadcast in mixed:
            assert np.allclose(broadcast.values, mean, atol=1e-12)
        payloads = {m.values.tobytes() for m in mixed}
        assert len(payloads) == 1  # identical broadcast for every client

    def test_round_records_have_per_client_vectors(self, small_config_text):
        store = run_experiment(parse_config_text(small_config_text))
        for record in store.records:
            assert len(record.train_loss) == 4
            assert len(record.test_iou) == 4
            assert len(record.test_dice) == 4
            assert record.mean_iou == pytest.approx(np.mean(record.test_iou), abs=1e-12)
            assert record.mean_dice == pytest.approx(np.mean(record.test_dice), abs=1e-12)
            assert len(record.layer_shift) == 3

    def test_non_finite_metrics_abort_with_round_context(self, small_config_text, monkeypatch):
        cfg = parse_config_text(small_config_text)

        def broken(state, round_index):
            update = local_train_round(state, round_index)
            update.train_loss = float("nan")
            return update

        monkeypatch.setattr(orchestrator, "local_train_round", broken)
        with pytest.raises(NumericError, match="round 1"):
            run_experiment(cfg)

    @staticmethod
    def _poison_one_training_image(monkeypatch, client_id):
        real = orchestrator.generate_federation

        def poisoned(spec):
            datasets = real(spec)
            datasets[client_id].train[0].image[5] = np.nan
            return datasets

        monkeypatch.setattr(orchestrator, "generate_federation", poisoned)

    def test_nan_training_image_names_round_client_and_step(self, small_config_text, monkeypatch):
        # Client 2 has 11 training samples, one batch of 16: its first step diverges.
        self._poison_one_training_image(monkeypatch, 2)
        with pytest.raises(
            NumericError,
            match=r"^round 1: client 2: parameter update diverged at optimizer step 1$",
        ):
            run_experiment(parse_config_text(small_config_text))

    def test_nan_training_image_exits_with_numeric_code(
        self, small_config_text, monkeypatch, tmp_path, capsys
    ):
        self._poison_one_training_image(monkeypatch, 2)
        config = tmp_path / "experiment.ini"
        config.write_text(small_config_text, encoding="utf-8")
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERIC == 3
        assert "client 2" in capsys.readouterr().err

    def test_zero_rounds_rejected_before_any_work(self, small_config_text, tmp_path):
        cfg = parse_config_text(small_config_text)
        cfg.rounds = 0
        out = tmp_path / "never"
        with pytest.raises(ConfigError):
            run_experiment(cfg, out)
        assert not out.exists()


class TestFedavgSymmetry:
    def test_equal_clients_stay_identical_every_round(self):
        # Two clients with byte-identical datasets, models, and optimizer state:
        # plain averaging keeps them in lockstep indefinitely.
        spec = FederationSpec(
            client_sizes=(20, 20),
            cluster_of=(0, 0),
            clusters={0: ClusterParams(gain=1.2, noise=0.05)},
            mask_side=8,
            seed=11,
        )
        dataset = generate_client_dataset(spec, 0)
        states = []
        for client_id in range(2):
            model = build_model(
                64, 4, 3,
                RngStream(11, derive_stream_id("backbone")),
                RngStream(11, derive_stream_id("adapter", "shared")),
            )
            states.append(
                ClientState(
                    client_id=client_id,
                    model=model,
                    adam=AdamState.for_params(model.adapter_params()),
                    dataset=dataset,
                    config=ClientConfig(learning_rate=1e-2, batch_size=8, low_layers=1),
                    seed=11,
                )
            )
        # Identical shuffle streams as well: both clients must act as clones.
        states[1].client_id = 0
        for round_index in range(1, 4):
            lows = [s.model.adapter_params([1]) for s in states]
            shared = fedavg_aggregate(lows, [20, 20])
            for state in states:
                install_low_adapters(state, shared)
                local_train_round(state, round_index)
            a, b = (s.model.adapter_params() for s in states)
            assert a.equals(b)


class TestSweeps:
    def test_depth_sweep_has_strictly_increasing_cost(self, small_config_text):
        cfg = parse_config_text(small_config_text.replace("rounds = 3", "rounds = 1"))
        items = run_sweep(cfg, "L", ["1", "2", "3"])
        totals = [item.store.summary["comm_total"] for item in items]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_beta_sweep_covers_the_standard_grid(self, small_config_text):
        cfg = parse_config_text(small_config_text.replace("rounds = 3", "rounds = 1"))
        values = ["0.001", "0.01", "0.1", "1.0", "10.0"]
        items = run_sweep(cfg, "beta", values)
        assert [item.value for item in items] == values
        assert all(item.error is None for item in items)

    def test_metric_sweep_covers_all_four_variants(self, small_config_text):
        cfg = parse_config_text(small_config_text.replace("rounds = 3", "rounds = 1"))
        items = run_sweep(cfg, "metric", ["inner", "cosine", "l1_based", "l2_based"])
        assert all(item.error is None for item in items)

    def test_aggregator_sweep_runs_both_arms(self, small_config_text):
        cfg = parse_config_text(small_config_text.replace("rounds = 3", "rounds = 1"))
        items = run_sweep(cfg, "aggregator", ["fedavg", "sgca"])
        assert all(item.error is None for item in items)

    def test_failures_are_isolated_and_flagged(self, small_config_text, tmp_path):
        cfg = parse_config_text(small_config_text.replace("rounds = 3", "rounds = 1"))
        items = run_sweep(cfg, "metric", ["l2_based", "bogus"], tmp_path)
        assert items[0].error is None
        assert items[1].error is not None and "bogus" in items[1].error
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["items"][1]["ok"] is False

    def test_unknown_axis_rejected(self, small_config_text):
        cfg = parse_config_text(small_config_text)
        with pytest.raises(ConfigError):
            run_sweep(cfg, "gamma", ["1"])


class TestExport:
    def test_csv_export_has_round_rows_plus_summary(self, small_config_text, tmp_path):
        cfg = parse_config_text(small_config_text.replace("rounds = 3", "rounds = 5"))
        store = run_experiment(cfg, tmp_path)
        paths = export_store(store, tmp_path, "csv")
        metrics = (tmp_path / "export" / "metrics.csv").read_text().strip().split("\n")
        assert len(metrics) == 1 + 5 + 1  # header, five rounds, one summary row
        assert metrics[-1].startswith("final,")
        assert {p.name for p in paths} == {"metrics.csv", "w.csv", "shifts.csv", "ledger.csv"}

    def test_jsonl_export_round_trips_values(self, small_config_text, tmp_path):
        cfg = parse_config_text(small_config_text)
        store = run_experiment(cfg, tmp_path)
        export_store(store, tmp_path, "jsonl")
        lines = (tmp_path / "export" / "metrics.jsonl").read_text().strip().split("\n")
        rows = [json.loads(line) for line in lines]
        assert rows[0]["round"] == 1
        assert rows[0]["mean_iou"] == store.records[0].mean_iou

    def test_re_export_is_idempotent(self, small_config_text, tmp_path):
        cfg = parse_config_text(small_config_text)
        store = run_experiment(cfg, tmp_path)
        export_store(store, tmp_path, "csv")
        first = read_tree(tmp_path / "export")
        export_store(store, tmp_path, "csv")
        assert read_tree(tmp_path / "export") == first

    def test_loaded_store_exports_identically(self, small_config_text, tmp_path):
        cfg = parse_config_text(small_config_text)
        store = run_experiment(cfg, tmp_path / "run")
        export_store(store, tmp_path / "run", "csv")
        loaded = ResultsStore.load(tmp_path / "run")
        export_store(loaded, tmp_path / "copy", "csv")
        assert read_tree(tmp_path / "run" / "export") == read_tree(tmp_path / "copy" / "export")

    def test_w_export_contains_dense_row_major_entries(self, small_config_text, tmp_path):
        cfg = parse_config_text(small_config_text.replace("rounds = 3", "rounds = 2"))
        store = run_experiment(cfg, tmp_path)
        export_store(store, tmp_path, "csv")
        lines = (tmp_path / "export" / "w.csv").read_text().strip().split("\n")
        assert lines[0] == "round,i,j,w"
        assert len(lines) == 1 + 2 * 4 * 4

    def test_bad_format_rejected(self, small_config_text, tmp_path):
        store = run_experiment(parse_config_text(small_config_text))
        with pytest.raises(ConfigError):
            export_store(store, tmp_path, "parquet")


class TestConfigParsing:
    def test_unknown_key_is_an_error(self, small_config_text):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(small_config_text.replace("alpha = 1.0", "alpha = 1.0\nalphaa = 2"))

    def test_unknown_section_is_an_error(self, small_config_text):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text(small_config_text + "\n[extras]\nx = 1\n")

    def test_feature_dim_must_match_mask_area(self, small_config_text):
        with pytest.raises(ConfigError, match="feature_dim"):
            parse_config_text(small_config_text.replace("feature_dim = 64", "feature_dim = 32"))

    def test_missing_cluster_section_is_an_error(self, small_config_text):
        with pytest.raises(ConfigError, match="cluster 2"):
            parse_config_text(small_config_text.replace("clusters = 0, 0, 1, 1", "clusters = 0, 0, 1, 2"))

    def test_round_trip_through_dict_is_stable(self, small_config_text):
        cfg = parse_config_text(small_config_text)
        assert cfg.config_hash() == parse_config_text(small_config_text).config_hash()

    def test_seed_override_changes_hash(self, small_config_text):
        cfg = parse_config_text(small_config_text)
        assert cfg.with_seed(1).config_hash() != cfg.config_hash()

    def test_sweep_value_application(self, small_config_text):
        cfg = parse_config_text(small_config_text)
        assert apply_sweep_value(cfg, "L", "3").client.low_layers == 3
        assert apply_sweep_value(cfg, "beta", "0.5").client.beta == 0.5
        assert apply_sweep_value(cfg, "alpha", "2").sgca.alpha == 2.0
        assert apply_sweep_value(cfg, "metric", "cosine").sgca.metric == "cosine"
        assert apply_sweep_value(cfg, "aggregator", "fedavg").aggregator == "fedavg"
        # the base config is untouched
        assert cfg.client.low_layers == 1
