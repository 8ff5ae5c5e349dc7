import configparser
import io
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fedsim.orchestrator as orchestrator
from fedsim import cli, transport
from fedsim.adapter_net import AdamState, build_model
from fedsim.config import apply_sweep_value, parse_config_text
from fedsim.datagen import (
    ClusterParams,
    FederationSpec,
    generate_client_dataset,
    generate_federation,
)
from fedsim.errors import ConfigError, DecodeError, NumericError, ProtocolError
from fedsim.fed_client import (
    ClientConfig,
    ClientState,
    install_low_adapters,
    local_train_round,
    step_workspace,
)
from fedsim.numerics import FlatParams, RngStream, derive_stream_id
from fedsim.orchestrator import ResultsStore, export_store, run_experiment, run_sweep
from fedsim.server import fedavg_aggregate
from fedsim.transport import read_params_file, serialize_params
from reference_round import run_reference


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def keep_states(monkeypatch):
    """Make _init_states also keep the run's client states in the list returned here."""
    states, real = [], orchestrator._init_states

    def init_states(cfg, datasets):
        params, run_states = real(cfg, datasets)
        states.extend(run_states)
        return params, run_states

    monkeypatch.setattr(orchestrator, "_init_states", init_states)
    return states


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

    def test_many_clients_run_is_the_same_bits_at_one_and_two_blas_threads(
        self, tmp_path, set_blas_threads
    ):
        # All six layers are uploaded: the regularizer's and the Gram's 49,152-value
        # sums would be split over OpenBLAS's threads if taken in one dot product.
        runs = []
        for threads in (1, 2):
            set_blas_threads(threads)
            run_experiment(many_clients_config(4), tmp_path / str(threads))
            runs.append(read_tree(tmp_path / str(threads)))
        assert runs[0] == runs[1]

    def test_cumulative_comm_matches_closed_form(self, small_config_text):
        cfg = parse_config_text(small_config_text)
        store = run_experiment(cfg)
        layer_size = 2 * 64 * 4
        n = 4
        for record in store.records:
            assert record.comm_total == 2 * record.round * n * layer_size
        for entry in store.ledger.entries:
            assert entry.scalar_count == layer_size

    def test_fedavg_skips_matrix_recording(self, small_config_text):
        cfg = parse_config_text(small_config_text.replace("aggregator = sgca", "aggregator = fedavg"))
        store = run_experiment(cfg)
        assert all(record.w is None for record in store.records)

    def test_saved_run_includes_per_client_checkpoints(self, small_config_text, tmp_path):
        cfg = parse_config_text(small_config_text)
        run_experiment(cfg, tmp_path)
        for client_id in range(4):
            path = tmp_path / "checkpoints" / f"client_{client_id}.fsca"
            manifest, _ = read_params_file(str(path))
            assert [k for k, _ in manifest] == [1, 2, 3]

    def test_each_checkpoint_is_the_serialized_flat_buffer(
        self, small_config_text, tmp_path, monkeypatch
    ):
        states = keep_states(monkeypatch)
        run_experiment(parse_config_text(small_config_text), tmp_path)
        assert len(states) == 4
        for state in states:
            model = state.model
            path = tmp_path / "checkpoints" / f"client_{state.client_id}.fsca"
            assert path.read_bytes() == serialize_params(model.flat, model.manifest())
            manifest, values = read_params_file(str(path))
            assert manifest == model.manifest()
            assert values.tobytes() == model.flat.tobytes()

    def test_a_saved_run_builds_no_flatparams(self, small_config_text, tmp_path, monkeypatch):
        # Rounds and checkpoints move plain vectors; FlatParams stays only as a
        # benchmark tracer target.
        built = []
        real = FlatParams.__post_init__

        def counted(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(FlatParams, "__post_init__", counted)
        FlatParams(np.zeros(2), ((1, 2),))
        assert len(built) == 1  # the counter sees a construction
        run_experiment(parse_config_text(small_config_text), tmp_path)
        assert len(built) == 1

    def test_sgca_alpha_zero_broadcast_is_plain_mean(self, small_config_text, monkeypatch):
        # Equal sizes so every row of the mixing matrix is built from the same m.
        text = small_config_text.replace("client_sizes = 12, 10, 14, 16", "client_sizes = 12, 12, 12, 12")
        text = text.replace("alpha = 1.0", "alpha = 0.0").replace("rounds = 3", "rounds = 1")
        cfg = parse_config_text(text)
        seen = {}
        original = orchestrator.aggregate

        def spy(matrix, params):
            # Copies: the mixes overwrite the uploads, and training overwrites the mixes.
            before = params.copy()
            mixed = original(matrix, params)
            seen.setdefault("first", (before, mixed.copy()))
            return mixed

        monkeypatch.setattr(orchestrator, "aggregate", spy)
        run_experiment(cfg)
        params, mixed = seen["first"]
        mean = np.mean(params, axis=0)
        for broadcast in mixed:
            assert np.allclose(broadcast, mean, atol=1e-12)
        payloads = {m.tobytes() for m in mixed}
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
            datasets[client_id].train[0, 0, 5] = np.nan
            return datasets

        monkeypatch.setattr(orchestrator, "generate_federation", poisoned)

    def test_nan_training_image_names_round_client_and_step(self, small_config_text, monkeypatch):
        # Client 2 has 11 training samples, one batch of 16: its first step diverges.
        self._poison_one_training_image(monkeypatch, 2)
        with pytest.raises(
            NumericError,
            match=(
                r"^round 1: client 2: parameter update diverged at optimizer step 1, "
                r"first in adapter layer 1$"
            ),
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


def many_clients_config(num_clients):
    """Ten-sample clients in two clusters, all six adapter layers uploaded (P = 49,152)."""
    sizes = ", ".join(["10"] * num_clients)
    clusters = ", ".join(str(i % 2) for i in range(num_clients))
    return parse_config_text(
        f"""
[run]
rounds = 3
seed = 3
aggregator = sgca

[model]
num_blocks = 6
feature_dim = 256
bottleneck_dim = 16

[client]
learning_rate = 0.01
batch_size = 32
low_layers = 6

[federation]
client_sizes = {sizes}
clusters = {clusters}

[cluster.0]
gain = 1.5
noise = 0.04
radius = 2.0, 3.5
blob_count = 1, 2

[cluster.1]
gain = 0.4
noise = 0.04
radius = 2.0, 3.5
blob_count = 1, 2
"""
    )


class TestReferenceRound:
    """run_experiment computes what the plain round of tests/reference_round.py computes."""

    @pytest.mark.parametrize(
        "edits",
        [
            {},
            {"metric = l2_based": "metric = inner"},
            {"metric = l2_based": "metric = cosine"},
            {"metric = l2_based": "metric = l1_based"},
            {"metric = l2_based": "metric = l2_based\nnormalization = none"},
            {"aggregator = sgca": "aggregator = fedavg"},
            {"low_layers = 1": "low_layers = 3"},
            {"low_layers = 1": "low_layers = 3", "aggregator = sgca": "aggregator = fedavg"},
        ],
        ids=["l2", "inner", "cosine", "l1", "l2-unnormalized", "fedavg", "sgca-K", "fedavg-K"],
    )
    def test_the_run_is_the_reference_round_bit_for_bit(self, small_config_text, tmp_path, edits):
        text = small_config_text
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        cfg = parse_config_text(text)
        store = run_experiment(cfg, tmp_path)
        ref = run_reference(cfg)
        # repr round-trips a float, so equal reprs are equal bits.
        assert repr([vars(record) for record in store.records]) == repr(ref.records)
        assert store.ledger.entries == ref.ledger.entries
        assert read_tree(tmp_path / "checkpoints") == ref.checkpoints
        assert len(ref.kkt_gaps) == (cfg.rounds if cfg.aggregator == "sgca" else 0)
        assert max(ref.kkt_gaps, default=0.0) <= 1e-9


class TestServerMatrix:
    """What no output of a run shows: the round's manifest check, how long its payloads
    live, its traced memory, and uploads that view the run's parameter matrix."""

    def test_broadcast_of_the_wrong_layers_is_a_protocol_error(
        self, small_config_text, monkeypatch
    ):
        installed = []
        real_install = orchestrator.install_low_adapters

        def install(state, payload):
            installed.append(state.client_id)
            return real_install(state, payload)

        def wrong_layers(values, manifest):
            # The third payload serialized is client 2's broadcast: send it as layer 2.
            if len(installed) == 2:
                return serialize_params(values, ((2, values.size),))
            return serialize_params(values, manifest)

        monkeypatch.setattr(orchestrator, "install_low_adapters", install)
        monkeypatch.setattr(orchestrator, "serialize_params", wrong_layers)
        with pytest.raises(ProtocolError, match="manifest") as raised:
            run_experiment(parse_config_text(small_config_text))
        assert installed == [0, 1, 2]
        assert "install_low_adapters" in [entry.name for entry in raised.traceback]

    def test_no_payload_outlives_its_client_round(self, small_config_text, monkeypatch):
        # The round's only payloads are its broadcasts, and each lives only for
        # its own install: uploads stay in the parameter matrix the server reads.
        # Every payload is a bytes object allocated in transport.py; none of
        # that size may be live when the similarity is computed.
        live = []
        real = orchestrator.update_matrix

        def spy(x, cfg):
            in_transport = tracemalloc.Filter(True, transport.__file__)
            traces = tracemalloc.take_snapshot().filter_traces([in_transport]).traces
            live.append([t.size for t in traces if t.size >= x[0].nbytes])
            return real(x, cfg)

        monkeypatch.setattr(orchestrator, "update_matrix", spy)
        tracemalloc.start()
        try:
            run_experiment(parse_config_text(small_config_text))
        finally:
            tracemalloc.stop()
        assert live == [[]] * 3

    @pytest.mark.parametrize("low_layers", [1, 2])
    def test_the_uploads_the_server_reads_view_the_parameter_matrix(
        self, small_config_text, monkeypatch, low_layers
    ):
        states, seen = keep_states(monkeypatch), []
        real_aggregate, real_update = orchestrator.aggregate, orchestrator.update_matrix

        def aggregate(matrix, x):
            seen.append(x)
            return real_aggregate(matrix, x)

        def update_matrix(x, cfg):
            seen.append(x)
            return real_update(x, cfg)

        monkeypatch.setattr(orchestrator, "aggregate", aggregate)
        monkeypatch.setattr(orchestrator, "update_matrix", update_matrix)
        text = small_config_text.replace("low_layers = 1", f"low_layers = {low_layers}")
        run_experiment(parse_config_text(text))
        params = states[0].model.flat.base
        size = states[0].model.layer_size
        assert len(seen) == 6
        for x in seen:
            # The first L layers of the parameter matrix, in place, one layer per index.
            assert np.shares_memory(x, params) and x.base is params
            assert x.shape == (4, low_layers, size)
            assert x.strides == (params.strides[0], 8 * size, 8)
            assert x.ctypes.data == params.ctypes.data

    def test_traced_peak_grows_by_at_most_four_uploads_per_client(self):
        # Per client the run keeps three matrix rows: one of the parameter matrix
        # (model.flat) and two of the moment matrix (3 P). The server adds one
        # (N, S) temporary, one adapter layer wide: the uploads x are a view of
        # the parameter matrix, and it mixes them in place.
        def traced_peak(num_clients):
            cfg = many_clients_config(num_clients)
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        upload_bytes = 8 * 6 * 2 * 256 * 16
        per_client = (traced_peak(16) - traced_peak(8)) / 8
        assert per_client <= 4.0 * upload_bytes, per_client / upload_bytes


def client_adapter_init(cfg, client_id):
    """Reference per-client adapter draw: random down projections, zero up projections."""
    stream = RngStream(cfg.seed, derive_stream_id("adapter", client_id))
    d, b = cfg.model.feature_dim, cfg.model.bottleneck_dim
    parts = []
    for _ in range(cfg.model.num_blocks):
        parts += [stream.draw_gaussian(b * d) / np.sqrt(d), np.zeros(d * b)]
    return np.concatenate(parts)


class TestInitStates:
    def test_client_adapters_are_the_per_client_draw(self, small_config_text, frozen_digest):
        cfg = parse_config_text(small_config_text)
        _, states = orchestrator._init_states(cfg, generate_federation(cfg.federation))
        for i, state in enumerate(states):
            assert state.model.flat.tobytes() == client_adapter_init(cfg, i).tobytes()
        assert len({frozen_digest(state.model) for state in states}) == 1

    def test_clients_are_rows_of_one_parameter_and_one_moment_matrix(self, small_config_text):
        cfg = parse_config_text(small_config_text)
        params, states = orchestrator._init_states(cfg, generate_federation(cfg.federation))
        size = states[0].model.flat.size
        moments = states[0].adam.first_moment.base
        assert params.shape == (4, size) and params.flags.c_contiguous
        assert moments.shape == (2, 4, size) and moments.flags.c_contiguous
        for i, state in enumerate(states):
            # Each vector starts at its row and is as long: it is that row.
            assert state.model.flat.base is params and state.adam.second_moment.base is moments
            assert state.model.flat.ctypes.data == params[i].ctypes.data
            assert state.adam.first_moment.ctypes.data == moments[0, i].ctypes.data
            assert state.adam.second_moment.ctypes.data == moments[1, i].ctypes.data
            assert state.model.adapters[0][0].base is params
        assert not moments.any()

    def test_clients_share_one_workspace_and_a_round_does_not_depend_on_it(
        self, small_config_text
    ):
        cfg = parse_config_text(small_config_text)
        datasets = generate_federation(cfg.federation)

        def fresh_states():
            _, states = orchestrator._init_states(cfg, datasets)
            low = cfg.client.low_layers
            payloads = [serialize_params(s.model.low(low), s.model.manifest(low)) for s in states]
            return states, payloads

        def client_round(state, payload):
            install_low_adapters(state, payload)
            update = local_train_round(state, 1)
            low = cfg.client.low_layers
            upload = serialize_params(state.model.low(low), state.model.manifest(low))
            return update.train_loss, update.layer_shift, upload

        shared, payloads = fresh_states()
        assert all(state.workspace is shared[0].workspace for state in shared)
        # Client 1's round right after client 0's, which leaves its rows in the workspace.
        client_round(shared[0], payloads[0])
        *after_other, shift, upload = client_round(shared[1], payloads[1])
        alone_states, alone_payloads = fresh_states()
        *alone, want_shift, want_upload = client_round(alone_states[1], alone_payloads[1])

        assert after_other == alone
        assert shift.tobytes() == want_shift.tobytes()
        assert upload == want_upload
        got, want = shared[1], alone_states[1]
        assert got.model.flat.tobytes() == want.model.flat.tobytes()
        assert got.adam.first_moment.tobytes() == want.adam.first_moment.tobytes()
        assert got.adam.second_moment.tobytes() == want.adam.second_moment.tobytes()
        assert got.adam.step_count == want.adam.step_count == 1


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
                    dataset=dataset,
                    config=ClientConfig(learning_rate=1e-2, batch_size=8, low_layers=1),
                    seed=11,
                    adam=AdamState(np.zeros(model.flat.size), np.zeros(model.flat.size)),
                    workspace=step_workspace(model.flat.size),
                )
            )
        # Identical shuffle streams as well: both clients must act as clones.
        states[1].client_id = 0
        for round_index in range(1, 4):
            lows = np.stack([s.model.low(1) for s in states])[:, None]
            mean = fedavg_aggregate(lows, [20, 20])[0, 0]
            shared = serialize_params(mean, states[0].model.manifest(1))
            for state in states:
                install_low_adapters(state, shared)
                local_train_round(state, round_index)
            assert states[0].model.flat.tobytes() == states[1].model.flat.tobytes()


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
        assert isinstance(items[1].error, ConfigError) and "bogus" in str(items[1].error)
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["items"][0]["error"] is None
        assert summary["items"][1]["ok"] is False
        assert summary["items"][1]["error"] == f"ConfigError: {items[1].error}"

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


def set_line(line_no, edit):
    """A text edit that rewrites one line (1-based) with edit(line)."""

    def apply(text):
        lines = text.split("\n")
        lines[line_no - 1] = edit(lines[line_no - 1])
        return "\n".join(lines)

    return apply


class TestDamagedStore:
    @pytest.mark.parametrize(
        "name, edit, where, why",
        [
            ("rounds.jsonl", lambda text: text + text[:40], "line 3", "Expecting"),
            ("rounds.jsonl", lambda text: text + "[1, 2]\n", "line 3", "list indices"),
            ("rounds.jsonl", set_line(2, lambda s: s.replace('"w":', '"v":')), "line 2", "'w'"),
            ("ledger.csv", set_line(4, lambda s: s[: s.rindex(",")] + ",zero"), "line 4", "'zero'"),
            ("ledger.csv", set_line(1, lambda s: s.replace("client_id", "id")), "line 2", "_id'"),
            ("summary.json", set_line(3, lambda s: s.replace(":", "")), "line 3", "':'"),
            ("manifest.json", lambda text: "{\n" + text, "line 2", "Expecting"),
        ],
    )
    def test_load_names_the_file_and_line(self, small_config_text, tmp_path, name, edit, where, why):
        text = small_config_text.replace("rounds = 3", "rounds = 2")
        run_experiment(parse_config_text(text), tmp_path)
        path = tmp_path / name
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        with pytest.raises(DecodeError, match=why) as info:
            ResultsStore.load(tmp_path)
        assert str(info.value).startswith(f"{path}: {where}: ")


class TestDamagedStoreExport:
    """A store that parses but holds the wrong values is a DecodeError naming the file: exit 2."""

    @pytest.mark.parametrize(
        "name, edit, why",
        [
            (
                "rounds.jsonl",
                lambda b: re.sub(rb'"test_iou": \[[^\]]*\]', b'"test_iou": 5', b, count=1),
                r": line 1: test_iou: expected list\[float\], got 5$",
            ),
            (
                "summary.json",
                lambda b: re.sub(rb'\n  "num_clients": \d+,', b"", b),
                r": missing field 'num_clients'$",
            ),
            ("rounds.jsonl", lambda b: b + b"\xff", r": 'utf-8' codec can't decode byte 0xff"),
            ("rounds.jsonl", lambda b: b"", r": no round records$"),
            (
                "rounds.jsonl",
                lambda b: re.sub(rb'"train_loss": \[[^,]*, ', b'"train_loss": [', b, count=1),
                r": line 1: per-client values must have num_clients = 4 entries$",
            ),
            (
                "rounds.jsonl",
                lambda b: re.sub(rb'"w": \[\[[^,]*, ', b'"w": [[', b, count=1),
                r": line 1: per-client values must have num_clients = 4 entries$",
            ),
            (
                "summary.json",
                lambda b: re.sub(rb'"final_mean_iou": [^,]*,', b'"final_mean_iou": true,', b),
                r": final_mean_iou: expected float, got True$",
            ),
            (
                "summary.json",
                lambda b: re.sub(rb'"num_clients": \d+', b'"num_clients": 3', b),
                r": per-client values must have num_clients = 3 entries$",
            ),
            (
                "ledger.csv",
                lambda b: b.replace(b"broadcast", b"sideways", 1),
                r": line 2: direction 'sideways' is not a message kind$",
            ),
            (
                "ledger.csv",
                lambda b: re.sub(rb"^(1,broadcast,0,)\d+$", rb"\g<1>-5", b, count=1, flags=re.M),
                r": line 2: scalar_count -5 is negative$",
            ),
            (
                "ledger.csv",
                lambda b: b[: b.rindex(b"\n", 0, -1) + 1],
                r": scalar counts sum to 7680, not comm_total 8192$",
            ),
            (
                "rounds.jsonl",
                lambda b: b[b.index(b"\n") + 1 :],
                r": line 1: round 2 where round 1 belongs$",
            ),
            (
                "rounds.jsonl",
                lambda b: b[: b.rindex(b"\n", 0, -1) + 1],
                r"rounds.jsonl: 1 round records, not 2$",
            ),
            ("rounds.jsonl", lambda b: b"\n" + b, r": line 1: Expecting value$"),
            (
                "rounds.jsonl",
                lambda b: b + b.splitlines(keepends=True)[-1],
                r": line 3: round 2 where round 3 belongs$",
            ),
            (
                "rounds.jsonl",
                lambda b: b + b.splitlines(keepends=True)[-1].replace(b'"round": 2', b'"round": 3'),
                r"rounds.jsonl: 3 round records, not 2$",
            ),
            (
                "ledger.csv",
                lambda b: re.sub(rb"^1,broadcast,0,", b"99,broadcast,0,", b, count=1, flags=re.M),
                r": line 2: round 99 is not in 1..2$",
            ),
            (
                "ledger.csv",
                lambda b: re.sub(rb"^1,broadcast,0,", b"1,broadcast,99,", b, count=1, flags=re.M),
                r": line 2: client_id 99 is not in 0..3$",
            ),
        ],
        ids=[
            "int-for-a-list",
            "summary-without-num_clients",
            "not-utf8",
            "no-rounds",
            "short-train-loss",
            "short-w-row",
            "bool-for-a-float",
            "num_clients-off-by-one",
            "unknown-direction",
            "negative-count",
            "ledger-total-off-summary",
            "first-round-missing",
            "last-round-missing",
            "blank-line",
            "repeated-round",
            "extra-round",
            "ledger-round-out-of-range",
            "ledger-client-out-of-range",
        ],
    )
    def test_load_raises_decode_error_and_export_exits_2(
        self, small_config_text, tmp_path, capsys, name, edit, why
    ):
        run_experiment(parse_config_text(small_config_text.replace("rounds = 3", "rounds = 2")), tmp_path)
        path = tmp_path / name
        damaged = edit(path.read_bytes())
        assert damaged != path.read_bytes()
        path.write_bytes(damaged)
        with pytest.raises(DecodeError, match=why) as info:
            ResultsStore.load(tmp_path)
        assert str(info.value).startswith(f"{path}: ")
        assert cli.main(["export", "--run", str(tmp_path), "--format", "csv"]) == cli.EXIT_VALIDATION
        assert str(path) in capsys.readouterr().err

    def test_an_integer_where_a_float_is_stored_loads(self, small_config_text, tmp_path):
        run_experiment(parse_config_text(small_config_text.replace("rounds = 3", "rounds = 2")), tmp_path)
        path = tmp_path / "rounds.jsonl"
        text = re.sub(r'"mean_iou": [^,]*,', '"mean_iou": 1,', path.read_text(), count=1)
        path.write_text(text)
        assert ResultsStore.load(tmp_path).records[0].mean_iou == 1


class TestConfigParsing:
    @pytest.mark.parametrize(
        "old, new",
        [
            ("alpha = 1.0", "alpha = 1.0\nalphaa = 2"),
            # run.workers selected a thread pool that no longer exists.
            ("aggregator = sgca", "aggregator = sgca\nworkers = 1"),
            # sgca.m_mode had one legal value, the row-constant size prior.
            ("metric = l2_based", "metric = l2_based\nm_mode = row_constant_mi"),
        ],
        ids=["misspelled", "workers", "m_mode"],
    )
    def test_unknown_key_is_an_error(self, small_config_text, old, new):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(small_config_text.replace(old, new))

    def test_unknown_section_is_an_error(self, small_config_text):
        # configparser would merge a [DEFAULT] section into every other section.
        for extra in ("\n[extras]\nx = 1\n", "\n[DEFAULT]\nrounds = 5\n"):
            with pytest.raises(ConfigError, match="unknown section"):
                parse_config_text(small_config_text + extra)

    def test_feature_dim_must_match_mask_area(self, small_config_text):
        with pytest.raises(ConfigError, match="feature_dim"):
            parse_config_text(small_config_text.replace("feature_dim = 64", "feature_dim = 32"))

    def test_negative_beta_is_an_error(self, small_config_text):
        # The config is where beta is checked; the loss kernels take it as given.
        with pytest.raises(ConfigError, match="beta must be >= 0"):
            parse_config_text(small_config_text.replace("beta = 0.01", "beta = -0.01"))

    @pytest.mark.parametrize("spelling", ["01", "+1", " 1"])
    def test_repeated_cluster_id_is_an_error(self, small_config_text, spelling):
        text = small_config_text + f"\n[cluster.{spelling}]\ngain = 2.0\n"
        with pytest.raises(ConfigError, match=rf"^\[cluster.1\] and \[cluster.{spelling}\] both"):
            parse_config_text(text)

    def test_missing_cluster_section_is_an_error(self, small_config_text):
        with pytest.raises(ConfigError, match="cluster 2"):
            parse_config_text(small_config_text.replace("clusters = 0, 0, 1, 1", "clusters = 0, 0, 1, 2"))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize(
        "section, key, template",
        [
            ("client", "learning_rate", "{}"),
            ("client", "beta", "{}"),
            ("sgca", "alpha", "{}"),
            ("cluster.0", "gain", "{}"),
            ("cluster.0", "noise", "{}"),
            ("cluster.0", "radius", "{}, 1"),
            ("cluster.0", "offset", "{}, 1"),
        ],
        ids=["learning_rate", "beta", "alpha", "gain", "noise", "radius", "offset"],
    )
    def test_non_finite_float_is_a_config_error(
        self, small_config_text, section, key, template, bad
    ):
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        parser.read_string(small_config_text)
        parser[section][key] = template.format(bad)
        text = io.StringIO()
        parser.write(text)
        named = rf"^\[{re.escape(section)}\] {key}: '{re.escape(bad)}' is not a finite number"
        with pytest.raises(ConfigError, match=named):
            parse_config_text(text.getvalue())

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
