import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fedsim.fed_client as fed_client
from fedsim.adapter_net import (
    AdamState,
    ToyFM,
    adam_step,
    block1_features,
    build_model,
    model_forward,
    objective_and_grad,
    sigmoid,
)
from fedsim.config import parse_config_text
from fedsim.datagen import (
    ClientDataset,
    ClusterParams,
    FederationSpec,
    generate_client_dataset,
    generate_federation,
)
from fedsim.errors import (
    DecodeError,
    InvalidArgumentError,
    InvalidStateError,
    NumericError,
    ProtocolError,
)
from fedsim.fed_client import (
    ClientConfig,
    ClientState,
    evaluate,
    install_low_adapters,
    iou_dice,
    local_train_round,
    measure_param_shift,
    step_workspace,
)
from fedsim.numerics import FlatParams, RngStream, derive_stream_id
from fedsim.orchestrator import _init_states
from fedsim.transport import deserialize_params, serialize_params
from reference_round import client_scores

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Traced peak of one evaluate of configs/default.ini's four clients (68 test rows).
# The bound sits below the 1,892 KB that keeping every layer's backprop cache takes,
# which evaluation never reads.
EVALUATE_PEAK_KB = 1108


def make_state(seed=0, num_blocks=6, low_layers=1, lr=1e-2, beta=0.01, epochs=1, n=50,
               gain=1.5, noise=0.05):
    spec = FederationSpec(
        client_sizes=(n, n),
        cluster_of=(0, 0),
        clusters={0: ClusterParams(gain=gain, noise=noise, radius=(2.0, 3.5), blob_count=(1, 2))},
        mask_side=16,
        seed=seed,
    )
    dataset = generate_client_dataset(spec, 0)
    model = build_model(
        256,
        16,
        num_blocks,
        RngStream(seed, derive_stream_id("backbone")),
        RngStream(seed, derive_stream_id("adapter", 0)),
    )
    config = ClientConfig(
        learning_rate=lr, batch_size=32, local_epochs=epochs, beta=beta, low_layers=low_layers
    )
    return ClientState(
        client_id=0,
        model=model,
        dataset=dataset,
        config=config,
        seed=seed,
        adam=AdamState(np.zeros(model.flat.size), np.zeros(model.flat.size)),
        workspace=step_workspace(model.flat.size),
    )


def broadcast(state, values=None, num_layers=None):
    """Wire bytes of `values` (default: the model's own) as layers 1..L, or 1..num_layers."""
    n = state.config.low_layers if num_layers is None else num_layers
    if values is None:
        values = state.model.low(n)
    return serialize_params(values, state.model.manifest(n))


def client_round(state, payload, round_index):
    """The round loop's three calls for one client: install, train, serialize the upload."""
    install_low_adapters(state, payload)
    update = local_train_round(state, round_index)
    low = state.config.low_layers
    return update, serialize_params(state.model.low(low), state.model.manifest(low))


def report(update):
    """A ClientUpdate's fields, its layer shift as bytes, so reports compare with ==."""
    return update.train_loss, update.layer_shift.tobytes()


class TestInstall:
    def test_reinstalling_current_params_is_idempotent(self):
        state = make_state()
        current = state.model.flat.copy()
        install_low_adapters(state, broadcast(state))
        assert np.array_equal(state.model.flat, current)

    def test_higher_layers_untouched_by_install(self):
        state = make_state(low_layers=2)
        high = slice(2 * state.model.layer_size, None)
        high_before = state.model.flat[high].copy()
        received = RngStream(1, 1).draw_gaussian(2 * state.model.layer_size)
        install_low_adapters(state, broadcast(state, received))
        assert np.array_equal(state.model.flat[high], high_before)
        assert state.model.low(2).tobytes() == received.tobytes()

    def test_reg_loss_is_minus_one_right_after_install(self):
        state = make_state()
        received = 0.1 * RngStream(1, 2).draw_gaussian(state.model.layer_size)
        install_low_adapters(state, broadcast(state, received))
        a, b = state.model.low(1), received
        value = -(float(np.dot(a, b)) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b))))
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_manifest_mismatch_is_a_protocol_error(self):
        state = make_state(low_layers=1)
        with pytest.raises(ProtocolError):
            install_low_adapters(state, broadcast(state, num_layers=2))


class TestBadBroadcast:
    """A rejected broadcast leaves model.flat bit for bit as it was."""

    def _bad_payloads(self, state):
        size = state.model.layer_size
        values = RngStream(2, 2).draw_gaussian(size)
        non_finite = []
        for bad in (np.nan, np.inf, -np.inf):
            poisoned = values.copy()
            poisoned[-1] = bad
            non_finite.append((DecodeError, broadcast(state, poisoned)))
        return [
            (ProtocolError, broadcast(state, num_layers=2)),
            (ProtocolError, serialize_params(values, ((2, size),))),
            (ProtocolError, serialize_params(values[:-1], ((1, size - 1),))),
            *non_finite,
            (DecodeError, broadcast(state, values)[:-1]),
            (DecodeError, broadcast(state, values)[:10]),
            (DecodeError, b"XSCA" + broadcast(state, values)[4:]),
        ]

    def test_rejected_broadcast_changes_nothing(self):
        state = make_state()
        install_low_adapters(state, broadcast(state))
        local_train_round(state, 1)  # model.flat now differs from the broadcast
        flat = state.model.flat.tobytes()
        for error, payload in self._bad_payloads(state):
            with pytest.raises(error):
                install_low_adapters(state, payload)
            assert state.model.flat.tobytes() == flat

    def test_rejected_first_broadcast_leaves_the_drawn_adapters(self):
        state = make_state()
        flat = state.model.flat.tobytes()
        for error, payload in self._bad_payloads(state):
            with pytest.raises(error):
                install_low_adapters(state, payload)
            assert state.model.flat.tobytes() == flat


def half_first_pixel(rows):
    rows[0, 1, 0] = 0.5
    return rows


class TestChecksAtEntry:
    """Inputs the training step no longer checks are rejected where they enter."""

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize(
        "edit, why",
        [
            (half_first_pixel, "masks must hold only 0s and 1s"),
            (lambda rows: rows[:, :, :-1], r"must be a float64 \(n, 2, 256\) array"),
        ],
        ids=["half-mask", "narrow-split"],
    )
    def test_client_state_rejects_bad_splits(self, split, edit, why):
        state = make_state(n=10)
        flat = state.model.flat.tobytes()
        splits = {"train": state.dataset.train, "test": state.dataset.test}
        splits[split] = edit(splits[split].copy())
        with pytest.raises(InvalidArgumentError, match=f"^client 0: {split} .*{why}"):
            replace(state, dataset=ClientDataset(**splits))
        assert state.model.flat.tobytes() == flat

    @pytest.mark.parametrize(
        "convert",
        [
            lambda rows: rows.astype(bool),
            lambda rows: rows.astype(np.float32),
            lambda rows: rows[:, 0],
            list,
        ],
        ids=["bool", "float32", "images-only", "list"],
    )
    def test_client_state_rejects_a_split_of_another_form(self, convert):
        state = make_state(n=10)
        dataset = ClientDataset(convert(state.dataset.train), state.dataset.test)
        with pytest.raises(
            InvalidArgumentError, match=r"^client 0: train must be a float64 \(n, 2, 256\) array$"
        ):
            replace(state, dataset=dataset)

    @pytest.mark.parametrize(
        "name, make, why",
        [
            ("adam", lambda n: AdamState(np.zeros(n - 1), np.zeros(n)), "Adam moments"),
            ("adam", lambda n: AdamState(np.zeros(n), np.zeros(n, np.float32)), "Adam moments"),
            ("workspace", lambda n: np.empty((2, n)), "workspace"),
        ],
        ids=["short-moment", "float32-moment", "two-row-workspace"],
    )
    def test_client_state_rejects_optimizer_buffers_that_do_not_fit(self, name, make, why):
        state = make_state(n=10)
        with pytest.raises(InvalidArgumentError, match=why):
            replace(state, **{name: make(state.model.flat.size)})

    def _assert_round_rejected(self, state, error, match):
        flat = state.model.flat.tobytes()
        moments = state.adam.first_moment.tobytes(), state.adam.second_moment.tobytes()
        with pytest.raises(error, match=match):
            local_train_round(state, 1)
        assert state.model.flat.tobytes() == flat
        assert (state.adam.first_moment.tobytes(), state.adam.second_moment.tobytes()) == moments
        assert state.adam.step_count == 0

    def test_regularized_round_rejects_an_all_zero_broadcast(self):
        state = make_state(beta=0.01, n=10)
        install_low_adapters(state, broadcast(state, np.zeros(state.model.layer_size)))
        self._assert_round_rejected(state, InvalidArgumentError, "^client 0: the broadcast is all")

    def test_unregularized_round_accepts_an_all_zero_broadcast(self):
        # With beta = 0 the reference is not used, so a zero one is no fault.
        trained = []
        for install in (install_low_adapters, lambda state, payload: None):
            state = make_state(beta=0.0, n=10)
            state.model.low(1)[...] = 0.0
            install(state, broadcast(state))
            update = local_train_round(state, 1)
            trained.append((report(update), state.model.flat.tobytes()))
        assert trained[0] == trained[1]
        assert np.isfinite(trained[0][0][0])


class TestLocalTraining:
    def test_loss_drops_between_round_one_and_round_twenty(self):
        # Single bright blob, no regularizer: the task is comfortably learnable.
        state = make_state(beta=0.0, gain=1.5, noise=0.03, n=64)
        install_low_adapters(state, broadcast(state))
        first = local_train_round(state, 1)
        last = None
        for round_index in range(2, 21):
            last = local_train_round(state, round_index)
        assert last.train_loss < first.train_loss

    def test_frozen_blocks_unchanged_by_training(self, frozen_digest):
        state = make_state()
        digest = frozen_digest(state.model)
        install_low_adapters(state, broadcast(state))
        local_train_round(state, 1)
        assert frozen_digest(state.model) == digest

    def test_identical_clients_produce_identical_updates(self):
        def run():
            state = make_state(seed=3)
            install_low_adapters(state, broadcast(state))
            return state, local_train_round(state, 1)

        (sa, a), (sb, b) = run(), run()
        low_a, low_b = (s.model.low(s.config.low_layers) for s in (sa, sb))
        assert low_a.tobytes() == low_b.tobytes()
        assert a.train_loss == b.train_loss
        assert evaluate([sa]) == evaluate([sb])

    def test_upload_covers_exactly_the_low_layers(self):
        for low_layers in range(1, 7):
            state = make_state(low_layers=low_layers, n=20)
            _, upload = client_round(state, broadcast(state), 1)
            size = low_layers * state.model.layer_size
            manifest = state.model.manifest(low_layers)
            got = deserialize_params(upload, manifest=manifest, out=np.empty(size))
            assert got.tobytes() == state.model.low(low_layers).tobytes()

    def test_reference_snapshot_survives_training(self):
        # Workspace row 2 holds the round-start copy of model.flat: the broadcast in layer 1.
        state = make_state()
        received = state.model.low(1) + 0.01 * RngStream(4, 4).draw_gaussian(state.model.layer_size)
        install_low_adapters(state, broadcast(state, received))
        start = state.model.flat.copy()
        local_train_round(state, 1)
        snapshot = state.workspace[2]
        assert snapshot.tobytes() == start.tobytes()
        assert snapshot[: state.model.layer_size].tobytes() == received.tobytes()
        assert not np.shares_memory(snapshot, state.model.flat)
        # and training actually moved the live layer away from the snapshot
        assert not np.array_equal(state.model.low(1), received)

    def test_empty_train_set_is_invalid_state(self):
        state = make_state(n=10)
        with pytest.raises(InvalidStateError, match="client 0 has an empty train set"):
            replace(state, dataset=ClientDataset(state.dataset.train[:0], state.dataset.test))

    def test_divergence_names_the_first_non_finite_layer(self, monkeypatch):
        state = make_state(num_blocks=3, n=10, beta=0.0)
        size = state.model.layer_size
        real = fed_client.objective_and_grad

        def poisoned(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            # Adam turns an infinite gradient entry into a NaN parameter there, and only there.
            grads[[size + 5, 2 * size]] = np.inf
            return loss, grads

        monkeypatch.setattr(fed_client, "objective_and_grad", poisoned)
        with np.errstate(invalid="ignore"), pytest.raises(
            NumericError,
            match=r"^client 0: parameter update diverged at optimizer step 1, "
            r"first in adapter layer 2$",
        ):
            local_train_round(state, 1)
        assert np.all(np.isfinite(state.model.low(1)))


def reference_round(state, round_index, theta_ref):
    """The per-step loop local_train_round replaced; returns its mean train loss.

    Every step goes through the public, validated API: objective_and_grad
    on the batch's block-1 features into fresh buffers, with theta_ref, the
    round's broadcast, as the reference, a FlatParams copy of the adapters,
    adam_step, and an install.
    """
    cfg = state.config
    images, masks = state.dataset.train[:, 0], state.dataset.train[:, 1]
    n = images.shape[0]
    shuffle = RngStream(state.seed, derive_stream_id("shuffle", state.client_id, round_index))
    losses = []
    for _ in range(cfg.local_epochs):
        order = shuffle.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            first = block1_features(images[idx], state.model)
            grads, scratch = np.empty((2, state.model.flat.size))
            loss, _ = objective_and_grad(
                first, masks[idx], state.model, theta_ref, cfg.beta, grads, scratch
            )
            params = state.model.adapter_params()
            new_params, state.adam = adam_step(
                params, FlatParams(grads, params.manifest), state.adam, cfg.learning_rate
            )
            state.model.install_adapter_params(new_params)
            losses.append(loss)
    return float(np.mean(losses))


class TestReferenceEquivalence:
    @pytest.mark.parametrize(
        "beta, low_layers",
        [(0.05, 1), (0.05, 2), (0.0, None)],
        ids=["beta-L1", "beta-L2", "no-reference"],
    )
    def test_three_rounds_match_the_per_step_loop_bitwise(self, beta, low_layers):
        states = [
            make_state(seed=5, num_blocks=3, low_layers=low_layers or 1, beta=beta, epochs=2, n=50)
            for _ in range(2)
        ]
        fast, slow = states
        for round_index in range(1, 4):
            theta_ref = None
            if low_layers is not None:
                # Each round's broadcast: the current layers 1..L, nudged.
                noise = RngStream(9, round_index).draw_gaussian(low_layers * fast.model.layer_size)
                theta_ref = fast.model.low(low_layers) + 0.01 * noise
                for state in states:
                    install_low_adapters(state, broadcast(state, theta_ref))
            update = local_train_round(fast, round_index)
            assert update.train_loss == reference_round(slow, round_index, theta_ref)
            assert fast.model.flat.tobytes() == slow.model.flat.tobytes()
            assert fast.adam.first_moment.tobytes() == slow.adam.first_moment.tobytes()
            assert fast.adam.second_moment.tobytes() == slow.adam.second_moment.tobytes()
            assert fast.adam.step_count == slow.adam.step_count == 4 * round_index
        low = fast.config.low_layers
        assert fast.model.low(low).tobytes() == slow.model.low(low).tobytes()


def row_iou_dice(pred, truth):
    """The per-pair float arithmetic evaluate used to loop over."""
    inter = float(np.sum(pred & truth))
    p_size = float(np.sum(pred))
    g_size = float(np.sum(truth))
    union = p_size + g_size - inter
    if union == 0.0:
        return 1.0, 1.0
    return inter / union, 2.0 * inter / (p_size + g_size)


class TestEvaluate:
    def test_perfect_prediction_scores_one(self):
        assert iou_dice(np.array([1, 0, 1]), np.array([1, 0, 1])) == (1.0, 1.0)

    def test_disjoint_masks_score_zero(self):
        assert iou_dice(np.array([1, 0, 0]), np.array([0, 1, 1])) == (0.0, 0.0)

    def test_partial_overlap_case(self):
        pred = np.array([1, 1, 0, 0, 0, 0])
        truth = np.array([1, 1, 1, 1, 0, 0])
        iou, dice = iou_dice(pred, truth)
        assert iou == pytest.approx(0.5)
        assert dice == pytest.approx(2.0 / 3.0)

    def test_both_empty_counts_as_perfect(self):
        assert iou_dice(np.zeros(4), np.zeros(4)) == (1.0, 1.0)

    def test_bounds_and_dice_dominates_iou(self):
        stream = RngStream(21, 0)
        for _ in range(200):
            pred = stream.draw_uniform(16) < 0.4
            truth = stream.draw_uniform(16) < 0.4
            iou, dice = iou_dice(pred, truth)
            assert 0.0 <= iou <= 1.0
            assert 0.0 <= dice <= 1.0
            assert dice >= iou

    def test_rows_match_the_per_pair_loop(self):
        stream = RngStream(23, 0)
        pred = stream.draw_uniform(40 * 16).reshape(40, 16) < 0.3
        truth = stream.draw_uniform(40 * 16).reshape(40, 16) < 0.3
        pred[:3] = False
        truth[:2] = False  # rows 0-1 both empty, row 2 empty prediction only
        pred[5] = truth[5]
        ious, dices = iou_dice(pred, truth)
        expected = [row_iou_dice(p, t) for p, t in zip(pred, truth)]
        assert ious.tolist() == [iou for iou, _ in expected]
        assert dices.tolist() == [dice for _, dice in expected]
        assert (ious[0], ious[2], ious[5]) == (1.0, 0.0, 1.0)

    def test_evaluate_means_the_per_row_scores(self):
        state = make_state(seed=2, num_blocks=2)
        # evaluate starts from the stored block-1 rows; model_forward from the images.
        images, masks = state.dataset.test[:, 0], state.dataset.test[:, 1]
        pred = sigmoid(model_forward(images, state.model)) > 0.5
        rows = [row_iou_dice(p, t.astype(bool)) for p, t in zip(pred, masks)]
        assert evaluate([state]) == (
            [float(np.mean([iou for iou, _ in rows]))],
            [float(np.mean([dice for _, dice in rows]))],
        )

    @staticmethod
    def _federation(sizes, seed=5):
        """Clients on one shared backbone, each with its own random adapters."""
        spec = FederationSpec(
            client_sizes=sizes,
            cluster_of=(0,) * len(sizes),
            clusters={0: ClusterParams(gain=1.5, noise=0.05, radius=(2.0, 3.5), blob_count=(1, 2))},
            mask_side=16,
            seed=seed,
        )
        backbone = build_model(
            256, 16, 6, RngStream(seed, derive_stream_id("backbone")), RngStream(seed, 0)
        )
        size = backbone.flat.size
        states = []
        for i in range(len(sizes)):
            flat = 0.05 * RngStream(seed, derive_stream_id("adapter", i)).draw_gaussian(size)
            model = ToyFM(backbone.blocks, backbone.head, 256, 16, flat)
            adam = AdamState(np.zeros(size), np.zeros(size))
            dataset = generate_client_dataset(spec, i)
            states.append(
                ClientState(i, model, dataset, ClientConfig(), seed, adam, step_workspace(size))
            )
        return states

    @pytest.mark.parametrize(
        "sizes, test_rows",
        [((100, 40, 80, 120), [20, 8, 16, 24]), ((10,) * 8, [2] * 8)],
        ids=["uneven", "two-row"],
    )
    def test_stacked_evaluation_is_each_client_scored_alone(self, sizes, test_rows):
        states = self._federation(sizes)
        assert [len(s.dataset.test) for s in states] == test_rows
        scores = [client_scores(s) for s in states]
        assert evaluate(states) == ([iou for iou, _ in scores], [dice for _, dice in scores])
        assert len(set(scores)) > 1

    def test_traced_peak_is_near_its_measured_allocation(self):
        cfg = parse_config_text((CONFIGS / "default.ini").read_text(encoding="utf-8"))
        _, states = _init_states(cfg, generate_federation(cfg.federation))
        assert sum(len(s.dataset.test) for s in states) == 68
        tracemalloc.start()
        try:
            evaluate(states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * EVALUATE_PEAK_KB * 1024

    def test_stacked_clients_must_share_the_frozen_backbone(self):
        # make_state builds each model's own backbone: equal values, other objects.
        with pytest.raises(InvalidArgumentError, match="one frozen backbone"):
            evaluate([make_state(n=10), make_state(n=10)])

    def test_empty_test_set_is_invalid_state(self):
        state = make_state(n=10)
        with pytest.raises(InvalidStateError, match="client 0 has an empty test set"):
            replace(state, dataset=ClientDataset(state.dataset.train, state.dataset.test[:0]))


class TestParamShift:
    TWO_LAYERS = ((1, 2), (2, 2))

    def test_no_change_means_zero_shift(self):
        p = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(measure_param_shift(p, p, self.TWO_LAYERS, np.empty(4)), np.zeros(2))

    def test_ten_percent_scaling_is_point_one(self):
        before = np.array([1.0, 2.0, 3.0, 4.0])
        after = np.array([1.1, 2.2, 3.0, 4.0])
        shift = measure_param_shift(before, after, self.TWO_LAYERS, np.empty(4))
        assert abs(shift[0] - 0.1) < 1e-12
        assert shift[1] == 0.0

    def test_zero_over_zero_is_zero(self):
        before = np.zeros(3)
        assert measure_param_shift(before, before, ((1, 3),), np.empty(3))[0] == 0.0

    def test_low_layer_shifts_less_than_top_layer(self):
        # Fixed fixture: 10 local epochs with the transmitted layer regularized.
        state = make_state(seed=0, lr=1e-2, beta=0.1, epochs=10, n=100)
        install_low_adapters(state, broadcast(state))
        shift = local_train_round(state, 1).layer_shift
        assert shift[0] < shift[-1]

    def test_flat_vectors_must_match_the_manifest(self):
        with pytest.raises(InvalidArgumentError):
            measure_param_shift(np.ones(3), np.ones(3), ((1, 2),), np.empty(3))
        with pytest.raises(InvalidArgumentError):
            measure_param_shift(np.ones(4), np.ones(3), ((1, 2), (2, 2)), np.empty(4))
        with pytest.raises(InvalidArgumentError):
            measure_param_shift(np.ones(4), np.ones(4), ((1, 2), (2, 2)), np.empty(3))

    def test_round_shift_is_bitwise_the_flatparams_computation(self):
        # local_train_round measures the shift on a plain copy of model.flat;
        # the reference takes it from two validated FlatParams snapshots.
        def flatparams_shift(before, after):
            shifts = []
            for (_, b_vals), (_, a_vals) in zip(before.split(), after.split()):
                base = float(np.linalg.norm(b_vals))
                delta = float(np.linalg.norm(a_vals - b_vals))
                shifts.append(delta / base if base else (0.0 if delta == 0.0 else float("inf")))
            return np.array(shifts)

        ref_state, state = make_state(beta=0.1, low_layers=2), make_state(beta=0.1, low_layers=2)
        payload = broadcast(state)
        install_low_adapters(ref_state, payload)
        before = ref_state.model.adapter_params()
        ref_update = local_train_round(ref_state, 1)
        expected = flatparams_shift(before, ref_state.model.adapter_params())

        update, upload = client_round(state, payload, 1)
        assert update.layer_shift.tobytes() == expected.tobytes()
        assert upload == broadcast(ref_state)
        assert report(update) == report(ref_update)
        assert np.array_equal(state.model.flat, ref_state.model.flat)
