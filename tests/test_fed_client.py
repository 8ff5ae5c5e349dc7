import numpy as np
import pytest

import fedsim.orchestrator as orchestrator
from fedsim.adapter_net import (
    AdamState,
    adam_step,
    build_model,
    model_forward,
    objective_and_grad,
    reg_loss,
    sigmoid,
)
from fedsim.datagen import ClusterParams, FederationSpec, generate_client_dataset
from fedsim.errors import InvalidArgumentError, InvalidStateError, ProtocolError
from fedsim.fed_client import (
    ClientConfig,
    ClientState,
    evaluate,
    install_low_adapters,
    iou_dice,
    local_train_round,
    measure_param_shift,
)
from fedsim.numerics import FlatParams, RngStream, derive_stream_id
from fedsim.orchestrator import _client_round
from fedsim.transport import deserialize_params, serialize_params


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
        adam=AdamState.for_params(model.adapter_params()),
        dataset=dataset,
        config=config,
        seed=seed,
    )


class TestInstall:
    def test_reinstalling_current_params_is_idempotent(self):
        state = make_state()
        current = state.model.adapter_params()
        received = state.model.adapter_params([1])
        install_low_adapters(state, received)
        assert state.model.adapter_params().equals(current)
        assert state.theta_ref.equals(received)

    def test_higher_layers_untouched_by_install(self):
        state = make_state(low_layers=2)
        high_before = state.model.adapter_params([3, 4, 5, 6])
        received = state.model.adapter_params([1, 2]).with_values(
            RngStream(1, 1).draw_gaussian(2 * state.model.layer_size)
        )
        install_low_adapters(state, received)
        assert state.model.adapter_params([3, 4, 5, 6]).equals(high_before)

    def test_reg_loss_is_minus_one_right_after_install(self):
        state = make_state()
        install_low_adapters(state, state.model.adapter_params([1]))
        value = reg_loss(state.model.adapter_params([1]), state.theta_ref)
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_manifest_mismatch_is_a_protocol_error(self):
        state = make_state(low_layers=1)
        wrong = state.model.adapter_params([1, 2])
        with pytest.raises(ProtocolError):
            install_low_adapters(state, wrong)


class TestLocalTraining:
    def test_loss_drops_between_round_one_and_round_twenty(self):
        # Single bright blob, no regularizer: the task is comfortably learnable.
        state = make_state(beta=0.0, gain=1.5, noise=0.03, n=64)
        install_low_adapters(state, state.model.adapter_params([1]))
        first = local_train_round(state, 1)
        last = None
        for round_index in range(2, 21):
            last = local_train_round(state, round_index)
        assert last.train_loss < first.train_loss

    def test_frozen_blocks_unchanged_by_training(self):
        state = make_state()
        digest = state.model.frozen_digest()
        install_low_adapters(state, state.model.adapter_params([1]))
        local_train_round(state, 1)
        assert state.model.frozen_digest() == digest

    def test_identical_clients_produce_identical_updates(self):
        def run():
            state = make_state(seed=3)
            install_low_adapters(state, state.model.adapter_params([1]))
            return local_train_round(state, 1)

        a, b = run(), run()
        assert a.low_params.equals(b.low_params)
        assert (a.train_loss, a.test_iou, a.test_dice) == (b.train_loss, b.test_iou, b.test_dice)

    def test_upload_covers_exactly_the_low_layers(self):
        for low_layers in range(1, 7):
            state = make_state(low_layers=low_layers, n=20)
            install_low_adapters(
                state, state.model.adapter_params(list(range(1, low_layers + 1)))
            )
            update = local_train_round(state, 1)
            assert update.low_params.layer_indices == tuple(range(1, low_layers + 1))
            assert update.n_i == state.dataset.n_i

    def test_theta_ref_snapshot_survives_training(self):
        state = make_state()
        received = state.model.adapter_params([1])
        install_low_adapters(state, received)
        snapshot = state.theta_ref.values.tobytes()
        local_train_round(state, 1)
        assert state.theta_ref.values.tobytes() == snapshot
        # and training actually moved the live layer away from the snapshot
        assert not state.model.adapter_params([1]).equals(state.theta_ref)

    def test_empty_train_set_is_invalid_state(self):
        state = make_state(n=10)
        state._train_images = np.zeros((0, 0))
        with pytest.raises(InvalidStateError):
            local_train_round(state, 1)


def reference_round(state, round_index):
    """The per-step loop local_train_round replaced; returns its mean train loss.

    Every step goes through the public, validated API: objective_and_grad,
    a FlatParams copy of the adapters, adam_step, and an install.
    """
    cfg = state.config
    images, masks = state._train_images, state._train_masks
    n = images.shape[0]
    shuffle = RngStream(state.seed, derive_stream_id("shuffle", state.client_id, round_index))
    losses = []
    for _ in range(cfg.local_epochs):
        order = shuffle.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = objective_and_grad(
                images[idx], masks[idx], state.model, state.theta_ref, cfg.beta
            )
            params = state.model.adapter_params()
            new_params, state.adam = adam_step(params, grads, state.adam, cfg.learning_rate)
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
        if low_layers is not None:
            for state in states:
                install_low_adapters(
                    state, state.model.adapter_params(list(range(1, low_layers + 1)))
                )
        fast, slow = states
        assert (fast.theta_ref is None) == (low_layers is None)
        for round_index in range(1, 4):
            update = local_train_round(fast, round_index)
            assert update.train_loss == reference_round(slow, round_index)
            assert fast.model.flat.tobytes() == slow.model.flat.tobytes()
            assert fast.adam.first_moment.tobytes() == slow.adam.first_moment.tobytes()
            assert fast.adam.second_moment.tobytes() == slow.adam.second_moment.tobytes()
            assert fast.adam.step_count == slow.adam.step_count == 4 * round_index
        assert update.low_params.equals(slow.model.adapter_params(update.low_params.layer_indices))


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
        pred = sigmoid(model_forward(state._test_images, state.model)) > 0.5
        rows = [row_iou_dice(p, t.astype(bool)) for p, t in zip(pred, state._test_masks)]
        assert evaluate(state) == (
            float(np.mean([iou for iou, _ in rows])),
            float(np.mean([dice for _, dice in rows])),
        )

    def test_empty_test_set_is_invalid_state(self):
        state = make_state(n=10)
        state._test_images = np.zeros((0, 0))
        with pytest.raises(InvalidStateError):
            evaluate(state)


class TestParamShift:
    def _params(self, layers):
        return FlatParams.from_layers(layers)

    def test_no_change_means_zero_shift(self):
        p = self._params([(1, np.array([1.0, 2.0])), (2, np.array([3.0, 4.0]))])
        assert np.array_equal(measure_param_shift(p, p), np.zeros(2))

    def test_ten_percent_scaling_is_point_one(self):
        before = self._params([(1, np.array([1.0, 2.0])), (2, np.array([3.0, 4.0]))])
        after = self._params([(1, np.array([1.0, 2.0]) * 1.1), (2, np.array([3.0, 4.0]))])
        shift = measure_param_shift(before, after)
        assert abs(shift[0] - 0.1) < 1e-12
        assert shift[1] == 0.0

    def test_zero_over_zero_is_zero(self):
        before = self._params([(1, np.zeros(3))])
        assert measure_param_shift(before, before)[0] == 0.0

    def test_low_layer_shifts_less_than_top_layer(self):
        # Fixed fixture: 10 local epochs with the transmitted layer regularized.
        state = make_state(seed=0, lr=1e-2, beta=0.1, epochs=10, n=100)
        install_low_adapters(state, state.model.adapter_params([1]))
        before = state.model.adapter_params()
        local_train_round(state, 1)
        shift = measure_param_shift(before, state.model.adapter_params())
        assert shift[0] < shift[-1]

    def test_manifest_mismatch_raises(self):
        a = self._params([(1, np.ones(2))])
        b = self._params([(2, np.ones(2))])
        with pytest.raises(InvalidArgumentError):
            measure_param_shift(a, b)

    def test_flat_vectors_must_match_the_manifest(self):
        with pytest.raises(InvalidArgumentError):
            measure_param_shift(np.ones(3), np.ones(3), ((1, 2),))
        with pytest.raises(InvalidArgumentError):
            measure_param_shift(np.ones(4), np.ones(3), ((1, 2), (2, 2)))

    def test_round_shift_is_bitwise_the_flatparams_computation(self):
        # The round loop measures the shift on a plain copy of model.flat;
        # the reference takes it from two validated FlatParams snapshots.
        def flatparams_shift(before, after):
            shifts = []
            for (_, b_vals), (_, a_vals) in zip(before.split(), after.split()):
                base = float(np.linalg.norm(b_vals))
                delta = float(np.linalg.norm(a_vals - b_vals))
                shifts.append(delta / base if base else (0.0 if delta == 0.0 else float("inf")))
            return np.array(shifts)

        ref_state, state = make_state(beta=0.1, low_layers=2), make_state(beta=0.1, low_layers=2)
        broadcast = serialize_params(state.model.adapter_params([1, 2]))
        install_low_adapters(ref_state, deserialize_params(broadcast))
        before = ref_state.model.adapter_params()
        ref_update = local_train_round(ref_state, 1)
        expected = flatparams_shift(before, ref_state.model.adapter_params())

        update, shift = _client_round(state, broadcast, 1)
        assert shift.tobytes() == expected.tobytes()
        assert update.low_params.equals(ref_update.low_params)
        assert np.array_equal(state.model.flat, ref_state.model.flat)

    def test_round_releases_the_reference_once_training_is_done(self, monkeypatch):
        state = make_state(beta=0.1, low_layers=2)
        seen = []

        def spy(state, round_index):
            seen.append(state.theta_ref)
            return local_train_round(state, round_index)

        monkeypatch.setattr(orchestrator, "local_train_round", spy)
        _client_round(state, serialize_params(state.model.adapter_params([1, 2])), 1)
        assert seen[0] is not None and seen[0].layer_indices == (1, 2)
        assert state.theta_ref is None
