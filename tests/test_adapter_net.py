import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fedsim import adapter_net
from fedsim.adapter_net import (
    PROB_CLAMP,
    AdamState,
    FrozenBlock,
    ToyFM,
    _bce,
    _cosine_parts,
    _neg_cosine,
    adam_step,
    adam_update,
    block1_features,
    build_model,
    model_forward,
    objective,
    objective_and_grad,
    sigmoid,
    stacked_forward,
)
from fedsim.datagen import split_train_test
from fedsim.errors import InvalidArgumentError
from fedsim.numerics import FlatParams, RngStream, derive_stream_id, finite_diff_grad
from fedsim.oracles import gradient_fixtures, gradient_rel_error

GOLDEN = Path(__file__).parent / "golden" / "adapter_net_golden.json"


def small_model(seed=0, feature_dim=8, bottleneck_dim=2, num_blocks=2):
    return build_model(
        feature_dim,
        bottleneck_dim,
        num_blocks,
        RngStream(seed, derive_stream_id("test", "frozen")),
        RngStream(seed, derive_stream_id("test", "adapters")),
    )


def golden_model():
    model = build_model(
        8,
        2,
        2,
        RngStream(0, derive_stream_id("golden", "frozen")),
        RngStream(0, derive_stream_id("golden", "adapters")),
    )
    model.flat[...] = 0.4 * RngStream(0, derive_stream_id("golden", "params")).draw_gaussian(
        model.flat.size
    )
    return model


def seg_loss(logits, y):
    """Reference segmentation loss: mean BCE of 0/1 masks, probabilities clamped to PROB_CLAMP."""
    p = np.clip(masked_sigmoid(logits), PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(np.mean(-y * np.log(p) - (1.0 - y) * np.log1p(-p)))


def layer_parts(a, b, layer_size=None):
    """Reference ||a||, ||b|| and a . b, each a sum of per-layer dot products in layer order."""
    pairs = zip(*(np.reshape(v, (-1, layer_size or len(a))) for v in (a, b)))
    sq_a = sq_b = dot = 0.0
    for x, y in pairs:
        sq_a, sq_b, dot = sq_a + float(x @ x), sq_b + float(y @ y), dot + float(x @ y)
    return float(np.sqrt(sq_a)), float(np.sqrt(sq_b)), dot


def neg_cosine(a, b, layer_size=None):
    """Reference regularizer: -cos(a, b) from two norms and a dot product (see layer_parts)."""
    na, nb, dot = layer_parts(a, b, layer_size)
    return -(dot / (na * nb))


def loss_and_grad(images, masks, model, theta_ref, beta):
    """objective_and_grad on a batch of images: their block-1 features, fresh out and scratch."""
    out, scratch = np.empty((2, model.flat.size))
    first = block1_features(images, model)
    return objective_and_grad(first, masks, model, theta_ref, beta, out, scratch)


def layer_grad(grads, model, k):
    """Layer k's slice of a gradient laid out like model.flat."""
    return grads[(k - 1) * model.layer_size : k * model.layer_size]


class TestAdapterForward:
    """The residual bottleneck up_proj @ relu(down_proj @ f) + f, seen through model_forward.

    Each model has identity frozen blocks with zero bias and an identity
    head, so only relu and the adapters act on the input.
    """

    @staticmethod
    def model(d, layers):
        eye = FrozenBlock(np.eye(d), np.zeros(d))
        flat = np.concatenate([np.ravel(m) for down, up in layers for m in (down, up)])
        return ToyFM([eye] * len(layers), eye, d, layers[0][0].shape[0], flat)

    def test_zero_up_projection_is_identity(self):
        f = np.array([1.0, 2.0, 0.5, 3.0, 0.1])
        model = self.model(5, [(np.ones((2, 5)), np.zeros((5, 2)))] * 2)
        assert np.array_equal(model_forward(f, model), f)

    def test_zero_input_gives_zero_output(self):
        model = self.model(5, [(np.ones((2, 5)), np.ones((5, 2)))] * 2)
        assert np.array_equal(model_forward(np.zeros(5), model), np.zeros(5))

    def test_hand_computed_case(self):
        down, up = np.array([[1.0, -1.0]]), np.array([[2.0], [0.0]])
        model = self.model(2, [(down, up), (down, np.zeros((2, 1)))])
        assert np.array_equal(model_forward(np.array([3.0, 1.0]), model), [7.0, 1.0])


def identity_adapters(num_blocks, feature_dim):
    """flat for bottleneck-1 adapters with all-ones down and zero up projections."""
    layer = np.concatenate([np.ones(feature_dim), np.zeros(feature_dim)])
    return np.tile(layer, num_blocks)


class TestModelForward:
    def test_identity_blocks_reduce_to_relu(self):
        # Identity frozen blocks, zero bias, zero up projections: logits == relu(x).
        eye = FrozenBlock(np.eye(4), np.zeros(4))
        model = ToyFM([eye, eye], eye, 4, 1, identity_adapters(2, 4))
        x = np.array([1.0, -2.0, 0.0, 3.0])
        assert np.array_equal(model_forward(x, model), np.maximum(x, 0.0))

    def test_forward_is_deterministic(self):
        model = small_model()
        x = RngStream(1, 1).draw_uniform(8)
        assert np.array_equal(model_forward(x, model), model_forward(x, model))

    def test_golden_logits_regression(self):
        model = golden_model()
        x = RngStream(0, derive_stream_id("golden", "data")).draw_uniform(8)
        golden = json.loads(GOLDEN.read_text())
        assert np.allclose(model_forward(x, model), golden["logits"], rtol=1e-10, atol=1e-12)

    def test_batch_forward_matches_per_sample(self):
        model = small_model()
        batch = RngStream(2, 2).draw_uniform(3 * 8).reshape(3, 8)
        stacked = model_forward(batch, model)
        for i in range(3):
            assert np.allclose(stacked[i], model_forward(batch[i], model), atol=1e-12)

    def test_is_block1_features_then_stacked_forward(self):
        # model_forward has no width check of its own: it starts from block1_features.
        model = small_model()
        batch = RngStream(2, 3).draw_uniform(3 * 8).reshape(3, 8)
        want = stacked_forward(block1_features(batch, model), [model], [3])
        assert model_forward(batch, model).tobytes() == want.tobytes()
        assert model_forward(batch[0], model).shape == (8,)


class TestFlatBuffer:
    def test_adapters_are_views_of_the_flat_buffer(self):
        model = small_model(num_blocks=3)
        down, up = model.adapters[1]
        span = slice(model.layer_size, 2 * model.layer_size)
        assert (down.shape, up.shape) == ((2, 8), (8, 2))
        assert np.shares_memory(down, model.flat)
        model.flat[span] = np.arange(model.layer_size, dtype=float)
        assert np.array_equal(down.ravel(), np.arange(16.0))
        up[...] = np.full((8, 2), 7.0)
        assert np.array_equal(model.flat[span][16:], np.full(16, 7.0))

    def test_low_is_a_view_of_the_flat_prefix(self):
        model = small_model(num_blocks=3)
        model.flat[:] = np.arange(model.flat.size, dtype=float)
        size = model.layer_size
        for n in (1, 2, 3):
            low = model.low(n)
            assert np.shares_memory(low, model.flat)
            assert np.array_equal(low, model.flat[: n * size])
            assert model.manifest(n) == tuple((k, size) for k in range(1, n + 1))
        assert model.manifest() == model.manifest(3)
        for bad in (0, 4):
            with pytest.raises(InvalidArgumentError):
                model.low(bad)
            with pytest.raises(InvalidArgumentError):
                model.manifest(bad)

    def test_constructor_keeps_a_contiguous_float64_flat_and_validates_it(self):
        eye = FrozenBlock(np.eye(4), np.zeros(4))
        flat = identity_adapters(2, 4)
        model = ToyFM([eye, eye], eye, 4, 1, flat)
        assert model.flat is flat
        # A row of a parameter matrix is the model's buffer: writing it moves the adapters.
        rows = np.stack([flat, 2.0 * flat])
        model = ToyFM([eye, eye], eye, 4, 1, rows[1])
        rows[1, 0] = 5.0
        assert model.adapters[0][0][0, 0] == 5.0
        # Anything else is rejected: a copy would detach the model from its matrix row.
        for other in (flat.astype(np.float32), np.repeat(flat, 2)[::2], flat.tolist()):
            with pytest.raises(InvalidArgumentError, match="C-contiguous float64"):
                ToyFM([eye, eye], eye, 4, 1, other)
        for bad in (flat[:-1], np.where(np.arange(flat.size) == 3, np.nan, flat)):
            with pytest.raises(InvalidArgumentError):
                ToyFM([eye, eye], eye, 4, 1, bad)
        with pytest.raises(InvalidArgumentError):
            ToyFM([eye, eye], eye, 4, 4, np.zeros(64))

    def test_clone_has_its_own_buffer(self):
        model = golden_model()
        before = model.flat.copy()
        twin = model.clone()
        assert np.array_equal(twin.flat, before)
        assert not np.shares_memory(twin.flat, model.flat)
        twin.flat += 1.0
        twin.adapters[0][1][...] = np.zeros((8, 2))
        assert np.array_equal(model.flat, before)
        model.flat -= 1.0
        assert np.array_equal(twin.adapters[1][0].ravel(), before[32:48] + 1.0)

    def test_adapter_params_equals_the_per_layer_concatenation(self, from_layers):
        model = small_model(num_blocks=3)
        model.flat[:] = RngStream(56, 0).draw_gaussian(model.flat.size)
        expected = from_layers(
            (k, model.flat[(k - 1) * model.layer_size : k * model.layer_size]) for k in (1, 2, 3)
        )
        got = model.adapter_params()
        assert got.manifest == expected.manifest
        assert got.values.tobytes() == expected.values.tobytes()
        assert not np.shares_memory(got.values, model.flat)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_installing_layer_k_changes_only_its_slice(self, k):
        model = small_model(num_blocks=3)
        before = model.flat.copy()
        values = RngStream(k, 0).draw_gaussian(model.layer_size)
        model.install_adapter_params(FlatParams(values, ((k, values.size),)))
        span = slice((k - 1) * model.layer_size, k * model.layer_size)
        assert np.array_equal(model.flat[span], values)
        outside = np.ones(model.flat.size, dtype=bool)
        outside[span] = False
        assert np.array_equal(model.flat[outside], before[outside])

    def test_rejected_install_writes_nothing(self, from_layers):
        model = small_model(num_blocks=3)
        before = model.flat.copy()
        params = from_layers(
            [(1, np.ones(model.layer_size)), (2, np.ones(model.layer_size - 1))]
        )
        with pytest.raises(InvalidArgumentError):
            model.install_adapter_params(params)
        assert np.array_equal(model.flat, before)

    def test_adapter_params_is_a_copy_later_steps_leave_alone(self):
        model = golden_model()
        whole = model.adapter_params()
        snapshot = whole.values.copy()
        stream = RngStream(19, 0)
        images = stream.draw_uniform(4 * 8).reshape(4, 8)
        masks = (stream.draw_uniform(4 * 8).reshape(4, 8) < 0.5).astype(float)
        state = AdamState(np.zeros(whole.values.size), np.zeros(whole.values.size))
        for _ in range(3):
            _, grads = loss_and_grad(images, masks, model, None, 0.0)
            params = model.adapter_params()
            params, state = adam_step(params, FlatParams(grads, params.manifest), state, 1e-2)
            model.install_adapter_params(params)
        assert not np.array_equal(model.flat, snapshot)
        assert np.array_equal(whole.values, snapshot)


def masked_sigmoid(x):
    """The masked two-branch logistic that sigmoid replaced, kept as its reference."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_bitwise_equal_to_masked_formula(self):
        stream = RngStream(20, 0)
        clamp_logit = float(np.log(PROB_CLAMP / (1.0 - PROB_CLAMP)))
        near_clamp = np.concatenate(
            [
                c + np.array([-1e-9, 0.0, 1e-9]) + d
                for c in (clamp_logit, -clamp_logit)
                for d in (0.0, np.spacing(c), -np.spacing(c))
            ]
        )
        special = np.array(
            [0.0, -0.0, 750.0, -750.0, 745.2, -745.2, 709.8, -709.8, 1e-300, -1e-300]
        )
        gaussian = stream.draw_gaussian(32 * 256).reshape(32, 256)
        for x in [
            *(scale * gaussian for scale in (1.0, 10.0, 300.0)),
            near_clamp,
            special,
            np.float64(-3.5),
        ]:
            assert sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()


def seg_term(logits, y):
    """The segmentation term the objectives compute: clamped BCE of the logistic."""
    return _bce(sigmoid(logits), y)


class TestSegLoss:
    def test_uninformative_logit_on_foreground(self):
        assert seg_term(np.array([0.0]), np.array([1.0])) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_symmetric_background_case(self):
        assert seg_term(np.array([0.0]), np.array([0.0])) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_saturated_correct_prediction_is_tiny(self):
        assert seg_term(np.array([40.0]), np.array([1.0])) <= 1e-6

    def test_loss_is_non_negative(self):
        stream = RngStream(11, 0)
        for _ in range(20):
            logits = 5.0 * stream.draw_gaussian(16)
            y = (stream.draw_uniform(16) < 0.5).astype(float)
            assert seg_term(logits, y) >= 0.0

    def test_bitwise_equal_to_the_reference_loss(self):
        stream = RngStream(14, 0)
        for scale in (1.0, 10.0, 40.0):
            logits = scale * stream.draw_gaussian(64)
            y = (stream.draw_uniform(64) < 0.5).astype(float)
            assert float.hex(seg_term(logits, y)) == float.hex(seg_loss(logits, y))


def reg_term(a, b, layer_size=None):
    """The regularizer the objectives compute: -cos(a, b), 0 for a zero vector.

    a and b are layers of layer_size values each (default: one layer).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return _neg_cosine(*_cosine_parts(a, b, layer_size or a.size))


class TestRegLoss:
    def test_self_cosine_is_minus_one(self):
        theta = [0.3, -1.2, 4.0]
        assert reg_term(theta, theta) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_vectors_give_zero(self):
        assert reg_term([1.0, 0.0], [0.0, 2.0]) == pytest.approx(0.0)

    def test_analytic_cosine_value(self):
        value = reg_term([1.0, 0.0], [1.0, 1.0])
        assert value == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-12)

    def test_zero_current_vector_is_neutral(self):
        assert reg_term([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_range_is_bounded(self):
        stream = RngStream(12, 0)
        for _ in range(100):
            a, b = stream.draw_gaussian(6), stream.draw_gaussian(6)
            assert -1.0 - 1e-12 <= reg_term(a, b) <= 1.0 + 1e-12

    def test_bitwise_equal_to_negated_cosine_of_two_norms_and_a_dot(self):
        # Reference: the cosine as an array-scalar quotient, negated; on one layer
        # its norms are np.linalg.norm's.
        stream = RngStream(13, 0)
        for size in (3, 8192):
            for _ in range(20):
                a, b = stream.draw_gaussian(size), stream.draw_gaussian(size)
                na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
                assert layer_parts(a, b) == (na, nb, float(np.dot(a, b)))
                expected = -float(np.dot(a, b) / (na * nb))
                assert np.float64(reg_term(a, b)).tobytes() == np.float64(expected).tobytes()
                assert np.float64(neg_cosine(a, b)).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("layers", [2, 6])
    def test_sums_one_layer_at_a_time(self, layers):
        # many_clients' six layers of 8,192 values: one 49,152-value dot product
        # would be split over OpenBLAS's threads, the per-layer ones are not.
        stream = RngStream(14, layers)
        a, b = (stream.draw_gaussian(layers * 8192) for _ in range(2))
        expected = neg_cosine(a, b, 8192)
        assert np.float64(reg_term(a, b, 8192)).tobytes() == np.float64(expected).tobytes()


class TestObjective:
    def _fixture(self, beta):
        model = golden_model()
        data = RngStream(4, 4)
        images = data.draw_uniform(3 * 8).reshape(3, 8)
        masks = (data.draw_uniform(3 * 8).reshape(3, 8) < 0.4).astype(float)
        ref = data.draw_gaussian(2 * 8 * 2)
        return model, images, masks, ref

    def test_beta_zero_equals_mean_seg_loss(self):
        model, images, masks, ref = self._fixture(0.0)
        expected = seg_loss(model_forward(images, model), masks)
        assert objective(images, masks, model, ref, 0.0) == pytest.approx(expected, abs=1e-15)

    def test_objective_is_seg_plus_beta_reg(self):
        model, images, masks, ref = self._fixture(0.01)
        seg = seg_loss(model_forward(images, model), masks)
        reg = neg_cosine(model.low(1), ref)
        assert objective(images, masks, model, ref, 0.01) == pytest.approx(
            seg + 0.01 * reg, abs=1e-15
        )

    def test_linear_combination_example(self):
        # loss 0.5 and regularizer -1 at beta 0.01 combine to 0.49
        assert 0.5 + 0.01 * (-1.0) == pytest.approx(0.49)
        model, images, masks, _ = self._fixture(0.01)
        ref = model.low(1).copy()  # self-reference: reg term is exactly -1
        seg = seg_loss(model_forward(images, model), masks)
        assert objective(images, masks, model, ref, 0.01) == pytest.approx(seg - 0.01, abs=1e-15)

    def test_golden_objective_regression(self):
        model = golden_model()
        data = RngStream(0, derive_stream_id("golden", "data"))
        data.draw_uniform(8)  # stream position matches the golden bootstrap
        images = data.draw_uniform(3 * 8).reshape(3, 8)
        masks = (data.draw_uniform(3 * 8).reshape(3, 8) < 0.4).astype(float)
        ref = data.draw_gaussian(2 * 8 * 2)
        golden = json.loads(GOLDEN.read_text())
        assert objective(images, masks, model, ref, 0.02) == pytest.approx(
            golden["objective"], rel=1e-10
        )

    # The gradient oracle checks its unperturbed loss against objective to 1e-12, while
    # training reports objective_and_grad's loss, so the two must agree exactly.
    @pytest.mark.parametrize("beta", [0.0, 0.01, 0.5])
    def test_equals_objective_and_grad_loss(self, beta):
        model, images, masks, ref = self._fixture(beta)
        ref = ref if beta > 0 else None
        loss, _ = loss_and_grad(images, masks, model, ref, beta)
        assert objective(images, masks, model, ref, beta) == loss


class TestGradAdapters:
    def test_matches_finite_differences_on_one_fixture(self):
        fx = gradient_fixtures()[0]
        assert gradient_rel_error(fx) < 1e-4

    def test_dead_bottleneck_gets_zero_down_gradient(self):
        model = small_model(feature_dim=6, bottleneck_dim=2, num_blocks=2)
        stream = RngStream(13, 0)
        # Strictly negative down rows keep the bottleneck pre-activation <= 0
        # for the non-negative post-ReLU features, so relu kills that path.
        for down, up in model.adapters:
            down[...] = -np.abs(stream.draw_gaussian(12).reshape(2, 6)) - 0.1
            up[...] = stream.draw_gaussian(12).reshape(6, 2)
        images = stream.draw_uniform(4 * 6).reshape(4, 6)
        masks = (stream.draw_uniform(4 * 6).reshape(4, 6) < 0.5).astype(float)
        grads = loss_and_grad(images, masks, model, None, 0.0)[1]
        for k in (1, 2):
            down = layer_grad(grads, model, k)[: 2 * 6]
            assert np.array_equal(down, np.zeros(12))

    def test_zero_up_init_still_moves_up_projection(self):
        model = small_model(feature_dim=6, bottleneck_dim=2, num_blocks=2)
        stream = RngStream(14, 0)
        images = stream.draw_uniform(4 * 6).reshape(4, 6)
        masks = (stream.draw_uniform(4 * 6).reshape(4, 6) < 0.5).astype(float)
        grads = loss_and_grad(images, masks, model, None, 0.0)[1]
        up = layer_grad(grads, model, 1)[2 * 6 :]
        assert np.any(up != 0.0)

    def test_duplicated_batch_gives_same_gradient(self):
        model = small_model()
        stream = RngStream(15, 0)
        images = stream.draw_uniform(3 * 8).reshape(3, 8)
        masks = (stream.draw_uniform(3 * 8).reshape(3, 8) < 0.5).astype(float)
        g1 = loss_and_grad(images, masks, model, None, 0.0)[1]
        g2 = loss_and_grad(
            np.concatenate([images, images]), np.concatenate([masks, masks]), model, None, 0.0
        )[1]
        assert np.allclose(g1, g2, atol=1e-12)

    def test_regularizer_gradient_matches_finite_differences(self):
        model = small_model()
        stream = RngStream(16, 0)
        model.flat[...] = 0.3 * stream.draw_gaussian(model.flat.size)
        images = stream.draw_uniform(2 * 8).reshape(2, 8)
        masks = (stream.draw_uniform(2 * 8).reshape(2, 8) < 0.5).astype(float)
        ref = stream.draw_gaussian(2 * 8 * 2)
        _, analytic = loss_and_grad(images, masks, model, ref, 0.5)
        scratch = model.clone()

        def f(values):
            scratch.flat[...] = values
            return objective(images, masks, scratch, ref, 0.5)

        numeric = finite_diff_grad(f, model.flat.copy(), 1e-5)
        scale = max(np.max(np.abs(numeric)), 1e-12)
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-4

    def test_reference_on_two_low_layers(self):
        # Layers 1..2 of three: the reference covers a prefix, layer 3 is unpulled.
        model = small_model(num_blocks=3)
        stream = RngStream(24, 0)
        model.flat[...] = 0.3 * stream.draw_gaussian(model.flat.size)
        images = stream.draw_uniform(2 * 8).reshape(2, 8)
        masks = (stream.draw_uniform(2 * 8).reshape(2, 8) < 0.5).astype(float)
        ref = stream.draw_gaussian(2 * 32)
        loss, analytic = loss_and_grad(images, masks, model, ref, 0.5)
        seg, seg_grads = loss_and_grad(images, masks, model, None, 0.0)
        assert loss == objective(images, masks, model, ref, 0.5)
        assert loss == seg + 0.5 * neg_cosine(model.low(2), ref, model.layer_size)
        assert np.array_equal(layer_grad(analytic, model, 3), layer_grad(seg_grads, model, 3))
        scratch = model.clone()

        def f(values):
            scratch.flat[...] = values
            return objective(images, masks, scratch, ref, 0.5)

        numeric = finite_diff_grad(f, model.flat.copy(), 1e-5)
        scale = max(np.max(np.abs(numeric)), 1e-12)
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-4


def allocating_objective_and_grad(images, masks, model, theta_ref, beta):
    """The out-of-place backward objective_and_grad replaced, kept as its reference.

    It allocates every intermediate, propagates the input gradient through
    every block, builds one array per layer and adds the regularizer's
    gradient layer by layer, in the order the kernel must keep; the
    regularizer's norms and dot product are summed one layer at a time.
    """
    batch, pixels = images.shape
    h, cache = images, []
    for block, (down, up) in zip(model.blocks, model.adapters):
        r = np.maximum(h @ block.weight.T + block.bias, 0.0)
        u = r @ down.T
        s = np.maximum(u, 0.0)
        h = s @ up.T + r
        cache.append((r, u, s))
    p = masked_sigmoid(h @ model.head.weight.T + model.head.bias)
    clamped = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    loss = float(np.mean(-masks * np.log(clamped) - (1.0 - masks) * np.log1p(-clamped)))
    inside = (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
    g = np.where(inside, p - masks, 0.0) / (batch * pixels)
    g = g @ model.head.weight
    layers = {}
    for k in range(model.num_blocks, 0, -1):
        block, (down, up) = model.blocks[k - 1], model.adapters[k - 1]
        r, u, s = cache[k - 1]
        d_up = g.T @ s
        d_hidden = (g @ up) * (u > 0)
        d_down = d_hidden.T @ r
        g = ((d_hidden @ down + g) * (r > 0)) @ block.weight
        layers[k] = np.concatenate([d_down.ravel(), d_up.ravel()])
    if beta > 0:
        a, b = model.flat[: theta_ref.size], theta_ref
        loss += beta * neg_cosine(a, b, model.layer_size)
        na, nb, dot = layer_parts(a, b, model.layer_size)
        reg_grad = beta * -(b / (na * nb) - a * dot / (na**3 * nb))
        for k, part in enumerate(reg_grad.reshape(-1, model.layer_size), start=1):
            layers[k] = layers[k] + part
    return loss, np.concatenate([layers[k] for k in sorted(layers)])


class TestGradientKernel:
    """objective_and_grad is bitwise equal to the allocating backward it replaced."""

    @staticmethod
    def _case(shape, low_layers, beta, seed):
        feature_dim, bottleneck_dim, num_blocks, batch = shape
        model = small_model(seed, feature_dim, bottleneck_dim, num_blocks)
        stream = RngStream(seed, 1)
        model.flat[:] = 0.1 * stream.draw_gaussian(model.flat.size)
        images = stream.draw_gaussian(batch * feature_dim).reshape(batch, feature_dim)
        masks = (stream.draw_uniform(batch * feature_dim) < 0.3).astype(float)
        masks = masks.reshape(batch, feature_dim)
        theta_ref = None
        if low_layers:
            theta_ref = stream.draw_gaussian(low_layers * model.layer_size)
        return images, masks, model, theta_ref, beta

    @pytest.mark.parametrize(
        "shape",
        [(8, 2, 3, 5), (256, 16, 6, 32)],
        ids=["small", "default_ini"],
    )
    @pytest.mark.parametrize(
        "low_layers, beta",
        [(1, 0.01), (2, 0.5), (3, 0.5), (None, 0.0)],
        ids=["L1", "L2", "L3", "beta0"],
    )
    def test_bitwise_equal_to_allocating_backward(self, shape, low_layers, beta):
        images, masks, model, theta_ref, beta = self._case(shape, low_layers, beta, seed=31)
        want_loss, want = allocating_objective_and_grad(images, masks, model, theta_ref, beta)
        # The training step's form: stored block-1 rows, workspace rows holding garbage.
        out, scratch = np.full((2, model.flat.size), np.nan)
        first = block1_features(images, model)
        loss, written = objective_and_grad(first, masks, model, theta_ref, beta, out, scratch)
        assert written is out
        assert float.hex(loss) == float.hex(want_loss)
        assert out.tobytes() == want.tobytes()

    def test_beta_zero_skips_the_regularizer_whatever_the_reference(self):
        images, masks, model, theta_ref, _ = self._case((8, 2, 3, 5), 1, 0.0, seed=33)
        first = block1_features(images, model)
        results = []
        for ref in (None, theta_ref, np.zeros_like(theta_ref)):
            out, scratch = np.full((2, model.flat.size), np.nan)
            loss, _ = objective_and_grad(first, masks, model, ref, 0.0, out, scratch)
            results.append((float.hex(loss), out.tobytes()))
        assert results[0] == results[1] == results[2]


def _training_shapes():
    """(feature_dim, train rows, batch rows) of the training steps fedsim's configs take.

    configs/*.ini, the benchmark workloads and criteria 05-08 train at
    feature_dim 256 on 8-128-row train sets, in batches of 32 and their
    tails; the small test config and criterion 02 train at feature_dim 64
    on one batch of the whole 8-12-row train set.
    """
    shapes = []
    for rows in (8, 9, 10, 11, 12, 32, 40, 64, 80, 96, 128):
        batches = {b for b in (8, 16, 32) if b <= rows} | {rows % 32}
        shapes += [(256, rows, b) for b in sorted(batches) if b >= 5]
    shapes += [(64, rows, rows) for rows in (8, 9, 10, 11, 12)]
    return shapes


class TestBlock1Features:
    """Block 1 over a whole train set, gathered per batch, equals block 1 of the batch.

    local_train_round stores the train set's block-1 rows once and gathers
    them per step. Its results equal those of computing block 1 on each
    batch only where the BLAS gives a GEMM row the same bits at both
    heights.
    """

    @staticmethod
    def _train_set(feature_dim, rows, seed):
        model = build_model(
            feature_dim,
            feature_dim // 16,
            2,
            RngStream(seed, derive_stream_id("backbone")),
            RngStream(seed, derive_stream_id("adapter", 0)),
        )
        images = RngStream(seed, 1).draw_uniform(rows * feature_dim).reshape(rows, feature_dim)
        order = RngStream(seed, 2).permutation(rows)
        return model, images, block1_features(images, model), order

    @pytest.mark.parametrize("feature_dim, rows, batch", _training_shapes())
    def test_gathered_rows_equal_the_batch_bit_for_bit(self, feature_dim, rows, batch):
        model, images, features, order = self._train_set(feature_dim, rows, seed=rows + batch)
        idx = order[:batch]
        want = block1_features(images[idx], model)
        assert features[idx].tobytes() == want.tobytes(), (
            f"block 1 of {rows} train rows, gathered to {batch} rows, differs from block 1 "
            f"of the {batch}-row batch by up to {np.max(np.abs(features[idx] - want)):.1e}: "
            "the BLAS GEMM took a different kernel at the two heights (its small-M kernel, "
            "most likely), so local_train_round's stored block-1 features now change "
            "training results against computing block 1 per batch"
        )

    @pytest.mark.parametrize(
        "feature_dim, rows, batch",
        [(256, 80, 1), (256, 80, 2), (256, 80, 3), (256, 80, 4), (64, 32, 8), (64, 128, 16)],
    )
    def test_other_heights_agree_to_1e_12(self, feature_dim, rows, batch):
        # With OpenBLAS 0.3.31 these take another kernel at one of the two heights,
        # which sums in another order: 1-4-row batches at feature_dim 256, and
        # batches of up to 18 rows from train sets of 24 or more at feature_dim 64.
        model, images, features, order = self._train_set(feature_dim, rows, seed=batch)
        idx = order[:batch]
        np.testing.assert_allclose(
            features[idx], block1_features(images[idx], model), rtol=1e-12, atol=1e-12
        )

    def test_equals_the_first_step_of_model_forward(self):
        model, images, features, _ = self._train_set(64, 12, seed=3)
        block = model.blocks[0]
        assert features.tobytes() == np.maximum(images @ block.weight.T + block.bias, 0.0).tobytes()

    def test_a_vector_is_a_one_row_batch(self):
        model, images, features, _ = self._train_set(64, 12, seed=3)
        row = block1_features(images[5], model)
        assert row.shape == (1, 64)
        assert row.tobytes() == block1_features(images[5:6], model).tobytes()


# (label, feature_dim, num_blocks, batch_size, client sizes) of the federations
# fedsim trains: configs/*.ini, the two training workloads of the benchmark
# (grad_oracle trains no clients) and criteria 02 and 05-08.
FEDERATIONS = (
    ("default.ini/train_default", 256, 6, 32, (100, 40, 80, 120)),
    ("demo.ini/criterion_05", 256, 6, 32, (100, 100, 100, 100)),
    ("many_clients", 256, 6, 32, (10,) * 32),
    ("criteria_06_08", 256, 6, 32, (40, 40, 120, 160)),
    ("criterion_07", 256, 6, 32, (100,)),
    ("criterion_02/small_config", 64, 3, 16, (12, 10, 14, 16)),
)
# Row-stacked forward products that are not bit-equal to the per-client ones
# with OpenBLAS 0.3.31; TestStackedProducts holds them to 1e-12.
NOT_BIT_EQUAL_FORWARD = {
    ("many_clients", "test"),
    ("criterion_02/small_config", "step1"),
}


def _stacks():
    """One case per distinct stack: the row blocks one stacked step or evaluation would run.

    A stacked optimizer step takes the next batch of every client that has
    one left; a stacked evaluation takes every client's test set.
    """
    cases, seen = [], set()
    for label, feature_dim, num_blocks, batch, sizes in FEDERATIONS:
        splits = [split_train_test(np.arange(n), RngStream(0, 0)) for n in sizes]
        train = [len(t) for t, _ in splits]
        kinds = [("test", [len(t) for _, t in splits])]
        for step in range(max(train) // batch + 1):
            blocks = [min(batch, n - step * batch) for n in train if n > step * batch]
            if blocks:
                kinds.append((f"step{step + 1}", blocks))
        for kind, blocks in kinds:
            if (feature_dim, tuple(blocks)) not in seen:
                seen.add((feature_dim, tuple(blocks)))
                cases.append(
                    pytest.param(
                        feature_dim, num_blocks, blocks, (label, kind) in NOT_BIT_EQUAL_FORWARD,
                        id=f"{label}-{kind}",
                    )
                )
    return cases


class TestStackedProducts:
    """Products of a step stacked across clients equal the per-client ones.

    Batched training would run every client's batch as rows of one (sum B_i, d)
    matrix through the frozen blocks 2..K and the head, forward (h @ W.T) and
    backward (g @ W), and each client's adapters as one 3-D matmul over the
    clients, (N, B, d) @ (N, d, r) and (N, B, r) @ (N, r, d), with the
    per-client adapters as views of one (N, P) matrix. Its results equal
    today's per-client loop only where these agree bit for bit.

    They do at every shape below but two forward ones, which take another
    GEMM kernel at one of the two heights and are held to a relative 1e-12:
    - many_clients' test sets: 32 blocks of 2 rows, (64, 256) @ (256, 256);
    - criterion 02's and the small config's one training step: blocks of
      10, 8, 11 and 13 rows, (42, 64) @ (64, 64).

    Evaluation already runs the "test" stacks: fed_client.evaluate puts every
    client's test rows through the frozen products at once. On many_clients
    their logits then differ from the per-client ones in the last bits, but
    thresholding at 0.5 keeps every IoU and Dice bit-equal on the configs
    whose run digests are pinned (demo.ini with sgca and fedavg, default.ini,
    the small config and many_clients).

    Every stacked product, frozen and adapter, is the same bits at 1 and 2
    OpenBLAS threads, so a stacked run keeps a run directory that does not
    depend on the thread count.
    """

    @staticmethod
    def _clients(feature_dim, num_blocks, n, seed):
        model = build_model(
            feature_dim,
            feature_dim // 16,
            num_blocks,
            RngStream(seed, derive_stream_id("backbone")),
            RngStream(seed, derive_stream_id("adapter", 0)),
        )
        flats = 0.1 * RngStream(seed, 1).draw_gaussian(n * model.flat.size)
        return model, flats.reshape(n, model.flat.size)

    @classmethod
    def _frozen_operands(cls, feature_dim, num_blocks, blocks):
        """Stacked rows h and gradients g, and the frozen weights of blocks 2..K and the head."""
        model, _ = cls._clients(feature_dim, num_blocks, 1, seed=len(blocks))
        stream = RngStream(sum(blocks), 2)
        h = np.maximum(stream.draw_gaussian(sum(blocks) * feature_dim), 0.0)
        h = h.reshape(-1, feature_dim)
        g = stream.draw_gaussian(h.size).reshape(h.shape)
        return h, g, [block.weight for block in model.blocks[1:]] + [model.head.weight]

    @classmethod
    def _adapter_operands(cls, feature_dim, num_blocks, blocks):
        """Per distinct block height: n clients' adapter inputs r and s, and every layer's
        (down, up) stacked over those clients as views of their (n, P) matrix."""
        bottleneck = feature_dim // 16
        for rows in sorted(set(blocks)):
            n = blocks.count(rows)
            model, flats = cls._clients(feature_dim, num_blocks, n, seed=rows)
            stream = RngStream(rows, 3)
            r = np.maximum(stream.draw_gaussian(n * rows * feature_dim), 0.0)
            r = r.reshape(n, rows, feature_dim)
            s = np.maximum(stream.draw_gaussian(n * rows * bottleneck), 0.0)
            s = s.reshape(n, rows, bottleneck)
            cut = bottleneck * feature_dim
            layers = []
            for k in range(num_blocks):
                layer = flats[:, k * model.layer_size : (k + 1) * model.layer_size]
                down = layer[:, :cut].reshape(n, bottleneck, feature_dim)
                up = layer[:, cut:].reshape(n, feature_dim, bottleneck)
                layers.append((down, up))
            yield model, flats, r, s, layers

    @pytest.mark.parametrize("feature_dim, num_blocks, blocks, tolerant", _stacks())
    def test_row_stacked_frozen_products(self, feature_dim, num_blocks, blocks, tolerant):
        h, g, weights = self._frozen_operands(feature_dim, num_blocks, blocks)
        cuts = np.cumsum([0, *blocks])
        for w in weights:
            forward, backward = h @ w.T, g @ w
            for lo, hi in zip(cuts, cuts[1:]):
                assert backward[lo:hi].tobytes() == (g[lo:hi] @ w).tobytes()
                if tolerant:
                    np.testing.assert_allclose(
                        forward[lo:hi], h[lo:hi] @ w.T, rtol=1e-12, atol=1e-12
                    )
                else:
                    assert forward[lo:hi].tobytes() == (h[lo:hi] @ w.T).tobytes(), (
                        f"rows {lo}:{hi} of a stacked ({len(h)}, {feature_dim}) GEMM differ "
                        "from the per-client GEMM: the BLAS took another kernel at one height"
                    )

    @pytest.mark.parametrize("feature_dim, num_blocks, blocks, tolerant", _stacks())
    def test_adapter_matmul_over_clients(self, feature_dim, num_blocks, blocks, tolerant):
        for model, flats, r, s, layers in self._adapter_operands(feature_dim, num_blocks, blocks):
            for k, (down, up) in enumerate(layers):
                assert np.shares_memory(down, flats) and np.shares_memory(up, flats)
                u = np.matmul(r, down.transpose(0, 2, 1))
                h = np.matmul(s, up.transpose(0, 2, 1))
                for i in range(len(flats)):
                    client = model._layer_views(flats[i], k + 1)
                    assert u[i].tobytes() == (r[i] @ client[0].T).tobytes()
                    assert h[i].tobytes() == (s[i] @ client[1].T).tobytes()

    @pytest.mark.parametrize("feature_dim, num_blocks, blocks, tolerant", _stacks())
    def test_stacked_products_are_the_same_bits_at_one_and_two_blas_threads(
        self, feature_dim, num_blocks, blocks, tolerant, set_blas_threads
    ):
        h, g, weights = self._frozen_operands(feature_dim, num_blocks, blocks)
        adapters = list(self._adapter_operands(feature_dim, num_blocks, blocks))

        def products():
            out = [p for w in weights for p in (h @ w.T, g @ w)]
            for _, _, r, s, layers in adapters:
                for down, up in layers:
                    out.append(np.matmul(r, down.transpose(0, 2, 1)))
                    out.append(np.matmul(s, up.transpose(0, 2, 1)))
            return [p.tobytes() for p in out]

        set_blas_threads(1)
        one = products()
        set_blas_threads(2)
        assert products() == one


class TestFrozenProduct:
    """fedsim computes a frozen block's h @ W.T as (W @ h.T).T, with the same bits."""

    @pytest.mark.parametrize("feature_dim", [64, 256])
    def test_frozen_block_is_relu_of_the_row_product_at_one_and_two_blas_threads(
        self, feature_dim, set_blas_threads
    ):
        model = small_model(1, feature_dim, feature_dim // 16, 2)
        block = model.blocks[1]
        stream = RngStream(feature_dim, 4)
        for threads in (1, 2):
            set_blas_threads(threads)
            for rows in range(1, 41):
                h = np.maximum(stream.draw_gaussian(rows * feature_dim), 0.0)
                h = h.reshape(rows, feature_dim)
                got = adapter_net._frozen_block(h, block)
                want = np.maximum(h @ block.weight.T + block.bias, 0.0)
                assert got.flags.c_contiguous
                assert got.tobytes() == want.tobytes(), (threads, rows)
                head = adapter_net._frozen_affine(h, model.head)
                want = h @ model.head.weight.T + model.head.bias
                assert head.tobytes() == want.tobytes(), (threads, rows)


class TestAdamStep:
    def _params(self, values):
        return FlatParams(np.asarray(values, dtype=float), ((1, len(values)),))

    def test_zero_gradient_leaves_params_unchanged(self):
        params = self._params([1.0, -2.0, 3.0])
        state = AdamState(np.zeros(params.values.size), np.zeros(params.values.size))
        new_params, new_state = adam_step(params, self._params([0.0, 0.0, 0.0]), state, 1e-3)
        assert np.array_equal(new_params.values, params.values)
        assert new_state.step_count == 1

    def test_constant_gradient_reaches_unit_step_size(self):
        lr = 1e-3
        params = self._params([0.0, 0.0])
        grads = self._params([0.5, -2.0])
        state = AdamState(np.zeros(params.values.size), np.zeros(params.values.size))
        prev = params
        for _ in range(1000):
            prev = params
            params, state = adam_step(params, grads, state, lr)
        step = np.abs(params.values - prev.values)
        assert np.all(np.abs(step - lr) < 0.01 * lr)

    def test_two_runs_are_bit_identical(self):
        stream = RngStream(17, 0)
        values = stream.draw_gaussian(5)
        grad_values = stream.draw_gaussian(5)

        def run():
            params = self._params(values)
            state = AdamState(np.zeros(params.values.size), np.zeros(params.values.size))
            for _ in range(10):
                params, state = adam_step(params, self._params(grad_values), state, 1e-2)
            return params.values

        assert np.array_equal(run(), run())

    def test_bitwise_equal_to_allocating_formula(self):
        # The out-of-place update adam_step replaced, in its arithmetic order.
        def reference(values, grads, m, v, t, lr):
            m = 0.9 * m + (1.0 - 0.9) * grads
            v = 0.999 * v + (1.0 - 0.999) * grads**2
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            return values - lr * m_hat / (np.sqrt(v_hat) + 1e-8), m, v

        stream = RngStream(22, 0)
        values = stream.draw_gaussian(257)
        params = self._params(values)
        state = AdamState(np.zeros(params.values.size), np.zeros(params.values.size))
        m = v = np.zeros(257)
        in_place, in_place_state = values.copy(), AdamState(np.zeros(257), np.zeros(257))
        scratch = np.full(257, np.nan)
        for t in range(1, 31):
            grad_values = stream.draw_gaussian(257) * 10.0 ** stream.draw_integer(-6, 2)
            params, state = adam_step(params, self._params(grad_values), state, 3e-3)
            adam_update(in_place, grad_values.copy(), in_place_state, 3e-3, scratch)
            values, m, v = reference(values, grad_values, m, v, t, 3e-3)
            for got, got_state in [(params.values, state), (in_place, in_place_state)]:
                assert got.tobytes() == values.tobytes()
                assert got_state.first_moment.tobytes() == m.tobytes()
                assert got_state.second_moment.tobytes() == v.tobytes()
                assert got_state.step_count == t

    def test_in_place_update_allocates_no_parameter_sized_buffer(self):
        size = 49_152  # P of configs/default.ini
        stream = RngStream(24, 0)
        values, grads = stream.draw_gaussian(size), stream.draw_gaussian(size)
        state, scratch = AdamState(np.zeros(size), np.zeros(size)), np.empty(size)
        adam_update(values, grads.copy(), state, 1e-3, scratch)
        grads_again = grads.copy()
        tracemalloc.start()
        try:
            adam_update(values, grads_again, state, 1e-3, scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Only the isfinite mask, one byte per value, may be allocated.
        assert peak < size * 8

    def test_inputs_are_left_unchanged(self):
        params = self._params([1.0, -2.0])
        state = AdamState(np.zeros(params.values.size), np.zeros(params.values.size))
        adam_step(params, self._params([0.5, 0.5]), state, 1e-2)
        assert np.array_equal(params.values, [1.0, -2.0])
        assert state.step_count == 0 and not np.any(state.first_moment)

    def test_shape_mismatch_raises(self):
        params = self._params([1.0, 2.0])
        grads = FlatParams(np.ones(3), ((1, 3),))
        state = AdamState(np.zeros(params.values.size), np.zeros(params.values.size))
        with pytest.raises(InvalidArgumentError):
            adam_step(params, grads, state, 1e-3)


class TestFrozenImmutability:
    def test_digest_unchanged_by_training_steps(self, frozen_digest):
        model = small_model()
        digest = frozen_digest(model)
        stream = RngStream(18, 0)
        images = stream.draw_uniform(4 * 8).reshape(4, 8)
        masks = (stream.draw_uniform(4 * 8).reshape(4, 8) < 0.5).astype(float)
        params = model.adapter_params()
        state = AdamState(np.zeros(params.values.size), np.zeros(params.values.size))
        for _ in range(5):
            _, grads = loss_and_grad(images, masks, model, None, 0.0)
            params = model.adapter_params()
            params, state = adam_step(params, FlatParams(grads, params.manifest), state, 1e-2)
            model.install_adapter_params(params)
        assert frozen_digest(model) == digest

    def test_frozen_arrays_reject_writes(self):
        model = small_model()
        with pytest.raises(ValueError):
            model.blocks[0].weight[0, 0] = 99.0

    def test_model_requires_two_blocks(self):
        eye = FrozenBlock(np.eye(4), np.zeros(4))
        with pytest.raises(InvalidArgumentError):
            ToyFM([eye], eye, 4, 1, identity_adapters(1, 4))

    # The constructors' shape checks stay: the kernels take the blocks' shapes as given.
    @pytest.mark.parametrize("weight", [np.ones((3, 4)), np.ones(4)], ids=["3x4", "vector"])
    def test_frozen_weight_must_be_square(self, weight):
        with pytest.raises(InvalidArgumentError, match="frozen weight must be square"):
            FrozenBlock(weight, np.zeros(weight.shape[0]))

    @pytest.mark.parametrize("bias", [np.zeros(3), np.zeros((4, 1))], ids=["short", "column"])
    def test_frozen_bias_must_match_the_weight(self, bias):
        with pytest.raises(InvalidArgumentError, match="frozen bias length must match weight"):
            FrozenBlock(np.eye(4), bias)

    def test_model_blocks_must_be_feature_dim_square(self):
        eye4, eye5 = FrozenBlock(np.eye(4), np.zeros(4)), FrozenBlock(np.eye(5), np.zeros(5))
        with pytest.raises(InvalidArgumentError, match="frozen block dimension mismatch"):
            ToyFM([eye4, eye5], eye4, 4, 1, identity_adapters(2, 4))


# Builds the backbone at feature_dim 64 and 256 through the one-thread QR and
# through the plain QR it falls back to, then reports the thread count left set.
BACKBONE_DIGESTS = """
import hashlib, json
from fedsim import adapter_net
from fedsim.numerics import RngStream, derive_stream_id

def digests():
    out = []
    for feature_dim in (64, 256):
        model = adapter_net.build_model(
            feature_dim, 16, 6, RngStream(0, derive_stream_id("backbone")), RngStream(0, 1)
        )
        h = hashlib.sha256()
        for block in [*model.blocks, model.head]:
            h.update(block.weight.tobytes())
            h.update(block.bias.tobytes())
        out.append(h.hexdigest())
    return out

threads = adapter_net._openblas_threads()
one_thread = digests()
after = threads[0]() if threads else None
adapter_net._openblas_threads = lambda: None
print(json.dumps({"one_thread": one_thread, "plain": digests(), "threads_after": after}))
"""


class TestBackboneBlasThreads:
    def test_frozen_weights_are_the_same_bits_at_one_and_two_blas_threads(self):
        runs = {}
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            proc = subprocess.run(
                [sys.executable, "-c", BACKBONE_DIGESTS], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            runs[threads] = json.loads(proc.stdout)
        expected = runs["1"]["one_thread"]
        for threads, run in runs.items():
            assert run["one_thread"] == expected and run["plain"] == expected, threads
            assert run["threads_after"] in (None, int(threads))
