import json
from pathlib import Path

import numpy as np
import pytest

from fedsim.adapter_net import (
    PROB_CLAMP,
    AdamState,
    AdapterParams,
    FrozenBlock,
    ToyFM,
    adam_step,
    adapter_forward,
    build_model,
    model_forward,
    objective,
    objective_and_grad,
    reg_loss,
    seg_loss,
    sigmoid,
)
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
    template = model.adapter_params()
    vals = 0.4 * RngStream(0, derive_stream_id("golden", "params")).draw_gaussian(
        template.total_size
    )
    model.install_adapter_params(template.with_values(vals))
    return model


class TestAdapterForward:
    def test_zero_up_projection_is_identity(self):
        adapter = AdapterParams(np.ones((2, 5)), np.zeros((5, 2)))
        f = np.array([1.0, -2.0, 0.5, 3.0, -0.1])
        assert np.array_equal(adapter_forward(f, adapter), f)

    def test_zero_input_gives_zero_output(self):
        adapter = AdapterParams(np.ones((2, 5)), np.ones((5, 2)))
        assert np.array_equal(adapter_forward(np.zeros(5), adapter), np.zeros(5))

    def test_hand_computed_case(self):
        adapter = AdapterParams(np.array([[1.0, -1.0]]), np.array([[2.0], [0.0]]))
        out = adapter_forward(np.array([3.0, 1.0]), adapter)
        assert np.array_equal(out, [7.0, 1.0])

    def test_dimension_mismatch_raises(self):
        adapter = AdapterParams(np.ones((2, 5)), np.zeros((5, 2)))
        with pytest.raises(InvalidArgumentError):
            adapter_forward(np.zeros(4), adapter)


class TestModelForward:
    def test_identity_blocks_reduce_to_relu(self):
        # Identity frozen blocks, zero bias, zero up projections: logits == relu(x).
        eye = FrozenBlock(np.eye(4), np.zeros(4))
        adapter = lambda: AdapterParams(np.ones((1, 4)), np.zeros((4, 1)))
        model = ToyFM([(eye, adapter()), (eye, adapter())], eye, 4, 1)
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


class TestFlatBuffer:
    def test_adapters_are_views_of_the_flat_buffer(self):
        model = small_model(num_blocks=3)
        _, adapter = model.blocks[1]
        span = slice(model.layer_size, 2 * model.layer_size)
        assert np.shares_memory(adapter.down_proj, model.flat)
        model.flat[span] = np.arange(model.layer_size, dtype=float)
        assert np.array_equal(adapter.down_proj.ravel(), np.arange(16.0))
        adapter.up_proj = np.full((8, 2), 7.0)
        assert np.array_equal(model.flat[span][16:], np.full(16, 7.0))

    def test_clone_has_its_own_buffer(self):
        model = golden_model()
        before = model.flat.copy()
        twin = model.clone()
        assert np.array_equal(twin.flat, before)
        assert not np.shares_memory(twin.flat, model.flat)
        twin.flat += 1.0
        twin.blocks[0][1].up_proj = np.zeros((8, 2))
        assert np.array_equal(model.flat, before)
        model.flat -= 1.0
        assert np.array_equal(twin.blocks[1][1].down_proj.ravel(), before[32:48] + 1.0)

    @pytest.mark.parametrize("layers", [None, [1], [2, 3], [1, 2, 3], [1, 3], []])
    def test_adapter_params_equals_the_per_layer_concatenation(self, layers):
        model = small_model(num_blocks=3)
        model.flat[:] = RngStream(56, 0).draw_gaussian(model.flat.size)
        picked = [1, 2, 3] if layers is None else layers
        expected = FlatParams.from_layers(
            (k, model.flat[(k - 1) * model.layer_size : k * model.layer_size]) for k in picked
        )
        got = model.adapter_params(layers)
        assert got.manifest == expected.manifest
        assert got.values.tobytes() == expected.values.tobytes()
        assert not np.shares_memory(got.values, model.flat)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_installing_layer_k_changes_only_its_slice(self, k):
        model = small_model(num_blocks=3)
        before = model.flat.copy()
        values = RngStream(k, 0).draw_gaussian(model.layer_size)
        model.install_adapter_params(FlatParams.from_layers([(k, values)]))
        span = slice((k - 1) * model.layer_size, k * model.layer_size)
        assert np.array_equal(model.flat[span], values)
        outside = np.ones(model.flat.size, dtype=bool)
        outside[span] = False
        assert np.array_equal(model.flat[outside], before[outside])

    def test_rejected_install_writes_nothing(self):
        model = small_model(num_blocks=3)
        before = model.flat.copy()
        params = FlatParams.from_layers(
            [(1, np.ones(model.layer_size)), (2, np.ones(model.layer_size - 1))]
        )
        with pytest.raises(InvalidArgumentError):
            model.install_adapter_params(params)
        assert np.array_equal(model.flat, before)

    def test_adapter_params_is_a_copy_later_steps_leave_alone(self):
        model = golden_model()
        whole, low = model.adapter_params(), model.adapter_params([1])
        snapshot = whole.values.copy(), low.values.copy()
        stream = RngStream(19, 0)
        images = stream.draw_uniform(4 * 8).reshape(4, 8)
        masks = (stream.draw_uniform(4 * 8).reshape(4, 8) < 0.5).astype(float)
        state = AdamState.for_params(whole)
        for _ in range(3):
            _, grads = objective_and_grad(images, masks, model, None, 0.0)
            params, state = adam_step(model.adapter_params(), grads, state, 1e-2)
            model.install_adapter_params(params)
        assert not np.array_equal(model.flat, snapshot[0])
        assert np.array_equal(whole.values, snapshot[0])
        assert np.array_equal(low.values, snapshot[1])


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


class TestSegLoss:
    def test_uninformative_logit_on_foreground(self):
        assert seg_loss(np.array([0.0]), np.array([1.0])) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_symmetric_background_case(self):
        assert seg_loss(np.array([0.0]), np.array([0.0])) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_saturated_correct_prediction_is_tiny(self):
        assert seg_loss(np.array([40.0]), np.array([1.0])) <= 1e-6

    def test_loss_is_non_negative(self):
        stream = RngStream(11, 0)
        for _ in range(20):
            logits = 5.0 * stream.draw_gaussian(16)
            y = (stream.draw_uniform(16) < 0.5).astype(float)
            assert seg_loss(logits, y) >= 0.0

    def test_rejects_non_binary_mask(self):
        with pytest.raises(InvalidArgumentError):
            seg_loss(np.zeros(3), np.array([0.0, 0.5, 1.0]))


class TestRegLoss:
    def _params(self, values):
        return FlatParams(np.asarray(values, dtype=float), ((1, len(values)),))

    def test_self_cosine_is_minus_one(self):
        theta = self._params([0.3, -1.2, 4.0])
        assert reg_loss(theta, theta) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_vectors_give_zero(self):
        assert reg_loss(self._params([1.0, 0.0]), self._params([0.0, 2.0])) == pytest.approx(0.0)

    def test_analytic_cosine_value(self):
        value = reg_loss(self._params([1.0, 0.0]), self._params([1.0, 1.0]))
        assert value == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-12)

    def test_zero_current_vector_is_neutral(self):
        assert reg_loss(self._params([0.0, 0.0]), self._params([1.0, 1.0])) == 0.0

    def test_range_is_bounded(self):
        stream = RngStream(12, 0)
        for _ in range(100):
            a = self._params(stream.draw_gaussian(6))
            b = self._params(stream.draw_gaussian(6))
            assert -1.0 - 1e-12 <= reg_loss(a, b) <= 1.0 + 1e-12

    def test_manifest_mismatch_raises(self):
        a = FlatParams(np.ones(2), ((1, 2),))
        b = FlatParams(np.ones(2), ((2, 2),))
        with pytest.raises(InvalidArgumentError):
            reg_loss(a, b)

    def test_bitwise_equal_to_negated_cosine_of_two_norms_and_a_dot(self):
        # Reference: the cosine as an array-scalar quotient, negated.
        stream = RngStream(13, 0)
        for size in (3, 8192):
            for _ in range(20):
                a, b = stream.draw_gaussian(size), stream.draw_gaussian(size)
                na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
                expected = -float(np.dot(a, b) / (na * nb))
                value = reg_loss(self._params(a), self._params(b))
                assert np.float64(value).tobytes() == np.float64(expected).tobytes()


class TestObjective:
    def _fixture(self, beta):
        model = golden_model()
        data = RngStream(4, 4)
        images = data.draw_uniform(3 * 8).reshape(3, 8)
        masks = (data.draw_uniform(3 * 8).reshape(3, 8) < 0.4).astype(float)
        ref = model.adapter_params([1]).with_values(data.draw_gaussian(2 * 8 * 2))
        return model, images, masks, ref

    def test_beta_zero_equals_mean_seg_loss(self):
        model, images, masks, ref = self._fixture(0.0)
        expected = seg_loss(model_forward(images, model), masks)
        assert objective(images, masks, model, ref, 0.0) == pytest.approx(expected, abs=1e-15)

    def test_objective_is_seg_plus_beta_reg(self):
        model, images, masks, ref = self._fixture(0.01)
        seg = seg_loss(model_forward(images, model), masks)
        reg = reg_loss(model.adapter_params([1]), ref)
        assert objective(images, masks, model, ref, 0.01) == pytest.approx(
            seg + 0.01 * reg, abs=1e-15
        )

    def test_linear_combination_example(self):
        # loss 0.5 and regularizer -1 at beta 0.01 combine to 0.49
        assert 0.5 + 0.01 * (-1.0) == pytest.approx(0.49)
        model, images, masks, _ = self._fixture(0.01)
        ref = model.adapter_params([1])  # self-reference: reg term is exactly -1
        seg = seg_loss(model_forward(images, model), masks)
        assert objective(images, masks, model, ref, 0.01) == pytest.approx(seg - 0.01, abs=1e-15)

    def test_golden_objective_regression(self):
        model = golden_model()
        data = RngStream(0, derive_stream_id("golden", "data"))
        data.draw_uniform(8)  # stream position matches the golden bootstrap
        images = data.draw_uniform(3 * 8).reshape(3, 8)
        masks = (data.draw_uniform(3 * 8).reshape(3, 8) < 0.4).astype(float)
        ref = model.adapter_params([1]).with_values(data.draw_gaussian(2 * 8 * 2))
        golden = json.loads(GOLDEN.read_text())
        assert objective(images, masks, model, ref, 0.02) == pytest.approx(
            golden["objective"], rel=1e-10
        )

    # The finite-difference oracle differentiates objective while the analytic
    # side differentiates objective_and_grad, so the two losses must agree exactly.
    @pytest.mark.parametrize("beta", [0.0, 0.01, 0.5])
    def test_equals_objective_and_grad_loss(self, beta):
        model, images, masks, ref = self._fixture(beta)
        ref = ref if beta > 0 else None
        loss, _ = objective_and_grad(images, masks, model, ref, beta)
        assert objective(images, masks, model, ref, beta) == loss

    @pytest.mark.parametrize(
        "case",
        [
            "negative_beta",
            "missing_reference",
            "shape_mismatch",
            "non_binary_mask",
            "reference_layer_absent",
            "reference_length_mismatch",
        ],
    )
    def test_rejects_invalid_arguments(self, case):
        model, images, masks, ref = self._fixture(0.01)
        beta = 0.01
        if case == "negative_beta":
            beta = -0.1
        elif case == "missing_reference":
            ref = None
        elif case == "shape_mismatch":
            masks = masks[:2]
        elif case == "non_binary_mask":
            masks = masks.copy()
            masks[0, 0] = 0.5
        elif case == "reference_layer_absent":
            ref = FlatParams.from_layers([(3, np.ones(model.layer_size))])
        else:
            ref = FlatParams.from_layers([(1, np.ones(model.layer_size - 1))])
        with pytest.raises(InvalidArgumentError):
            objective(images, masks, model, ref, beta)


class TestGradAdapters:
    def test_matches_finite_differences_on_one_fixture(self):
        fx = gradient_fixtures()[0]
        assert gradient_rel_error(fx) < 1e-4

    def test_dead_bottleneck_gets_zero_down_gradient(self):
        model = small_model(feature_dim=6, bottleneck_dim=2, num_blocks=2)
        stream = RngStream(13, 0)
        # Strictly negative down rows keep the bottleneck pre-activation <= 0
        # for the non-negative post-ReLU features, so relu kills that path.
        for _, adapter in model.blocks:
            adapter.down_proj = -np.abs(stream.draw_gaussian(12).reshape(2, 6)) - 0.1
            adapter.up_proj = stream.draw_gaussian(12).reshape(6, 2)
        images = stream.draw_uniform(4 * 6).reshape(4, 6)
        masks = (stream.draw_uniform(4 * 6).reshape(4, 6) < 0.5).astype(float)
        grads = objective_and_grad(images, masks, model, None, 0.0)[1]
        for k in (1, 2):
            layer = grads.layer(k)
            down = layer[: 2 * 6]
            assert np.array_equal(down, np.zeros(12))

    def test_zero_up_init_still_moves_up_projection(self):
        model = small_model(feature_dim=6, bottleneck_dim=2, num_blocks=2)
        stream = RngStream(14, 0)
        images = stream.draw_uniform(4 * 6).reshape(4, 6)
        masks = (stream.draw_uniform(4 * 6).reshape(4, 6) < 0.5).astype(float)
        grads = objective_and_grad(images, masks, model, None, 0.0)[1]
        up = grads.layer(1)[2 * 6 :]
        assert np.any(up != 0.0)

    def test_duplicated_batch_gives_same_gradient(self):
        model = small_model()
        stream = RngStream(15, 0)
        images = stream.draw_uniform(3 * 8).reshape(3, 8)
        masks = (stream.draw_uniform(3 * 8).reshape(3, 8) < 0.5).astype(float)
        g1 = objective_and_grad(images, masks, model, None, 0.0)[1]
        g2 = objective_and_grad(
            np.concatenate([images, images]), np.concatenate([masks, masks]), model, None, 0.0
        )[1]
        assert np.allclose(g1.values, g2.values, atol=1e-12)

    def test_regularizer_gradient_matches_finite_differences(self):
        model = small_model()
        stream = RngStream(16, 0)
        template = model.adapter_params()
        model.install_adapter_params(
            template.with_values(0.3 * stream.draw_gaussian(template.total_size))
        )
        images = stream.draw_uniform(2 * 8).reshape(2, 8)
        masks = (stream.draw_uniform(2 * 8).reshape(2, 8) < 0.5).astype(float)
        ref = model.adapter_params([1]).with_values(stream.draw_gaussian(2 * 8 * 2))
        _, analytic = objective_and_grad(images, masks, model, ref, 0.5)
        scratch = model.clone()
        start = model.adapter_params()

        def f(values):
            scratch.install_adapter_params(start.with_values(values))
            return objective(images, masks, scratch, ref, 0.5)

        numeric = finite_diff_grad(f, start.values, 1e-5)
        scale = max(np.max(np.abs(numeric)), 1e-12)
        assert np.max(np.abs(analytic.values - numeric)) / scale < 1e-4

    def test_reference_on_non_consecutive_layers(self):
        # Layers 1 and 3 are not one slice of the flat buffer.
        model = small_model(num_blocks=3)
        stream = RngStream(24, 0)
        template = model.adapter_params()
        model.install_adapter_params(
            template.with_values(0.3 * stream.draw_gaussian(template.total_size))
        )
        images = stream.draw_uniform(2 * 8).reshape(2, 8)
        masks = (stream.draw_uniform(2 * 8).reshape(2, 8) < 0.5).astype(float)
        ref = model.adapter_params([1, 3]).with_values(stream.draw_gaussian(2 * 32))
        loss, analytic = objective_and_grad(images, masks, model, ref, 0.5)
        seg, seg_grads = objective_and_grad(images, masks, model, None, 0.0)
        assert loss == objective(images, masks, model, ref, 0.5)
        assert loss == seg + 0.5 * reg_loss(model.adapter_params([1, 3]), ref)
        assert np.array_equal(analytic.layer(2), seg_grads.layer(2))
        scratch = model.clone()

        def f(values):
            scratch.install_adapter_params(template.with_values(values))
            return objective(images, masks, scratch, ref, 0.5)

        numeric = finite_diff_grad(f, model.flat.copy(), 1e-5)
        scale = max(np.max(np.abs(numeric)), 1e-12)
        assert np.max(np.abs(analytic.values - numeric)) / scale < 1e-4


def allocating_objective_and_grad(images, masks, model, theta_ref, beta):
    """The out-of-place backward objective_and_grad replaced, kept as its reference.

    It allocates every intermediate, propagates the input gradient through
    every block, builds one array per layer and adds the regularizer's
    gradient layer by layer, in the order the kernel must keep.
    """
    batch, pixels = images.shape
    h, cache = images, []
    for block, adapter in model.blocks:
        r = np.maximum(h @ block.weight.T + block.bias, 0.0)
        u = r @ adapter.down_proj.T
        s = np.maximum(u, 0.0)
        h = s @ adapter.up_proj.T + r
        cache.append((r, u, s))
    p = masked_sigmoid(h @ model.head.weight.T + model.head.bias)
    clamped = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    loss = float(np.mean(-masks * np.log(clamped) - (1.0 - masks) * np.log1p(-clamped)))
    inside = (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
    g = np.where(inside, p - masks, 0.0) / (batch * pixels)
    g = g @ model.head.weight
    layers = {}
    for k in range(model.num_blocks, 0, -1):
        block, adapter = model.blocks[k - 1]
        r, u, s = cache[k - 1]
        d_up = g.T @ s
        d_hidden = (g @ adapter.up_proj) * (u > 0)
        d_down = d_hidden.T @ r
        g = ((d_hidden @ adapter.down_proj + g) * (r > 0)) @ block.weight
        layers[k] = np.concatenate([d_down.ravel(), d_up.ravel()])
    if beta > 0:
        theta_low = model.adapter_params(list(theta_ref.layer_indices))
        loss += beta * reg_loss(theta_low, theta_ref)
        a, b = theta_low.values, theta_ref.values
        na, nb, dot = float(np.linalg.norm(a)), float(np.linalg.norm(b)), float(np.dot(a, b))
        reg_grad = beta * -(b / (na * nb) - a * dot / (na**3 * nb))
        for k, part in zip(theta_ref.layer_indices, reg_grad.reshape(len(theta_ref.manifest), -1)):
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
            theta_ref = model.adapter_params(low_layers).with_values(
                stream.draw_gaussian(len(low_layers) * model.layer_size)
            )
        return images, masks, model, theta_ref, beta

    @pytest.mark.parametrize(
        "shape",
        [(8, 2, 3, 5), (256, 16, 6, 32)],
        ids=["small", "default_ini"],
    )
    @pytest.mark.parametrize(
        "low_layers, beta",
        [([1], 0.01), ([1, 2], 0.5), ([1, 3], 0.5), (None, 0.0)],
        ids=["L1", "L2", "layers_1_3", "beta0"],
    )
    def test_bitwise_equal_to_allocating_backward(self, shape, low_layers, beta):
        images, masks, model, theta_ref, beta = self._case(shape, low_layers, beta, seed=31)
        want_loss, want = allocating_objective_and_grad(images, masks, model, theta_ref, beta)
        loss, grads = objective_and_grad(images, masks, model, theta_ref, beta)
        assert float.hex(loss) == float.hex(want_loss)
        assert grads.values.tobytes() == want.tobytes()
        assert grads.manifest == model.manifest()
        out = np.full_like(model.flat, np.nan)
        loss_out, written = objective_and_grad(images, masks, model, theta_ref, beta, out=out)
        assert written is out
        assert float.hex(loss_out) == float.hex(want_loss)
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros(96, dtype=np.float32)])
    def test_rejects_out_that_is_not_a_flat_float64_buffer(self, bad):
        images, masks, model, _, _ = self._case((8, 2, 3, 5), None, 0.0, seed=32)
        assert model.flat.size == 96
        with pytest.raises(InvalidArgumentError):
            objective_and_grad(images, masks, model, None, 0.0, out=bad)


class TestAdamStep:
    def _params(self, values):
        return FlatParams(np.asarray(values, dtype=float), ((1, len(values)),))

    def test_zero_gradient_leaves_params_unchanged(self):
        params = self._params([1.0, -2.0, 3.0])
        state = AdamState.for_params(params)
        new_params, new_state = adam_step(params, self._params([0.0, 0.0, 0.0]), state, 1e-3)
        assert np.array_equal(new_params.values, params.values)
        assert new_state.step_count == 1

    def test_constant_gradient_reaches_unit_step_size(self):
        lr = 1e-3
        params = self._params([0.0, 0.0])
        grads = self._params([0.5, -2.0])
        state = AdamState.for_params(params)
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
            state = AdamState.for_params(params)
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
        state = AdamState.for_params(params)
        m = v = np.zeros(257)
        for t in range(1, 31):
            grad_values = stream.draw_gaussian(257) * 10.0 ** stream.draw_integer(-6, 2)
            params, state = adam_step(params, self._params(grad_values), state, 3e-3)
            values, m, v = reference(values, grad_values, m, v, t, 3e-3)
            assert params.values.tobytes() == values.tobytes()
            assert state.first_moment.tobytes() == m.tobytes()
            assert state.second_moment.tobytes() == v.tobytes()
            assert state.step_count == t

    def test_inputs_are_left_unchanged(self):
        params = self._params([1.0, -2.0])
        state = AdamState.for_params(params)
        adam_step(params, self._params([0.5, 0.5]), state, 1e-2)
        assert np.array_equal(params.values, [1.0, -2.0])
        assert state.step_count == 0 and not np.any(state.first_moment)

    def test_shape_mismatch_raises(self):
        params = self._params([1.0, 2.0])
        grads = FlatParams(np.ones(3), ((1, 3),))
        with pytest.raises(InvalidArgumentError):
            adam_step(params, grads, AdamState.for_params(params), 1e-3)


class TestFrozenImmutability:
    def test_digest_unchanged_by_training_steps(self):
        model = small_model()
        digest = model.frozen_digest()
        stream = RngStream(18, 0)
        images = stream.draw_uniform(4 * 8).reshape(4, 8)
        masks = (stream.draw_uniform(4 * 8).reshape(4, 8) < 0.5).astype(float)
        params = model.adapter_params()
        state = AdamState.for_params(params)
        for _ in range(5):
            _, grads = objective_and_grad(images, masks, model, None, 0.0)
            params, state = adam_step(model.adapter_params(), grads, state, 1e-2)
            model.install_adapter_params(params)
        assert model.frozen_digest() == digest

    def test_frozen_arrays_reject_writes(self):
        model = small_model()
        with pytest.raises(ValueError):
            model.blocks[0][0].weight[0, 0] = 99.0

    def test_model_requires_two_blocks(self):
        eye = FrozenBlock(np.eye(4), np.zeros(4))
        adapter = AdapterParams(np.ones((1, 4)), np.zeros((4, 1)))
        with pytest.raises(InvalidArgumentError):
            ToyFM([(eye, adapter)], eye, 4, 1)
