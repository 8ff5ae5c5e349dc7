import numpy as np
import pytest

from fedsim.errors import InvalidArgumentError
from fedsim.numerics import (
    FlatParams,
    RngStream,
    derive_stream_id,
    finite_diff_grad,
    simplex_project,
)
from fedsim.oracles import kkt_simplex_argmin


class TestSimplexProject:
    def test_point_already_on_simplex_is_fixed(self):
        c = np.array([0.2, 0.3, 0.5])
        assert np.array_equal(simplex_project(c), c)

    def test_mixed_sign_case_matches_kkt_oracle(self):
        c = np.array([0.3333, 0.2333, -0.0667])
        w = simplex_project(c)
        assert np.max(np.abs(w - kkt_simplex_argmin(c))) < 1e-12
        assert np.max(np.abs(w - np.array([0.5, 0.4, 0.1]))) < 1e-9

    def test_shift_invariance(self):
        stream = RngStream(7, 0)
        for t in (-3.0, -0.5, 0.0, 0.25, 10.0):
            c = stream.draw_gaussian(6)
            assert np.allclose(simplex_project(c + t), simplex_project(c), atol=1e-12)

    def test_permutation_equivariance_exact(self):
        stream = RngStream(8, 0)
        for _ in range(50):
            c = stream.draw_gaussian(5)
            perm = stream.permutation(5)
            assert np.array_equal(simplex_project(c[perm]), simplex_project(c)[perm])

    def test_output_is_a_probability_vector(self):
        stream = RngStream(9, 0)
        for _ in range(1000):
            n = stream.draw_integer(1, 9)
            scale = 10.0 ** stream.draw_uniform(1, -2.0, 2.0)[0]
            w = simplex_project(scale * stream.draw_gaussian(n))
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_matches_kkt_oracle_on_random_instances(self):
        stream = RngStream(10, 0)
        worst = 0.0
        for _ in range(1000):
            n = stream.draw_integer(2, 9)
            c = stream.draw_gaussian(n)
            worst = max(worst, float(np.max(np.abs(simplex_project(c) - kkt_simplex_argmin(c)))))
        assert worst < 1e-9

    def test_rejects_non_finite_and_empty(self):
        with pytest.raises(InvalidArgumentError):
            simplex_project(np.array([0.1, np.nan]))
        with pytest.raises(InvalidArgumentError):
            simplex_project(np.array([0.1, np.inf]))
        with pytest.raises(InvalidArgumentError):
            simplex_project(np.array([]))


class TestFiniteDiff:
    def test_quadratic_gradient(self):
        grad = finite_diff_grad(lambda v: float(np.sum(v**2)), np.array([1.0, 2.0]), 1e-5)
        assert np.allclose(grad, [2.0, 4.0], atol=1e-6)

    def test_constant_function_has_zero_gradient(self):
        grad = finite_diff_grad(lambda v: 3.5, np.array([0.3, -1.0, 2.0]), 1e-5)
        assert np.array_equal(grad, np.zeros(3))

    def test_matches_analytic_cosine_gradient(self):
        ref = np.array([1.0, 1.0])

        def neg_cos(v):
            return -float(np.dot(v, ref) / (np.linalg.norm(v) * np.linalg.norm(ref)))

        grad = finite_diff_grad(neg_cos, np.array([1.0, 0.0]), 1e-5)
        assert np.allclose(grad, [0.0, -1.0 / np.sqrt(2.0)], atol=1e-5)

    def test_rejects_non_positive_step(self):
        with pytest.raises(InvalidArgumentError):
            finite_diff_grad(lambda v: 0.0, np.zeros(2), 0.0)


class TestRngStream:
    def test_zero_count_gives_empty_vector(self):
        assert RngStream(1, 2).draw_gaussian(0).size == 0

    def test_same_key_replays_identical_draws(self):
        a = RngStream(42, 7).draw_gaussian(100)
        b = RngStream(42, 7).draw_gaussian(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 7).draw_gaussian(100)
        b = RngStream(42, 8).draw_gaussian(100)
        assert not np.array_equal(a, b)

    def test_gaussian_moments(self):
        draws = RngStream(3, 0).draw_gaussian(100_000)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.05

    def test_derive_stream_id_is_stable_and_distinct(self):
        a = derive_stream_id("datagen", 0)
        assert a == derive_stream_id("datagen", 0)
        assert a != derive_stream_id("datagen", 1)
        assert 0 <= a < 2**64

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(InvalidArgumentError):
            RngStream(-1, 0)


class TestFlatParams:
    def test_split_concat_round_trip_is_identity(self):
        stream = RngStream(5, 0)
        parts = [(1, stream.draw_gaussian(4)), (3, stream.draw_gaussian(2)), (7, stream.draw_gaussian(5))]
        params = FlatParams.from_layers(parts)
        rebuilt = FlatParams.from_layers(params.split())
        assert rebuilt.equals(params)

    def test_layer_lookup(self):
        params = FlatParams.from_layers([(1, np.array([1.0, 2.0])), (2, np.array([3.0]))])
        assert np.array_equal(params.layer(2), [3.0])
        with pytest.raises(InvalidArgumentError):
            params.layer(5)

    def test_rejects_bad_manifests(self):
        with pytest.raises(InvalidArgumentError):
            FlatParams(np.array([1.0, 2.0]), ((1, 1),))  # length mismatch
        with pytest.raises(InvalidArgumentError):
            FlatParams(np.array([1.0, 2.0]), ((2, 1), (1, 1)))  # not increasing
        with pytest.raises(InvalidArgumentError):
            FlatParams(np.array([1.0, np.nan]), ((1, 2),))

    def test_values_are_read_only(self):
        params = FlatParams(np.array([1.0, 2.0]), ((1, 2),))
        with pytest.raises(ValueError):
            params.values[0] = 5.0
