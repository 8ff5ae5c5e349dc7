"""Property tests of the similarity matrix, the simplex projection and the aggregator.

Skipped when hypothesis is not installed.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from fedsim.errors import NumericError  # noqa: E402
from fedsim.numerics import simplex_project  # noqa: E402
from fedsim.oracles import kkt_simplex_argmin  # noqa: E402
from fedsim.server import (  # noqa: E402
    NORMALIZATIONS,
    SIMILARITY_METRICS,
    CollaborationMatrix,
    SgcaConfig,
    aggregate,
    pairwise_similarity,
    solve_row,
    update_matrix,
)

def layered_uploads(max_clients, elements):
    """(N, L, S) uploads: 2..max_clients clients of 1..3 layers of 1..16 values each."""
    return st.tuples(st.integers(2, max_clients), st.integers(1, 3), st.integers(1, 16)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=elements)
    )


# Integer-valued uploads: every Gram entry and difference is exact in float64,
# so a relabelling of the clients must permute S bit for bit.
integer_uploads = layered_uploads(6, st.integers(-8, 8).map(float))


@settings(deadline=None, database=None)
@given(
    x=integer_uploads,
    seed=st.integers(0, 2**32 - 1),
    normalization=st.sampled_from(["none", "max_abs_row"]),
)
def test_l2_is_translation_invariant(x, seed, normalization):
    # Distinct integer rows are at least 1 apart; a translation of up to 1e6
    # rounds each coordinate of x + t by at most 6e-11.
    assume(len({row.tobytes() for row in x}) == x.shape[0])
    t = np.random.default_rng(seed).uniform(-1e6, 1e6, x.shape[1:])
    s = pairwise_similarity(x, "l2_based", normalization)
    moved = pairwise_similarity(x + t, "l2_based", normalization)
    assert np.max(np.abs(moved - s)) <= 1e-8 * max(1.0, np.max(np.abs(s)))


@settings(deadline=None, database=None)
@given(
    x=integer_uploads,
    seed=st.integers(0, 2**32 - 1),
    metric=st.sampled_from(SIMILARITY_METRICS),
    normalization=st.sampled_from(["none", "max_abs_row"]),
)
def test_relabelling_clients_permutes_similarity(x, seed, metric, normalization):
    perm = np.random.default_rng(seed).permutation(x.shape[0])
    s = pairwise_similarity(x, metric, normalization)
    permuted = pairwise_similarity(x[perm], metric, normalization)
    assert np.array_equal(permuted, s[np.ix_(perm, perm)])


def vectors(max_size, bound):
    return st.integers(1, max_size).flatmap(
        lambda n: arrays(np.float64, n, elements=st.floats(-bound, bound))
    )


@settings(deadline=None, database=None)
@given(c=vectors(8, 10.0))
def test_simplex_project_matches_kkt_enumeration(c):
    assert np.max(np.abs(simplex_project(c) - kkt_simplex_argmin(c))) <= 1e-9


@settings(deadline=None, database=None)
@given(c=vectors(16, 10.0), t=st.floats(-100.0, 100.0))
def test_simplex_project_ignores_a_common_shift(c, t):
    # The simplex fixes the sum, so adding t to every entry moves only the threshold.
    assert np.max(np.abs(simplex_project(c + t) - simplex_project(c))) <= 1e-9


@settings(deadline=None, database=None)
@given(c=vectors(16, 10.0), seed=st.integers(0, 2**32 - 1))
def test_simplex_project_commutes_with_permutations(c, seed):
    # The threshold comes from the sorted values alone, so it is the same bits.
    perm = np.random.default_rng(seed).permutation(c.size)
    assert np.array_equal(simplex_project(c[perm]), simplex_project(c)[perm])


def stochastic(n, seed):
    w = np.abs(np.random.default_rng(seed).standard_normal((n, n)))
    return w / w.sum(axis=1, keepdims=True)


@settings(deadline=None, database=None)
@given(
    n=st.integers(1, 8),
    upload=vectors(16, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_aggregate_maps_identical_uploads_to_themselves(n, upload, seed):
    x = np.tile(upload, (n, 1, 1))
    mixed = aggregate(CollaborationMatrix(stochastic(n, seed)), x.copy())
    np.testing.assert_allclose(mixed, x, rtol=1e-12, atol=1e-12 * max(1.0, np.max(np.abs(upload))))


float_uploads = layered_uploads(8, st.floats(-100.0, 100.0))
# 0 and log-uniform up to 1e300: the QP must stay exact at any finite alpha.
alphas = st.one_of(st.just(0.0), st.floats(-3.0, 300.0).map(lambda e: 10.0**e))


@settings(deadline=None, database=None)
@given(
    x=float_uploads,
    alpha=alphas,
    metric=st.sampled_from(SIMILARITY_METRICS),
    normalization=st.sampled_from(NORMALIZATIONS),
)
def test_update_matrix_rows_are_stochastic(x, alpha, metric, normalization):
    cfg = SgcaConfig(alpha, metric, normalization)
    try:
        pairwise_similarity(x, metric, normalization)
    except NumericError:
        # A self-similarity overflowed its row's scaling: the round cannot mix.
        with pytest.raises(NumericError):
            update_matrix(x, cfg)
        return
    w = update_matrix(x, cfg).w
    assert np.all(w >= 0.0)
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-9


@settings(deadline=None, database=None)
@given(
    x=float_uploads,
    alpha=alphas,
    metric=st.sampled_from(SIMILARITY_METRICS),
    normalization=st.sampled_from(NORMALIZATIONS),
)
def test_update_matrix_solves_all_rows_as_each_row_alone(x, alpha, metric, normalization):
    try:
        s = pairwise_similarity(x, metric, normalization)
    except NumericError:
        assume(False)
    w = update_matrix(x, SgcaConfig(alpha, metric, normalization)).w
    assert np.array_equal(w, np.vstack([solve_row(row, alpha) for row in s]))
