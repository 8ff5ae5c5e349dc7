"""Property tests of the similarity matrix (skipped when hypothesis is not installed)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from fedsim.server import SIMILARITY_METRICS, pairwise_similarity  # noqa: E402

# Integer-valued uploads: every Gram entry and difference is exact in float64,
# so a relabelling of the clients must permute S bit for bit.
integer_uploads = st.integers(2, 6).flatmap(
    lambda n: st.integers(1, 16).flatmap(
        lambda size: arrays(np.float64, (n, size), elements=st.integers(-8, 8).map(float))
    )
)


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
    t = np.random.default_rng(seed).uniform(-1e6, 1e6, x.shape[1])
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
