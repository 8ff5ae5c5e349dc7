from typing import NamedTuple

import numpy as np
import pytest

from fedsim.errors import InvalidArgumentError, NumericError, ProtocolError
from fedsim.fed_client import ClientUpdate
from fedsim.numerics import RngStream
from fedsim.oracles import kkt_row_argmin
from fedsim.server import (
    CollaborationMatrix,
    SgcaConfig,
    aggregate,
    fedavg_aggregate,
    pairwise_similarity,
    solve_row,
    update_matrix,
)
from fedsim.transport import deserialize_params, payload_scalar_count, serialize_params


class Upload(NamedTuple):
    """One client's upload before it goes on the wire: a vector and the manifest it is laid out by."""

    values: np.ndarray
    manifest: tuple


def flat(values, manifest=None):
    values = np.asarray(values, dtype=float)
    return Upload(values, manifest or ((1, values.size),))


def uploads(params):
    """The server's (N, P) matrix: each upload sent over the wire and decoded into its row.

    The decode checks every upload against the first one's manifest, as the
    round loop checks them against the round's low layers.
    """
    manifest = params[0].manifest
    x = np.zeros((len(params), params[0].values.size))
    for row, p in zip(x, params):
        deserialize_params(serialize_params(*p), manifest=manifest, out=row)
    return x


def make_update(client_id, values, round_index=1):
    """A client's round report and its upload: the wire bytes of a one-layer vector."""
    update = ClientUpdate(
        client_id=client_id,
        round_index=round_index,
        train_loss=0.0,
        test_iou=0.0,
        test_dice=0.0,
    )
    return update, serialize_params(*flat(values))


def round_inputs(sent):
    """update_matrix's reports and upload matrix for (report, upload) pairs of one-layer uploads."""
    manifest = ((1, payload_scalar_count(sent[0][1])),)
    x = np.zeros((len(sent), manifest[0][1]))
    for row, (_, payload) in zip(x, sent):
        deserialize_params(payload, manifest=manifest, out=row)
    return [update for update, _ in sent], x


def pair_loop_similarity(params, metric, normalization):
    """Reference: one dot product or difference vector per pair, one row at a time."""
    x = np.stack([p.values for p in params])
    n = x.shape[0]
    s = np.zeros((n, n))
    if metric == "inner":
        for i in range(n):
            for j in range(i, n):
                s[i, j] = s[j, i] = float(x[i] @ x[j])
    elif metric == "cosine":
        norms = np.linalg.norm(x, axis=1)
        for i in range(n):
            for j in range(i, n):
                if norms[i] == 0.0 or norms[j] == 0.0:
                    value = 0.0
                else:
                    value = float(x[i] @ x[j] / (norms[i] * norms[j]))
                s[i, j] = s[j, i] = value
    else:
        order = 1 if metric == "l1_based" else 2
        for i in range(n):
            for j in range(i + 1, n):
                s[i, j] = s[j, i] = -float(np.linalg.norm(x[i] - x[j], ord=order))
    if normalization == "max_abs_row":
        for i in range(n):
            off = np.abs(np.delete(s[i], i)) if n > 1 else np.zeros(0)
            scale = off.max() if off.size else 0.0
            if scale > 0.0:
                s[i] = s[i] / scale
    return s


def far_clusters(spread, size=4096, per_cluster=4, seed=40):
    """Two clusters of unit width whose centers are `spread` apart, interleaved."""
    stream = RngStream(seed, 0)
    base = 100.0 * stream.draw_gaussian(size)
    far = stream.draw_gaussian(size)
    far *= spread / np.linalg.norm(far)
    params = []
    for k in range(2 * per_cluster):
        noise = stream.draw_gaussian(size)
        params.append(flat(base + (far if k % 2 else 0.0) + noise / np.linalg.norm(noise)))
    return params


class TestPairwiseSimilarity:
    def test_l2_identical_vectors_give_zero(self):
        for values in ([1.0, 2.0], RngStream(41, 0).draw_gaussian(49152)):
            params = [flat(values)] * 3
            for normalization in ("none", "max_abs_row"):
                s = pairwise_similarity(uploads(params), "l2_based", normalization)
                assert np.array_equal(s, np.zeros((3, 3)))

    def test_l2_three_four_five_triangle(self):
        s = pairwise_similarity(uploads([flat([0.0, 0.0]), flat([3.0, 4.0])]), "l2_based", "none")
        assert s[0, 1] == pytest.approx(-5.0)
        assert s[1, 0] == pytest.approx(-5.0)

    def test_l1_distance(self):
        s = pairwise_similarity(uploads([flat([0.0, 0.0]), flat([3.0, 4.0])]), "l1_based", "none")
        assert s[0, 1] == pytest.approx(-7.0)

    def test_cosine_self_similarity_is_one(self):
        stream = RngStream(30, 0)
        params = [flat(stream.draw_gaussian(5)) for _ in range(4)]
        s = pairwise_similarity(uploads(params), "cosine", "none")
        assert np.allclose(np.diag(s), 1.0)
        assert np.all(np.abs(s) <= 1.0 + 1e-12)

    def test_inner_self_similarity_is_squared_norm(self):
        v = np.array([1.0, 2.0, 2.0])
        s = pairwise_similarity(uploads([flat(v), flat(-v)]), "inner", "none")
        assert s[0, 0] == pytest.approx(9.0)

    def test_raw_matrix_is_symmetric(self):
        stream = RngStream(31, 0)
        for size in (6, 1000):
            params = [flat(3.0 + stream.draw_gaussian(size)) for _ in range(5)]
            for metric in ("inner", "cosine", "l1_based", "l2_based"):
                s = pairwise_similarity(uploads(params), metric, "none")
                assert np.array_equal(s, s.T), metric
            l2 = pairwise_similarity(uploads(params), "l2_based", "none")
            assert np.array_equal(np.diag(l2), np.zeros(5))

    def test_max_abs_row_normalization_bounds_off_diagonal(self):
        stream = RngStream(32, 0)
        params = [flat(10.0 * stream.draw_gaussian(6)) for _ in range(4)]
        s = pairwise_similarity(uploads(params), "l2_based", "max_abs_row")
        for i in range(4):
            off = np.abs(np.delete(s[i], i))
            assert off.max() == pytest.approx(1.0)

    @pytest.mark.parametrize("metric", ["inner", "cosine"])
    def test_overflowing_self_similarity_is_a_numeric_error(self, metric):
        # The uploads' only off-diagonal similarity is subnormal, so the scaled diagonal is inf.
        x = np.array([[1.0, 0.0], [2.2250738585e-313, 1.0]])
        with pytest.raises(NumericError, match=f"^{metric} similarity"):
            pairwise_similarity(x, metric, "max_abs_row")
        sent = [make_update(0, x[0]), make_update(1, x[1])]
        with pytest.raises(NumericError):
            update_matrix(*round_inputs(sent), SgcaConfig(metric=metric))
        assert np.all(np.isfinite(pairwise_similarity(x, metric, "none")))

    def test_qp_inputs_far_beyond_float64_resolution_solve_exactly(self):
        # Row 0's scaled self-similarity is 2e95, so its QP input is ~1e95.
        x = np.array([[1.0], [5.06974647e-96]])
        sent = [make_update(0, x[0]), make_update(1, x[1])]
        w = update_matrix(*round_inputs(sent), SgcaConfig(metric="inner")).w
        assert np.array_equal(w, [[1.0, 0.0], [0.75, 0.25]])

    def test_manifest_mismatch_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            pairwise_similarity(uploads([flat([1.0]), flat([1.0], ((2, 1),))]), "l2_based")

    @pytest.mark.parametrize("n", [2, 4, 32])
    @pytest.mark.parametrize("size", [7, 1000, 49152])
    def test_gram_matches_pair_loop(self, n, size):
        stream = RngStream(39, n * size)
        offset = stream.draw_gaussian(size)
        params = [flat(offset + 0.05 * stream.draw_gaussian(size)) for _ in range(n)]
        for metric in ("inner", "cosine", "l1_based", "l2_based"):
            s = pairwise_similarity(uploads(params), metric, "max_abs_row")
            expected = pair_loop_similarity(params, metric, "max_abs_row")
            assert np.max(np.abs(s - expected)) <= 1e-12, metric

    @pytest.mark.parametrize("spread", [50.0, 1e4, 1e6])
    def test_far_apart_tight_clusters_match_pair_loop(self, spread):
        # Uploads far from the first one and close to each other cancel in
        # G_ii + G_jj - 2 G_ij; 50 keeps every pair on the Gram path, the
        # larger spreads send the far cluster's pairs past the cancellation limit.
        params = far_clusters(spread)
        s = pairwise_similarity(uploads(params), "l2_based", "max_abs_row")
        expected = pair_loop_similarity(params, "l2_based", "max_abs_row")
        assert np.max(np.abs(s - expected)) <= 1e-12

    @pytest.mark.parametrize("spread, direct_pairs", [(50.0, 0), (1e4, 6), (1e6, 6)])
    def test_only_pairs_far_from_the_first_upload_take_direct_differences(
        self, monkeypatch, spread, direct_pairs
    ):
        # Centering keeps the shared offset of the uploads (norm ~6e3 here,
        # width 1) off the Gram path's cancellation; only the far cluster's
        # 4 * 3 / 2 pairs need direct differences.
        params = far_clusters(spread)
        calls = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(1) or norm(*a, **k))
        pairwise_similarity(uploads(params), "l2_based", "max_abs_row")
        assert len(calls) == direct_pairs

    def test_duplicate_upload_among_distinct_is_exactly_zero_apart(self):
        stream = RngStream(42, 0)
        values = [stream.draw_gaussian(4096) for _ in range(3)]
        params = [flat(values[0]), flat(values[1]), flat(values[2]), flat(values[1])]
        s = pairwise_similarity(uploads(params), "l2_based", "none")
        assert s[1, 3] == 0.0 and s[3, 1] == 0.0

    def test_single_upload(self):
        params = [flat([3.0, 4.0])]
        assert np.array_equal(pairwise_similarity(uploads(params), "l2_based"), [[0.0]])
        assert np.array_equal(pairwise_similarity(uploads(params), "inner"), [[25.0]])


class TestSolveRow:
    def test_alpha_zero_gives_uniform(self):
        w = solve_row(np.array([5.0, -2.0, 0.1, 9.0]), 0.0)
        assert np.allclose(w, 0.25, atol=1e-12)
        assert len(set(w.tolist())) == 1  # exactly equal entries

    def test_vertex_solution(self):
        w = solve_row(np.array([0.0, -1.0]), 2.0)
        assert np.array_equal(w, [1.0, 0.0])

    def test_interior_solution_matches_oracle(self):
        s_row = np.array([0.0, -0.2, -0.8])
        w = solve_row(s_row, 1.0)
        assert np.max(np.abs(w - np.array([0.5, 0.4, 0.1]))) < 1e-9
        assert np.max(np.abs(w - kkt_row_argmin(1.0 / 3.0, s_row, 1.0))) < 1e-9

    def test_matches_oracle_on_random_instances(self):
        stream = RngStream(33, 0)
        worst = 0.0
        for _ in range(300):
            n = stream.draw_integer(2, 9)
            s_row = stream.draw_gaussian(n)
            alpha = stream.draw_uniform(1, 0.0, 100.0)[0]
            m = stream.draw_uniform(1, 0.0, 1.0)[0]
            diff = solve_row(s_row, alpha) - kkt_row_argmin(m, s_row, alpha)
            worst = max(worst, float(np.max(np.abs(diff))))
        assert worst < 1e-9

    def test_shift_invariance_in_similarities(self):
        stream = RngStream(34, 0)
        s_row = stream.draw_gaussian(5)
        base = solve_row(s_row, 3.0)
        assert np.allclose(solve_row(s_row + 7.5, 3.0), base, atol=1e-12)

    def test_m_value_does_not_affect_the_row(self):
        # The prior term is constant within a row, so projection shift-invariance
        # makes the solution independent of m: solve_row, which has no m, is
        # the objective's minimizer for every m.
        stream = RngStream(35, 0)
        s_row = stream.draw_gaussian(4)
        w = solve_row(s_row, 2.0)
        for m in (0.1, 0.9):
            assert np.allclose(w, kkt_row_argmin(m, s_row, 2.0), atol=1e-12)

    def test_large_alpha_selects_the_similarity_maximizer(self):
        s_row = np.array([-0.5, 0.3, -0.1, 0.2])
        w = solve_row(s_row, 1e6)
        assert w[1] > 1.0 - 1e-6

    def test_non_finite_input_rejected(self):
        with pytest.raises(InvalidArgumentError):
            solve_row(np.array([np.nan, 0.0]), 1.0)


class TestUpdateMatrix:
    def test_alpha_zero_yields_uniform_rows(self):
        sent = [make_update(i, [float(i), 0.0]) for i in range(4)]
        matrix = update_matrix(*round_inputs(sent), SgcaConfig(alpha=0.0))
        assert np.allclose(matrix.w, 0.25, atol=1e-12)
        for row in matrix.w:
            assert len(set(row.tolist())) == 1

    def test_identical_pair_attracts_weight(self):
        sent = [
            make_update(0, [1.0, 1.0]),
            make_update(1, [1.0, 1.0]),
            make_update(2, [4.0, -3.0]),
        ]
        matrix = update_matrix(*round_inputs(sent), SgcaConfig(alpha=1.0))
        assert matrix.w[0, 1] >= matrix.w[0, 2]
        assert matrix.w[1, 0] >= matrix.w[1, 2]

    def test_client_relabeling_permutes_the_matrix(self):
        stream = RngStream(36, 0)
        vectors = [stream.draw_gaussian(4) for _ in range(3)]
        sent = [make_update(i, vectors[i]) for i in range(3)]
        base = update_matrix(*round_inputs(sent), SgcaConfig())
        perm = [2, 0, 1]  # new id i holds what used to be client perm[i]
        sent = [make_update(i, vectors[perm[i]]) for i in range(3)]
        permuted = update_matrix(*round_inputs(sent), SgcaConfig())
        for i in range(3):
            for j in range(3):
                assert permuted.w[i, j] == pytest.approx(base.w[perm[i], perm[j]], abs=1e-12)

    def test_rows_are_stochastic_for_random_inputs(self):
        stream = RngStream(37, 0)
        for alpha in (0.0, 0.5, 2.0, 50.0):
            sent = [make_update(i, stream.draw_gaussian(6)) for i in range(5)]
            matrix = update_matrix(*round_inputs(sent), SgcaConfig(alpha=alpha))
            assert np.all(matrix.w >= 0.0)
            assert np.allclose(matrix.w.sum(axis=1), 1.0, atol=1e-9)

    def test_duplicate_ids_rejected(self):
        sent = [make_update(0, [1.0]), make_update(0, [2.0])]
        with pytest.raises(ProtocolError):
            update_matrix(*round_inputs(sent), SgcaConfig())

    def test_inconsistent_rounds_rejected(self):
        sent = [make_update(0, [1.0]), make_update(1, [2.0], round_index=2)]
        with pytest.raises(ProtocolError):
            update_matrix(*round_inputs(sent), SgcaConfig())


class TestAggregate:
    def _params(self, values):
        return flat(values)

    def test_identity_matrix_returns_inputs(self):
        params = [self._params([1.0, 2.0]), self._params([3.0, 4.0])]
        out = aggregate(CollaborationMatrix(np.eye(2)), uploads(params))
        assert np.array_equal(out[0], params[0].values)
        assert np.array_equal(out[1], params[1].values)

    def test_uniform_matrix_returns_mean(self):
        params = [self._params([0.0, 2.0]), self._params([2.0, 0.0])]
        out = aggregate(CollaborationMatrix(np.full((2, 2), 0.5)), uploads(params))
        assert np.allclose(out[0], [1.0, 1.0])
        assert np.allclose(out[1], [1.0, 1.0])

    def test_convex_combination(self):
        params = [self._params([1.0, 1.0]), self._params([5.0, 5.0])]
        w = CollaborationMatrix(np.array([[0.75, 0.25], [0.25, 0.75]]))
        out = aggregate(w, uploads(params))
        assert np.allclose(out[0], [2.0, 2.0])

    def test_outputs_stay_in_convex_hull(self):
        stream = RngStream(38, 0)
        params = [self._params(stream.draw_gaussian(6)) for _ in range(4)]
        rows = np.vstack([np.abs(stream.draw_gaussian(4)) for _ in range(4)])
        rows = rows / rows.sum(axis=1, keepdims=True)
        out = aggregate(CollaborationMatrix(rows), uploads(params))
        stacked = np.stack([p.values for p in params])
        lo, hi = stacked.min(axis=0), stacked.max(axis=0)
        for mixed in out:
            assert np.all(mixed >= lo - 1e-12)
            assert np.all(mixed <= hi + 1e-12)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.5, 0.6], [0.5, 0.5]],
            [[-0.1, 1.1], [0.5, 0.5]],
            # Every comparison with nan is False, so only a finiteness check catches these.
            [[np.nan, np.nan], [0.5, 0.5]],
            [[np.nan, 1.0], [0.5, 0.5]],
            [[np.inf, 0.0], [0.5, 0.5]],
            [[1.0, 0.0], [-np.inf, np.inf]],
        ],
        ids=["row-sum", "negative", "nan-row", "nan-entry", "inf", "-inf-and-inf"],
    )
    def test_matrix_validation_rejects_bad_rows(self, rows):
        with pytest.raises(InvalidArgumentError):
            CollaborationMatrix(np.array(rows))


class TestFedavg:
    def test_equal_sizes_average(self):
        out = fedavg_aggregate(uploads([flat([0.0, 0.0]), flat([2.0, 2.0])]), [5, 5])
        assert np.allclose(out, [1.0, 1.0])

    def test_size_weighted_average(self):
        out = fedavg_aggregate(uploads([flat([0.0]), flat([4.0])]), [1, 3])
        assert np.allclose(out, [3.0])

    def test_single_client_returns_own_params(self):
        out = fedavg_aggregate(uploads([flat([1.5, -2.0])]), [7])
        assert np.allclose(out, [1.5, -2.0])

    def test_zero_total_size_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fedavg_aggregate(uploads([flat([1.0])]), [0])
