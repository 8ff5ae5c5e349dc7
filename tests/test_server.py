import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from fedsim.errors import InvalidArgumentError, NumericError, ProtocolError
from fedsim.numerics import RngStream
from fedsim.oracles import check_row_solver, kkt_row_argmin
from fedsim.server import (
    SIMILARITY_METRICS,
    CollaborationMatrix,
    SgcaConfig,
    aggregate,
    fedavg_aggregate,
    pairwise_similarity,
    solve_row,
    update_matrix,
)
from fedsim.transport import deserialize_params, serialize_params


class Upload(NamedTuple):
    """One client's upload before it goes on the wire: a vector and the manifest it is laid out by."""

    values: np.ndarray
    manifest: tuple


def flat(values, manifest=None):
    values = np.asarray(values, dtype=float)
    return Upload(values, manifest or ((1, values.size),))


def uploads(params):
    """The server's (N, 1, P) uploads: each sent over the wire and decoded into its row.

    The decode checks every upload against the first one's manifest.
    """
    manifest = params[0].manifest
    x = np.zeros((len(params), 1, params[0].values.size))
    for row, p in zip(x, params):
        deserialize_params(serialize_params(*p), manifest=manifest, out=row[0])
    return x


def mix(matrix, x):
    """The flat rows of aggregate into a copy of x, which it leaves unchanged."""
    return aggregate(matrix, x.copy()).reshape(len(x), -1)


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
        x = np.array([[[1.0, 0.0]], [[2.2250738585e-313, 1.0]]])
        with pytest.raises(NumericError, match=f"^{metric} similarity"):
            pairwise_similarity(x, metric, "max_abs_row")
        sent = [flat(x[0, 0]), flat(x[1, 0])]
        with pytest.raises(NumericError):
            update_matrix(uploads(sent), SgcaConfig(metric=metric))
        assert np.all(np.isfinite(pairwise_similarity(x, metric, "none")))

    def test_qp_inputs_far_beyond_float64_resolution_solve_exactly(self):
        # Row 0's scaled self-similarity is 2e95, so its QP input is ~1e95.
        x = np.array([[1.0], [5.06974647e-96]])
        sent = [flat(x[0]), flat(x[1])]
        w = update_matrix(uploads(sent), SgcaConfig(metric="inner")).w
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

    @pytest.mark.parametrize("layers", [1, 5])
    def test_l2_leaves_the_uploads_unchanged(self, layers):
        x = uploads([flat(RngStream(42, i).draw_gaussian(10)) for i in range(3)])
        sent = x.reshape(3, -1).copy()
        s = pairwise_similarity(x.reshape(3, layers, -1), "l2_based", "none")
        assert np.array_equal(x.reshape(3, -1), sent)
        assert s == pytest.approx(-np.linalg.norm(sent[:, None] - sent[None], axis=2), abs=1e-12)


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
        assert check_row_solver(num_instances=300, seed=33).passed

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
        sent = [flat([float(i), 0.0]) for i in range(4)]
        matrix = update_matrix(uploads(sent), SgcaConfig(alpha=0.0))
        assert np.allclose(matrix.w, 0.25, atol=1e-12)
        for row in matrix.w:
            assert len(set(row.tolist())) == 1

    def test_identical_pair_attracts_weight(self):
        sent = [
            flat([1.0, 1.0]),
            flat([1.0, 1.0]),
            flat([4.0, -3.0]),
        ]
        matrix = update_matrix(uploads(sent), SgcaConfig(alpha=1.0))
        assert matrix.w[0, 1] >= matrix.w[0, 2]
        assert matrix.w[1, 0] >= matrix.w[1, 2]

    def test_client_relabeling_permutes_the_matrix(self):
        stream = RngStream(36, 0)
        vectors = [stream.draw_gaussian(4) for _ in range(3)]
        sent = [flat(vectors[i]) for i in range(3)]
        base = update_matrix(uploads(sent), SgcaConfig())
        perm = [2, 0, 1]  # new id i holds what used to be client perm[i]
        sent = [flat(vectors[perm[i]]) for i in range(3)]
        permuted = update_matrix(uploads(sent), SgcaConfig())
        for i in range(3):
            for j in range(3):
                assert permuted.w[i, j] == pytest.approx(base.w[perm[i], perm[j]], abs=1e-12)

    def test_rows_are_stochastic_for_random_inputs(self):
        stream = RngStream(37, 0)
        for alpha in (0.0, 0.5, 2.0, 50.0):
            sent = [flat(stream.draw_gaussian(6)) for i in range(5)]
            matrix = update_matrix(uploads(sent), SgcaConfig(alpha=alpha))
            assert np.all(matrix.w >= 0.0)
            assert np.allclose(matrix.w.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize(
        "cfg, match",
        [
            (SgcaConfig(metric="l3_based"), "unknown metric"),
            (SgcaConfig(normalization="max_abs_col"), "unknown normalization"),
            (SgcaConfig(alpha=-0.5), "alpha must be finite"),
            (SgcaConfig(alpha=float("nan")), "alpha must be finite"),
        ],
        ids=["metric", "normalization", "negative-alpha", "nan-alpha"],
    )
    def test_invalid_config_rejected_where_it_is_used(self, cfg, match):
        # update_matrix does not validate cfg itself: pairwise_similarity and solve_row do.
        sent = [flat([float(i), 1.0]) for i in range(3)]
        with pytest.raises(InvalidArgumentError, match=match):
            update_matrix(uploads(sent), cfg)


class TestAggregate:
    def _params(self, values):
        return flat(values)

    def test_identity_matrix_returns_inputs(self):
        params = [self._params([1.0, 2.0]), self._params([3.0, 4.0])]
        out = mix(CollaborationMatrix(np.eye(2)), uploads(params))
        assert np.array_equal(out[0], params[0].values)
        assert np.array_equal(out[1], params[1].values)

    def test_uniform_matrix_returns_mean(self):
        params = [self._params([0.0, 2.0]), self._params([2.0, 0.0])]
        out = mix(CollaborationMatrix(np.full((2, 2), 0.5)), uploads(params))
        assert np.allclose(out[0], [1.0, 1.0])
        assert np.allclose(out[1], [1.0, 1.0])

    def test_convex_combination(self):
        params = [self._params([1.0, 1.0]), self._params([5.0, 5.0])]
        w = CollaborationMatrix(np.array([[0.75, 0.25], [0.25, 0.75]]))
        out = mix(w, uploads(params))
        assert np.allclose(out[0], [2.0, 2.0])

    def test_outputs_stay_in_convex_hull(self):
        stream = RngStream(38, 0)
        params = [self._params(stream.draw_gaussian(6)) for _ in range(4)]
        rows = np.vstack([np.abs(stream.draw_gaussian(4)) for _ in range(4)])
        rows = rows / rows.sum(axis=1, keepdims=True)
        out = mix(CollaborationMatrix(rows), uploads(params))
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

    def test_mixes_are_written_into_x(self):
        x = uploads([self._params(RngStream(43, i).draw_gaussian(5)) for i in range(3)])
        sent = x.copy()
        w = CollaborationMatrix(np.full((3, 3), 1.0 / 3.0))
        assert aggregate(w, x) is x
        assert x.tobytes() == (w.w @ sent.reshape(3, -1)).tobytes()


class TestStridedUploads:
    """A run's uploads are the first L layers of its parameter matrix, a view whose rows are
    further apart than they are long."""

    SHAPES = [(4, 512, 1536), (8, 16384, 24576)]  # clients, upload width, row stride

    @staticmethod
    def view_and_copy(n, width, stride):
        """One upload layer per client: an (N, 1, width) view and a contiguous copy."""
        params = np.stack([RngStream(44, i).draw_gaussian(stride) for i in range(n)])
        view = params[:, None, :width]
        assert not view.flags.c_contiguous
        return view, view.copy()

    @pytest.mark.parametrize("metric", ["inner", "cosine", "l1_based", "l2_based"])
    @pytest.mark.parametrize("n, width, stride", SHAPES)
    def test_similarity_of_a_view_is_the_bits_of_its_copy(self, metric, n, width, stride):
        view, copy = self.view_and_copy(n, width, stride)
        got, want = pairwise_similarity(view, metric), pairwise_similarity(copy, metric)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, width, stride", SHAPES)
    def test_mixes_of_a_view_are_the_bits_of_its_copy(self, n, width, stride):
        view, copy = self.view_and_copy(n, width, stride)
        w = CollaborationMatrix(solve_row(pairwise_similarity(copy, "l2_based"), 1.0))
        assert mix(w, view).tobytes() == mix(w, copy).tobytes()
        sizes = list(range(1, n + 1))
        assert fedavg_aggregate(view, sizes).tobytes() == fedavg_aggregate(copy, sizes).tobytes()


def layered(n, layers, size, stride=None):
    """(N, L, S) uploads: the first L layers of an (N, stride) parameter matrix, a view."""
    params = np.stack([RngStream(46, i).draw_gaussian(stride or layers * size) for i in range(n)])
    return params, params[:, : layers * size].reshape(n, layers, size)


def one_gram_similarity(x, metric):
    """Reference similarity without normalization: one Gram matrix of the flat uploads.

    l2_based centres them on the first upload first; the upper triangle is mirrored.
    """
    flat = x.reshape(len(x), -1)
    if metric == "l2_based":
        flat = flat - flat[0]
    g = flat @ flat.T
    sq = np.diag(g)
    i, j = np.triu_indices(len(x), 1 if metric == "l2_based" else 0)
    s = np.zeros(g.shape)
    if metric == "inner":
        s[i, j] = s[j, i] = g[i, j]
    elif metric == "cosine":
        s[i, j] = s[j, i] = g[i, j] / (np.sqrt(sq)[i] * np.sqrt(sq)[j])
    else:
        s[i, j] = s[j, i] = -np.sqrt(np.maximum(sq[i] + sq[j] - 2.0 * g[i, j], 0.0))
    return s


# Each server function, called on the uploads x of 8 clients.
SERVER_CALLS = [
    *[lambda x, m=m: pairwise_similarity(x, m) for m in SIMILARITY_METRICS],
    lambda x: update_matrix(x, SgcaConfig()),
    lambda x: aggregate(CollaborationMatrix(np.full((8, 8), 1.0 / 8)), x),
    lambda x: fedavg_aggregate(x, range(1, 9)),
]
SERVER_CALL_IDS = [*SIMILARITY_METRICS, "update_matrix", "aggregate", "fedavg_aggregate"]


class TestLayeredUploads:
    """The server reads a run's uploads as (N, L, S) layers of a strided view, one layer at a time."""

    N, S = 8, 4096
    CASES = [(1, None), (3, None), (1, 6 * S), (3, 6 * S)]  # layers, row stride (None: contiguous)
    IDS = ["L1-contiguous", "L3-contiguous", "L1-strided", "L3-strided"]

    @pytest.mark.parametrize("layers, stride", CASES, ids=IDS)
    def test_aggregate_leaves_w_at_x_in_x(self, layers, stride):
        params, x = layered(self.N, layers, self.S, stride)
        before = params.copy()
        flat = before[:, : layers * self.S].copy()
        w = CollaborationMatrix(solve_row(pairwise_similarity(x, "l2_based"), 1.0))
        assert aggregate(w, x) is x
        assert x.tobytes() == (w.w @ flat).tobytes()
        # Only the uploaded layers are written.
        rest = slice(layers * self.S, None)
        assert params[:, rest].tobytes() == before[:, rest].tobytes()

    @pytest.mark.parametrize("layers, stride", CASES, ids=IDS)
    @pytest.mark.parametrize("metric", ["inner", "cosine", "l2_based"])
    def test_each_gram_metric_is_the_one_gram_similarity(self, metric, layers, stride):
        _, x = layered(self.N, layers, self.S, stride)
        sent = x.copy()
        s = pairwise_similarity(x, metric, "none")
        want = one_gram_similarity(sent, metric)
        assert np.array_equal(x, sent)
        # inner's entries are sums of L * S squares, about 1.2e4 at L = 3, where one
        # ulp is 1.8e-12: its bound is 1e-12 of its largest entry.
        scale = np.max(np.abs(want)) if metric == "inner" else 1.0
        if layers == 1:
            assert s.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(s - want)) <= 1e-12 * scale

    @pytest.mark.parametrize("spread", [50.0, 1e6])
    def test_l2_of_far_apart_layered_clusters_matches_pair_loop(self, spread):
        params = far_clusters(spread)
        x = uploads(params)
        s = pairwise_similarity(x.reshape(len(x), 4, -1), "l2_based", "max_abs_row")
        expected = pair_loop_similarity(params, "l2_based", "max_abs_row")
        assert np.max(np.abs(s - expected)) <= 1e-12

    @pytest.mark.parametrize("layers, stride", CASES, ids=IDS)
    def test_fedavg_writes_the_flat_average_into_every_row(self, layers, stride):
        params, x = layered(self.N, layers, self.S, stride)
        before = params.copy()
        sizes = list(range(1, self.N + 1))
        weights = np.array(sizes, dtype=np.float64)
        want = (weights / weights.sum()) @ x.copy().reshape(self.N, -1)
        assert fedavg_aggregate(x, sizes) is x
        for row in x:
            assert row.tobytes() == want.tobytes()
        # Only the uploaded layers are written.
        rest = slice(layers * self.S, None)
        assert params[:, rest].tobytes() == before[:, rest].tobytes()

    def test_l1_is_the_vector_norm_of_the_flat_uploads(self):
        # np.linalg.norm(ord=1) of an (L, S) difference would be the matrix 1-norm.
        _, x = layered(4, 3, 5)
        flat = x.reshape(4, -1)
        s = pairwise_similarity(x, "l1_based", "none")
        assert s == pytest.approx(-np.abs(flat[:, None] - flat[None]).sum(axis=2), abs=1e-12)

    @pytest.mark.parametrize("call", SERVER_CALLS, ids=SERVER_CALL_IDS)
    def test_a_two_dimensional_upload_matrix_is_rejected(self, call):
        with pytest.raises(InvalidArgumentError, match=r"\(N, L, S\) array"):
            call(np.ones((self.N, 3 * self.S)))

    @pytest.mark.parametrize("call", SERVER_CALLS, ids=SERVER_CALL_IDS)
    def test_traced_peak_is_one_layer_block_and_n_squared(self, call):
        _, x = layered(self.N, 3, self.S, 6 * self.S)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 * self.N * self.S + 64 * 8 * self.N**2, peak


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
