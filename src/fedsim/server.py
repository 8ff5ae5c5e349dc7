"""Server-side aggregation: pairwise similarities, per-row simplex QP, weighted mixing.

Each round the server solves, for every client row, the quadratic program
    min_w sum_j (w_j - m_i)^2 - alpha * sum_j w_j * s_ij   s.t. w on the simplex,
the Euclidean projection of m_i + (alpha/2) * s_i. The size prior m_i shifts
the whole row, which a simplex projection ignores, so all rows of W are one
projection of (alpha/2) * S. A size-weighted plain average is the control.

The server reads a round's uploads as one (N, L, S) float64 array x: row i
is client i's upload, the L adapter layers it trained, of S values each (in
a run, a view of the first L layers of client i's model.flat). Similarity
and mixing read x; aggregate writes the mixes W @ x back into x, and
fedavg_aggregate writes the size-weighted average into every row. The
server holds no (N, P) buffer: it works one layer at a time through one
(N, S) temporary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidArgumentError, NumericError, ProtocolError
from .numerics import simplex_project

SIMILARITY_METRICS = ("inner", "cosine", "l1_based", "l2_based")
# Largest (G_ii + G_jj) / d_ij^2 for which an l2 distance is read off the Gram
# matrix. Its error there is about eps * sqrt(limit / 2) of the row's largest
# distance, about 3e-14 of a max_abs_row entry; a pair past the limit is
# computed directly. On the many_clients benchmark it stays below 500 (30
# rounds, seeds 5, 7 and 13), so every pair there takes the Gram path.
GRAM_CANCELLATION_LIMIT = 1e4
NORMALIZATIONS = ("none", "max_abs_row")


@dataclass
class SgcaConfig:
    """Knobs of the similarity-guided aggregator."""

    alpha: float = 1.0
    metric: str = "l2_based"
    normalization: str = "max_abs_row"

    def validate(self) -> None:
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise InvalidArgumentError("alpha must be finite and >= 0")
        if self.metric not in SIMILARITY_METRICS:
            raise InvalidArgumentError(
                f"metric must be one of {SIMILARITY_METRICS}, got {self.metric!r}"
            )
        if self.normalization not in NORMALIZATIONS:
            raise InvalidArgumentError(
                f"normalization must be one of {NORMALIZATIONS}, got {self.normalization!r}"
            )


@dataclass
class CollaborationMatrix:
    """Row-stochastic N x N mixing matrix; row i builds client i's broadcast."""

    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidArgumentError("collaboration matrix must be square")
        if not np.all(np.isfinite(w)):
            raise InvalidArgumentError("collaboration matrix entries must be finite")
        if np.any(w < 0):
            raise InvalidArgumentError("collaboration matrix entries must be >= 0")
        if np.any(np.abs(w.sum(axis=1) - 1.0) > 1e-9):
            raise InvalidArgumentError("collaboration matrix rows must sum to 1")
        self.w = w


def _check_uploads(x: np.ndarray) -> None:
    if x.ndim != 3 or x.shape[0] == 0:
        raise InvalidArgumentError("uploads must be an (N, L, S) array with N >= 1")


def pairwise_similarity(
    x: np.ndarray, metric: str, normalization: str = "max_abs_row"
) -> np.ndarray:
    """N x N similarity matrix of the uploads in the rows of x; larger means more similar.

    l2_based / l1_based are negated distances of the flattened uploads
    (self-similarity 0); with max_abs_row each row is divided by its largest
    off-diagonal magnitude so alpha stays comparable across metrics. inner,
    cosine and l2_based read the sum of each layer's Gram matrix, l2_based's
    layers centred on the first row; l1_based takes one difference per pair.
    """
    _check_uploads(x)
    if metric not in SIMILARITY_METRICS:
        raise InvalidArgumentError(f"unknown metric {metric!r}")
    if normalization not in NORMALIZATIONS:
        raise InvalidArgumentError(f"unknown normalization {normalization!r}")
    n = x.shape[0]
    s = np.zeros((n, n))
    if metric == "l1_based":
        for i in range(n):
            for j in range(i + 1, n):
                d = (x[i] - x[j]).ravel()
                s[i, j] = s[j, i] = -float(np.abs(d, out=d).sum())
    else:
        g, c = np.zeros((n, n)), np.empty(x[:, 0].shape)
        for layer in x.transpose(1, 0, 2):
            if metric == "l2_based":
                # l2 is translation invariant: centering on one upload bounds the
                # cancellation in G_ii + G_jj - 2 G_ij by the uploads' spread, not their norms.
                layer = np.subtract(layer, layer[0], out=c)
            g += layer @ layer.T
        sq = np.diag(g)
        # Only the upper triangle is filled and then mirrored, so S is exactly
        # symmetric; a GEMM's G is only symmetric up to rounding. The l2
        # diagonal is left at exactly 0.
        i, j = np.triu_indices(n, 1 if metric == "l2_based" else 0)
        if metric == "inner":
            upper = g[i, j]
        elif metric == "cosine":
            norms = np.sqrt(sq)
            denom = norms[i] * norms[j]
            upper = np.divide(g[i, j], denom, out=np.zeros(i.size), where=denom > 0.0)
        else:
            span = sq[i] + sq[j]
            d2 = span - 2.0 * g[i, j]
            upper = -np.sqrt(np.maximum(d2, 0.0))
            # Pairs close to each other but far from the center lose precision
            # to cancellation; take those as direct differences.
            for k in np.flatnonzero(d2 * GRAM_CANCELLATION_LIMIT < span):
                upper[k] = -np.linalg.norm((x[i[k]] - x[j[k]]).ravel())
        s[i, j] = upper
        s[j, i] = upper
    if normalization == "max_abs_row":
        off = np.abs(s)
        np.fill_diagonal(off, 0.0)
        scale = off.max(axis=1, keepdims=True)
        with np.errstate(over="ignore"):
            np.divide(s, scale, out=s, where=scale > 0.0)
    # Scaled off-diagonals stay in [-1, 1], but an inner or cosine
    # self-similarity overflows when its row's largest off-diagonal is tiny.
    if not np.all(np.isfinite(s)):
        raise NumericError(f"{metric} similarity of the uploads is not finite")
    return s


def solve_row(s: np.ndarray, alpha: float) -> np.ndarray:
    """Rows of W: the projection of (alpha/2) * s for one similarity row or all of S.

    Rows are shifted to a maximum of 0 first; an entry scaled to -1 or below
    gets weight 0, so clamping there keeps it finite at any alpha.
    """
    s = np.asarray(s, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise InvalidArgumentError("similarities must be finite")
    if not np.isfinite(alpha) or alpha < 0:
        raise InvalidArgumentError("alpha must be finite and >= 0")
    with np.errstate(over="ignore"):
        c = (alpha / 2.0) * (s - s.max(axis=-1, keepdims=True))
    return simplex_project(np.maximum(c, -1.0))


def update_matrix(x: np.ndarray, cfg: SgcaConfig) -> CollaborationMatrix:
    """Recompute the full collaboration matrix from this round's uploads, row i client i's.

    pairwise_similarity and solve_row check x and cfg's fields.
    """
    s = pairwise_similarity(x, cfg.metric, cfg.normalization)
    return CollaborationMatrix(solve_row(s, cfg.alpha))


def aggregate(matrix: CollaborationMatrix, x: np.ndarray) -> np.ndarray:
    """Per-client mixes of the uploads in the rows of x, row i of W @ x, written back into x."""
    _check_uploads(x)
    if x.shape[0] != matrix.w.shape[0]:
        raise ProtocolError(
            f"matrix is {matrix.w.shape[0]}x{matrix.w.shape[0]} but got {x.shape[0]} uploads"
        )
    mixed = np.empty(x[:, 0].shape)
    for layer in x.transpose(1, 0, 2):
        layer[...] = np.matmul(matrix.w, layer, out=mixed)
    return x


def fedavg_aggregate(x: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Size-weighted plain average of the flat uploads in the rows of x, written into every row."""
    _check_uploads(x)
    if len(sizes) != x.shape[0]:
        raise InvalidArgumentError("sizes must have one entry per upload")
    weights = np.array(sizes, dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        raise InvalidArgumentError("total dataset size must be > 0")
    weights = weights / total
    x[:] = (weights @ x.reshape(len(x), -1)).reshape(x.shape[1:])
    return x
