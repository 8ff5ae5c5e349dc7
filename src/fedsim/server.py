"""Server-side aggregation: pairwise similarities, per-row simplex QP, weighted mixing.

Each round the server solves, for every client row, the quadratic program
    min_w sum_j (w_j - m_i)^2 - alpha * sum_j w_j * s_ij   s.t. w on the simplex,
which reduces to the exact Euclidean projection of m_i + (alpha/2) * s_i.
A size-weighted plain average is provided as the control aggregator.

The server holds a round's uploads in one (N, P) float64 matrix x, row i
being client i's upload as decoded from the wire; similarity and mixing
read x, and a mix is one row of W @ x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidArgumentError, ProtocolError
from .fed_client import ClientUpdate
from .numerics import simplex_project

SIMILARITY_METRICS = ("inner", "cosine", "l1_based", "l2_based")
# Largest (G_ii + G_jj) / d_ij^2 for which an l2 distance is read off the Gram
# matrix. Its error there is about eps * sqrt(limit / 2) of the row's largest
# distance, about 3e-14 of a max_abs_row entry; a pair past the limit is
# computed directly. On the many_clients benchmark it stays below 500 (30
# rounds, seeds 5, 7 and 13), so every pair there takes the Gram path.
GRAM_CANCELLATION_LIMIT = 1e4
NORMALIZATIONS = ("none", "max_abs_row")
M_MODES = ("row_constant_mi", "column_mj")


@dataclass
class SgcaConfig:
    """Knobs of the similarity-guided aggregator."""

    alpha: float = 1.0
    metric: str = "l2_based"
    normalization: str = "max_abs_row"
    m_mode: str = "row_constant_mi"

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
        if self.m_mode not in M_MODES:
            raise InvalidArgumentError(f"m_mode must be one of {M_MODES}, got {self.m_mode!r}")


@dataclass
class CollaborationMatrix:
    """Row-stochastic N x N mixing matrix; row i builds client i's broadcast."""

    w: np.ndarray
    round_index: int

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidArgumentError("collaboration matrix must be square")
        if np.any(w < 0):
            raise InvalidArgumentError("collaboration matrix entries must be >= 0")
        if np.any(np.abs(w.sum(axis=1) - 1.0) > 1e-9):
            raise InvalidArgumentError("collaboration matrix rows must sum to 1")
        self.w = w


def _check_uploads(x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[0] == 0:
        raise InvalidArgumentError("uploads must be an (N, P) matrix with N >= 1")


def pairwise_similarity(
    x: np.ndarray, metric: str, normalization: str = "max_abs_row"
) -> np.ndarray:
    """N x N similarity matrix of the uploads in the rows of x; larger means more similar.

    l2_based / l1_based are negated distances (self-similarity 0); with
    max_abs_row each row is divided by its largest off-diagonal magnitude so
    alpha stays comparable across metrics. inner, cosine and l2_based come
    from one Gram matrix of x (centered on the first row for l2_based);
    l1_based takes one difference vector per pair.
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
                value = -float(np.linalg.norm(x[i] - x[j], ord=1))
                s[i, j] = s[j, i] = value
    else:
        # l2 is translation invariant: centering on one upload bounds the
        # cancellation in G_ii + G_jj - 2 G_ij by the uploads' spread, not their norms.
        c = x - x[0] if metric == "l2_based" else x
        g = c @ c.T
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
                upper[k] = -np.linalg.norm(x[i[k]] - x[j[k]])
        s[i, j] = upper
        s[j, i] = upper
    if normalization == "max_abs_row":
        off = np.abs(s)
        np.fill_diagonal(off, 0.0)
        scale = off.max(axis=1, keepdims=True)
        np.divide(s, scale, out=s, where=scale > 0.0)
    return s


def solve_row(m_value: float, s_row: np.ndarray, alpha: float) -> np.ndarray:
    """One collaboration-matrix row: projection of m + (alpha/2) * s onto the simplex."""
    s_row = np.asarray(s_row, dtype=np.float64)
    if not np.isfinite(m_value) or not np.all(np.isfinite(s_row)):
        raise InvalidArgumentError("row inputs must be finite")
    if not np.isfinite(alpha) or alpha < 0:
        raise InvalidArgumentError("alpha must be finite and >= 0")
    return simplex_project(m_value + (alpha / 2.0) * s_row)


def update_matrix(
    updates: Sequence[ClientUpdate], x: np.ndarray, cfg: SgcaConfig
) -> CollaborationMatrix:
    """Recompute the full collaboration matrix from this round's uploads.

    Row i of x is client i's upload; the updates supply each client's id,
    round and dataset size.
    """
    cfg.validate()
    n = len(updates)
    ids = sorted(u.client_id for u in updates)
    if ids != list(range(n)):
        raise ProtocolError(f"expected one update per client 0..{n - 1}, got ids {ids}")
    rounds = {u.round_index for u in updates}
    if len(rounds) != 1:
        raise ProtocolError(f"updates span multiple rounds: {sorted(rounds)}")
    if x.shape[0] != n:
        raise ProtocolError(f"got {n} updates but {x.shape[0]} uploads")
    s = pairwise_similarity(x, cfg.metric, cfg.normalization)
    sizes = np.array([u.n_i for u in sorted(updates, key=lambda u: u.client_id)], dtype=np.float64)
    if sizes.sum() <= 0:
        raise ProtocolError("total dataset size must be positive")
    m = sizes / sizes.sum()
    rows = []
    for i in range(n):
        if cfg.m_mode == "row_constant_mi":
            rows.append(solve_row(float(m[i]), s[i], cfg.alpha))
        else:
            rows.append(simplex_project(m + (cfg.alpha / 2.0) * s[i]))
    return CollaborationMatrix(np.vstack(rows), rounds.pop())


def aggregate(matrix: CollaborationMatrix, x: np.ndarray) -> np.ndarray:
    """Per-client mixes of the uploads in the rows of x: row i of W @ x."""
    _check_uploads(x)
    if x.shape[0] != matrix.w.shape[0]:
        raise ProtocolError(
            f"matrix is {matrix.w.shape[0]}x{matrix.w.shape[0]} but got {x.shape[0]} uploads"
        )
    return matrix.w @ x


def fedavg_aggregate(x: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Size-weighted plain average of the rows of x; every client receives this same result."""
    _check_uploads(x)
    if len(sizes) != x.shape[0]:
        raise InvalidArgumentError("sizes must have one entry per upload")
    weights = np.array(sizes, dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        raise InvalidArgumentError("total dataset size must be > 0")
    weights = weights / total
    return weights @ x
