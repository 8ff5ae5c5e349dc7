"""Independent check oracles: KKT enumeration for the row QP, finite differences for gradients.

These deliberately avoid the production code paths they verify. The KKT
solver enumerates every support set and solves the equality-constrained
stationarity system directly. The gradient check compares the
hand-derived reverse mode of adapter_net.objective_and_grad with central
differences of the forward-only adapter_net.objective, which runs
model_forward, seg_loss and reg_loss and never the backward code.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .adapter_net import build_model, objective, objective_and_grad
from .errors import InvalidArgumentError
from .numerics import RngStream, derive_stream_id, simplex_project
from .server import solve_row


def kkt_simplex_argmin(c: np.ndarray) -> np.ndarray:
    """Brute-force min ||w - c||^2 over the simplex by support-set enumeration."""
    c = np.asarray(c, dtype=np.float64)
    n = c.size
    if n == 0 or n > 16:
        raise InvalidArgumentError("enumeration oracle supports 1..16 dimensions")
    best_w = None
    best_obj = np.inf
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            idx = list(support)
            # Stationarity on the support with the sum-to-one multiplier.
            w_s = c[idx] + (1.0 - c[idx].sum()) / size
            if np.any(w_s < 0):
                continue
            w = np.zeros(n)
            w[idx] = w_s
            obj = float(np.sum((w - c) ** 2))
            if obj < best_obj - 1e-15:
                best_obj = obj
                best_w = w
    return best_w


def kkt_row_argmin(m_value: float, s_row: np.ndarray, alpha: float) -> np.ndarray:
    """Brute-force minimizer of sum_j (w_j - m)^2 - alpha sum_j w_j s_j on the simplex."""
    s_row = np.asarray(s_row, dtype=np.float64)
    n = s_row.size
    best_w = None
    best_obj = np.inf
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            idx = list(support)
            s_sub = s_row[idx]
            # Stationarity: 2(w_j - m) - alpha s_j + lam = 0, sum over support = 1.
            w_s = 1.0 / size + (alpha / 2.0) * (s_sub - s_sub.mean())
            if np.any(w_s < 0):
                continue
            w = np.zeros(n)
            w[idx] = w_s
            obj = float(np.sum((w - m_value) ** 2) - alpha * np.sum(w * s_row))
            if obj < best_obj - 1e-15:
                best_obj = obj
                best_w = w
    return best_w


@dataclass
class OracleResult:
    name: str
    passed: bool
    detail: str


def check_projection(num_instances: int = 1000, seed: int = 20240901) -> OracleResult:
    """simplex_project vs support enumeration on random vectors, N in 2..8."""
    stream = RngStream(seed, derive_stream_id("oracle", "projection"))
    worst = 0.0
    for _ in range(num_instances):
        n = stream.draw_integer(2, 9)
        scale = 10.0 ** stream.draw_uniform(1, -1.0, 1.0)[0]
        c = scale * stream.draw_gaussian(n)
        err = float(np.max(np.abs(simplex_project(c) - kkt_simplex_argmin(c))))
        worst = max(worst, err)
    passed = worst < 1e-9
    return OracleResult("simplex-projection-vs-kkt", passed, f"max |diff| = {worst:.3e}")


def check_row_solver(num_instances: int = 1000, seed: int = 20240902) -> OracleResult:
    """solve_row vs the row-objective enumeration, alpha in [0, 100]."""
    stream = RngStream(seed, derive_stream_id("oracle", "row-solver"))
    worst = 0.0
    for _ in range(num_instances):
        n = stream.draw_integer(2, 9)
        alpha = stream.draw_uniform(1, 0.0, 100.0)[0]
        m_value = stream.draw_uniform(1, 0.0, 1.0)[0]
        s_row = stream.draw_gaussian(n)
        err = float(
            np.max(np.abs(solve_row(m_value, s_row, alpha) - kkt_row_argmin(m_value, s_row, alpha)))
        )
        worst = max(worst, err)
    return OracleResult("row-qp-vs-kkt", worst < 1e-9, f"max |diff| = {worst:.3e}")


def gradient_fixtures(seed: int = 20240903) -> list[dict]:
    """20 random fixtures spanning depth and width, regularizer included.

    Central differences at h=1e-5 are exact only where no perturbation moves
    a ReLU pre-activation across zero. gradient_fixtures(1)[3] (seed 4, K=4,
    d=64) has one that does: its relative error is 2.8e-2 at h=1e-5 and
    1.7e-9 at h=1e-6. The default seed has no such crossing in its 20
    fixtures (worst 1.914e-9 at h=1e-5).
    """
    fixtures = []
    configs = [(k, d) for k in (2, 4, 6) for d in (16, 64)]
    for i in range(20):
        num_blocks, feature_dim = configs[i % len(configs)]
        fixtures.append(
            {
                "num_blocks": num_blocks,
                "feature_dim": feature_dim,
                "bottleneck_dim": 4 if feature_dim == 16 else 8,
                "batch": 3,
                "beta": 0.05,
                "seed": seed + i,
            }
        )
    return fixtures


def _build_fixture(fx: dict):
    frozen = RngStream(fx["seed"], derive_stream_id("grad-fixture", "frozen"))
    adapters = RngStream(fx["seed"], derive_stream_id("grad-fixture", "adapters"))
    model = build_model(
        fx["feature_dim"], fx["bottleneck_dim"], fx["num_blocks"], frozen, adapters
    )
    data = RngStream(fx["seed"], derive_stream_id("grad-fixture", "data"))
    # Random non-zero up projections so gradients flow through both projections.
    template = model.adapter_params()
    model.install_adapter_params(
        template.with_values(0.3 * data.draw_gaussian(template.total_size))
    )
    images = data.draw_uniform(fx["batch"] * fx["feature_dim"]).reshape(
        fx["batch"], fx["feature_dim"]
    )
    masks = (data.draw_uniform(fx["batch"] * fx["feature_dim"]) < 0.3).astype(np.float64)
    masks = masks.reshape(fx["batch"], fx["feature_dim"])
    theta_ref = model.adapter_params([1]).with_values(
        data.draw_gaussian(2 * fx["feature_dim"] * fx["bottleneck_dim"])
    )
    return model, images, masks, theta_ref


def gradient_rel_error(fx: dict, h: float = 1e-5) -> float:
    """Max-norm relative error between analytic and finite-difference gradients.

    The analytic side is one objective_and_grad call. The numeric side is
    the central difference (f(x + h) - f(x - h)) / 2h of the forward-only
    objective, one entry of a clone's flat adapter buffer at a time, which
    is FlatParams order. Each entry is restored to its exact value before
    the next one moves, and x + h and x - h are the floats
    numerics.finite_diff_grad would evaluate.
    """
    if h <= 0:
        raise InvalidArgumentError("step size h must be > 0")
    model, images, masks, theta_ref = _build_fixture(fx)
    _, analytic = objective_and_grad(images, masks, model, theta_ref, fx["beta"])
    scratch = model.clone()
    flat = scratch.flat
    numeric = np.empty(flat.size)
    for j in range(flat.size):
        x = flat[j]
        flat[j] = x + h
        f_plus = objective(images, masks, scratch, theta_ref, fx["beta"])
        flat[j] = x - h
        f_minus = objective(images, masks, scratch, theta_ref, fx["beta"])
        flat[j] = x
        numeric[j] = (f_plus - f_minus) / (2.0 * h)
    scale = max(float(np.max(np.abs(numeric))), 1e-12)
    return float(np.max(np.abs(analytic.values - numeric))) / scale


def check_gradients(h: float = 1e-5, num_fixtures: int = 20) -> OracleResult:
    worst = 0.0
    for fx in gradient_fixtures()[:num_fixtures]:
        worst = max(worst, gradient_rel_error(fx, h))
    passed = worst < 1e-4
    return OracleResult("adapter-gradient-vs-finite-diff", passed, f"max rel err = {worst:.3e}")
