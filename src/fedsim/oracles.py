"""Independent check oracles: KKT enumeration for the row QP, finite differences for gradients.

These deliberately avoid the production code paths they verify. The KKT
solver enumerates every support set and solves the equality-constrained
stationarity system directly. The gradient check compares the
hand-derived reverse mode of adapter_net.objective_and_grad with central
differences taken by this module's own forward pass and clamped binary
cross-entropy; it reads only the model's weights and PROB_CLAMP.

The central differences are batched. Below adapter k nothing depends on
adapter k, so each layer's input r_k, bottleneck pre-activation u_k and
output h_k are computed once per fixture, and so is the pre-activation
h_k @ W.T + b of the map (W, b) above adapter k: block k+1, or the head
for k = K. Moving one weight of adapter k by a step changes h_k by a
rank-1 term a (x) c, and that pre-activation by a (x) W c. So every
perturbed copy enters above adapter k as the stored pre-activation plus
its rank-1 term, skipping that map's GEMM, and the copies run on through
the rest of the blocks and the head as stacked rows of 2-D GEMMs,
CHUNK_ROWS rows at a time; the top layer's copies are logits already.
Each copy's loss is one clipped softplus of its signed logits. The same
pass compares the ReLU sign patterns the +h and -h copies pass through,
each as it is made. A coordinate whose two patterns differ straddles a
kink, where a central difference is not the derivative; check_gradients
retakes those coordinates at h/10 and reports how many there were. Once
per pass, the unperturbed loss, taken with objective's own sigmoid and
logarithms, is checked against adapter_net.objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .adapter_net import PROB_CLAMP, block1_features, build_model, objective, objective_and_grad
from .errors import InvalidArgumentError, NumericError
from .numerics import RngStream, derive_stream_id, simplex_project
from .server import solve_row

# Stacked rows per suffix pass of the batched gradient check, 2 * batch rows
# per perturbed coordinate. On the benchmark's six grad_oracle fixtures (seed
# 131, 2 cores, 2 OpenBLAS threads, three runs each), 384 rows run in 0.14 s
# against 0.20 s at 96 rows, and the worker peaks at 39.4 MB of RSS, 0.6 MB
# above 96 rows. 576 rows peak 1.0 MB above 96 rows for no time gain; 768 rows
# run in 0.13 s but peak 1.3 MB above, two thirds of the benchmark's 5% RSS bound.
CHUNK_ROWS = 384
NUM_GRADIENT_FIXTURES = 20
LOSS_RANGE = (-np.log1p(-PROB_CLAMP), -np.log(PROB_CLAMP))


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


def _check_instance_count(num_instances: int) -> None:
    if num_instances < 1:
        raise InvalidArgumentError(f"instance count must be >= 1, got {num_instances}")


def check_projection(num_instances: int = 1000, seed: int = 20240901) -> OracleResult:
    """simplex_project vs support enumeration on random vectors, N in 2..8."""
    _check_instance_count(num_instances)
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
    """solve_row, which has no size prior m, vs the enumeration with m, alpha in [0, 100]."""
    _check_instance_count(num_instances)
    stream = RngStream(seed, derive_stream_id("oracle", "row-solver"))
    worst = 0.0
    for _ in range(num_instances):
        n = stream.draw_integer(2, 9)
        alpha = stream.draw_uniform(1, 0.0, 100.0)[0]
        m_value = stream.draw_uniform(1, 0.0, 1.0)[0]
        s_row = stream.draw_gaussian(n)
        err = float(np.max(np.abs(solve_row(s_row, alpha) - kkt_row_argmin(m_value, s_row, alpha))))
        worst = max(worst, err)
    return OracleResult("row-qp-vs-kkt", worst < 1e-9, f"max |diff| = {worst:.3e}")


def gradient_fixtures(seed: int = 20240903) -> list[dict]:
    """NUM_GRADIENT_FIXTURES random fixtures spanning depth and width, regularizer included.

    Central differences at h=1e-5 are exact only where no perturbation moves
    a ReLU pre-activation across zero, and the batched pass flags every
    coordinate whose +h and -h copies see different ReLU sign patterns.
    gradient_fixtures(1)[3] (seed 4, K=4, d=64) has such crossings: 366
    coordinates are flagged and its relative error is 2.8e-2 at h=1e-5;
    at h=1e-6 none are flagged and the error is 1.7e-9. The default seed
    flags none in its 20 fixtures (worst error 1.4e-9 at h=1e-5).
    """
    fixtures = []
    configs = [(k, d) for k in (2, 4, 6) for d in (16, 64)]
    for i in range(NUM_GRADIENT_FIXTURES):
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
    model.flat[...] = 0.3 * data.draw_gaussian(model.flat.size)
    images = data.draw_uniform(fx["batch"] * fx["feature_dim"]).reshape(
        fx["batch"], fx["feature_dim"]
    )
    masks = (data.draw_uniform(fx["batch"] * fx["feature_dim"]) < 0.3).astype(np.float64)
    masks = masks.reshape(fx["batch"], fx["feature_dim"])
    theta_ref = data.draw_gaussian(model.layer_size)  # the reference for layer 1
    return model, images, masks, theta_ref


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _row_losses(logits: np.ndarray, spare: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean binary cross-entropy of each row of logits against y, probabilities clamped.

    objective's arithmetic, imprecise next to the clamp: only the guard on the
    unperturbed loss, which must be objective's to 1e-12, uses it. Overwrites
    logits and spare, an array of logits' shape.
    """
    positive = logits >= 0.0
    e = np.abs(logits, out=logits)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denominator = np.add(e, 1.0, out=spare)
    np.copyto(e, 1.0, where=positive)
    p = np.divide(e, denominator, out=e)
    np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP, out=p)
    loss = np.log(p, out=denominator)
    loss *= -y
    q = np.log1p(np.negative(p, out=p), out=p)
    q *= 1.0 - y
    loss -= q
    return np.mean(loss, axis=-1)


def _copy_losses(logits: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Mean clamped binary cross-entropy of each row of logits, sign being 1 - 2y.

    For p = sigmoid(z), -log p = softplus(-z) and -log(1 - p) = softplus(z), and
    clamping p clips either to LOSS_RANGE, -log(1 - PROB_CLAMP) to -log(PROB_CLAMP):
    each entry is one clipped softplus log1p(exp(sign * z)), within 2 ulp. Capping
    sign * z at the range's top first keeps exp finite and the clipped loss as it
    is. Overwrites logits.
    """
    t = np.minimum(np.multiply(logits, sign, out=logits), LOSS_RANGE[1], out=logits)
    np.log1p(np.exp(t, out=t), out=t)
    return np.mean(np.clip(t, *LOSS_RANGE, out=t), axis=-1)


def _flag_crossings(pre: np.ndarray, flags: np.ndarray) -> None:
    """OR into flags[c] whether copy c's ReLU signs in pre differ from copy n + c's.

    pre stacks 2n copies' rows, the n +h copies first; flags has n entries.
    """
    halves = pre.reshape(2, flags.size, -1) > 0.0
    flags |= np.any(halves[0] != halves[1], axis=1)


def _suffix_logits(pre, spare, model, k: int, flags: np.ndarray):
    """Logits of stacked (rows, d) pre-activations of the map above adapter k.

    For k < K that map is block k+1, and the rows go on through its ReLU and
    adapter, blocks k+2..K and the head; for k = K it is the head, so pre is
    the logits. pre and spare (an array of pre's shape) are overwritten, and
    either is returned. Each ReLU's sign crossings are ORed into flags.
    """
    for (down, up), above in zip(model.adapters[k:], (*model.blocks[k + 1 :], model.head)):
        _flag_crossings(pre, flags)
        r = np.maximum(pre, 0.0, out=pre)
        u = r @ down.T
        _flag_crossings(u, flags)
        rows = np.matmul(_relu(u), up.T, out=spare)
        rows += r
        pre, spare = np.matmul(rows, above.weight.T, out=r), rows
        pre += above.bias
    return pre


def _central_differences(images, masks, model, theta_ref, beta, h, coords=None):
    """Central differences of the objective at entries `coords` of model.flat (default: all).

    Returns (numeric, crossed). numeric[c] is (f(x + h) - f(x - h)) / 2h for
    x = model.flat[coords[c]] moved on its own, evaluated at the floats
    x + h and x - h. crossed[c] says whether those two evaluations pass
    through different ReLU sign patterns, at adapter k's bottleneck or at
    any block or bottleneck above it. Raises NumericError if this pass's
    unperturbed loss is not objective's to 1e-12 relative.
    """
    expected = objective(images, masks, model, theta_ref, beta)
    flat = model.flat
    size, d, m = model.layer_size, model.feature_dim, model.bottleneck_dim
    batch = images.shape[0]
    y = masks.reshape(-1)
    sign = 1.0 - 2.0 * y

    # What adapter k's perturbations leave alone: its input r, pre-activation u, output h.
    acts = []
    out = images
    for block, (down, up) in zip(model.blocks, model.adapters):
        r = _relu(out @ block.weight.T + block.bias)
        u = r @ down.T
        out = _relu(u) @ up.T + r
        acts.append((r, u, out))

    # The regularizer -cos(theta, ref) over layers 1..L, from ||theta||^2 and
    # theta . ref, which one entry's step moves in closed form.
    ref = np.zeros_like(flat)
    pulled = np.zeros(flat.size, dtype=bool)
    if beta > 0:
        ref[: theta_ref.size] = theta_ref
        pulled[: theta_ref.size] = True
    sq, dot = float(flat[pulled] @ flat[pulled]), float(flat @ ref)
    ref_norm = float(np.linalg.norm(ref))
    reg = -(dot / (np.sqrt(sq) * ref_norm)) if beta > 0 else 0.0

    logits = (out @ model.head.weight.T + model.head.bias).reshape(1, -1)
    base = float(_row_losses(logits, np.empty_like(logits), y)[0]) + beta * reg
    if not abs(base - expected) <= 1e-12 * abs(expected):
        raise NumericError(
            f"gradient oracle's unperturbed loss {base!r} is not objective's {expected!r}"
        )

    coords = np.arange(flat.size) if coords is None else np.asarray(coords, dtype=np.intp)
    x = flat[coords]
    plus, minus = (x + h) - x, (x - h) - x
    numeric = np.empty(coords.size)
    crossed = np.zeros(coords.size, dtype=bool)
    per_chunk = max(1, CHUNK_ROWS // (2 * batch))
    # Every chunk's stacked rows live in these two arrays, so no chunk allocates
    # (and faults in) an array of their size.
    stacks = np.empty((2, 2 * per_chunk * batch, d))
    for k, above in enumerate((*model.blocks[1:], model.head), start=1):
        r, u, h_k = acts[k - 1]
        s = _relu(u)
        up = model.adapters[k - 1][1]
        # A step moves h_k by a rank-1 term a (x) c, so it moves the pre-activation
        # h_k @ W.T + b of the map (W, b) above adapter k by a (x) W c. c is
        # column i of up for down[i, j] and the unit vector e_i for up[i, j].
        pre_k = h_k @ above.weight.T + above.bias
        w_up_cols = (above.weight @ up).T  # row i: column i of W @ up
        w_cols = above.weight.T  # row i: column i of W
        local = coords - (k - 1) * size
        in_layer = (local >= 0) & (local < size)
        for is_down in (True, False):
            kind = in_layer & ((local < m * d) if is_down else (local >= m * d))
            positions = np.flatnonzero(kind)
            for lo in range(0, positions.size, per_chunk):
                pos = positions[lo : lo + per_chunk]
                n = pos.size
                step = np.concatenate([plus[pos], minus[pos]])
                flags = np.zeros(n, dtype=bool)
                if is_down:
                    # down[i, j] += step moves column i of u by step * r[:, j], and
                    # h_k by the change of relu(u[:, i]) times column i of up.
                    i, j = np.divmod(np.tile(local[pos], 2), d)
                    col = u[:, i].T + step[:, None] * r[:, j].T
                    _flag_crossings(col, flags)
                    a = _relu(col) - s[:, i].T
                    w_c = w_up_cols[i]
                else:
                    # up[i, j] += step adds step * s[:, j] to column i of h_k.
                    i, j = np.divmod(np.tile(local[pos], 2) - m * d, m)
                    a = step[:, None] * s[:, j].T
                    w_c = w_cols[i]
                pre, spare = stacks[:, : 2 * n * batch]
                copies = pre.reshape(2 * n, batch, d)
                np.multiply(a[:, :, None], w_c[:, None, :], out=copies)
                copies += pre_k
                logits = _suffix_logits(pre, spare, model, k, flags)
                f = _copy_losses(logits.reshape(2 * n, -1), sign)
                if beta > 0:
                    moved = np.tile(coords[pos], 2)
                    sq_step = sq + step * (2.0 * flat[moved] + step)
                    dot_step = dot + step * ref[moved]
                    cos_step = dot_step / (np.sqrt(sq_step) * ref_norm)
                    f += beta * np.where(pulled[moved], -cos_step, reg)
                numeric[pos] = (f[:n] - f[n:]) / (2.0 * h)
                crossed[pos] = flags
    return numeric, crossed


def _gradient_check(fx: dict, h: float, recheck: bool) -> tuple[float, int]:
    """Relative gradient error of fixture fx at step h, and how many coordinates straddle a kink.

    With recheck, those coordinates' central differences are retaken at h/10
    before the error is measured.
    """
    if h <= 0:
        raise InvalidArgumentError("step size h must be > 0")
    model, images, masks, theta_ref = _build_fixture(fx)
    args = (images, masks, model, theta_ref, fx["beta"])
    first = block1_features(images, model)
    analytic, scratch = np.empty((2, model.flat.size))
    objective_and_grad(first, masks, model, theta_ref, fx["beta"], analytic, scratch)
    numeric, crossed = _central_differences(*args, h)
    flagged = np.flatnonzero(crossed)
    if recheck and flagged.size:
        numeric[flagged] = _central_differences(*args, h / 10.0, flagged)[0]
    scale = max(float(np.max(np.abs(numeric))), 1e-12)
    return float(np.max(np.abs(analytic - numeric))) / scale, int(flagged.size)


def gradient_rel_error(fx: dict, h: float = 1e-5) -> float:
    """Max-norm relative error between analytic and finite-difference gradients.

    The analytic side is one objective_and_grad call. The numeric side is
    the central difference (f(x + h) - f(x - h)) / 2h of every entry of the
    model's flat adapter buffer (model.flat order), each moved on its own to
    the floats x + h and x - h, all taken in one batched pass of this
    module's own forward. No coordinate is rechecked: near a ReLU kink the
    error at h is returned as it is (check_gradients rechecks those).
    """
    return _gradient_check(fx, h, recheck=False)[0]


def check_gradients(h: float = 1e-5, num_fixtures: int = NUM_GRADIENT_FIXTURES) -> OracleResult:
    """gradient_rel_error on the default fixtures, kink-straddling coordinates retaken at h/10."""
    if not 1 <= num_fixtures <= NUM_GRADIENT_FIXTURES:
        raise InvalidArgumentError(
            f"gradient fixture count must be in 1..{NUM_GRADIENT_FIXTURES}, got {num_fixtures}"
        )
    worst = 0.0
    rechecked = 0
    for fx in gradient_fixtures()[:num_fixtures]:
        err, flagged = _gradient_check(fx, h, recheck=True)
        worst = max(worst, err)
        rechecked += flagged
    passed = worst < 1e-4
    detail = (
        f"max rel err = {worst:.3e}, "
        f"{rechecked} kink-straddling coordinates rechecked at h={h / 10.0:.0e}"
    )
    return OracleResult("adapter-gradient-vs-finite-diff", passed, detail)
