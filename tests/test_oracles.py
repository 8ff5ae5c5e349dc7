"""The batched gradient oracle against the per-coordinate loop it replaced, and its kink report."""

import tracemalloc
import types
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fedsim import oracles
from fedsim.adapter_net import PROB_CLAMP, objective
from fedsim.errors import NumericError
from fedsim.oracles import (
    _build_fixture,
    _central_differences,
    _copy_losses,
    _gradient_check,
    check_gradients,
    gradient_fixtures,
    gradient_rel_error,
)

# The kink fixture: at h=1e-5, 366 coordinates' +h and -h copies straddle a ReLU kink.
KINK_FIXTURE = gradient_fixtures(1)[3]
# Traced peak of one _central_differences pass on gradient_fixtures()[5] (K=6,
# d=64) at CHUNK_ROWS = 384. The guard keeps a taller stack from quietly
# spending grad_oracle's peak-RSS bound.
PASS_PEAK_KB = 1000


def reference_numeric(fx, h):
    """The per-coordinate central differences the batched pass replaced: 2 objective calls per entry."""
    model, images, masks, theta_ref = _build_fixture(fx)
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
    return numeric


# The benchmark's six grad_oracle fixture shapes, at two of its seeds, and the kink fixture.
CASES = [(fx, 1e-5) for seed in (3, 5) for fx in gradient_fixtures(seed)[:6]]
CASES.append((KINK_FIXTURE, 1e-6))


@pytest.mark.parametrize(
    "fx, h", CASES, ids=[f"seed{fx['seed']}-K{fx['num_blocks']}-d{fx['feature_dim']}" for fx, _ in CASES]
)
def test_batched_numeric_gradient_matches_the_per_coordinate_loop(fx, h):
    model, images, masks, theta_ref = _build_fixture(fx)
    numeric, crossed = _central_differences(images, masks, model, theta_ref, fx["beta"], h)
    reference = reference_numeric(fx, h)
    scale = float(np.max(np.abs(reference)))
    assert np.max(np.abs(numeric - reference)) <= 1e-8 * scale
    assert not crossed.any()


def test_kink_fixture_is_flagged_at_h_and_clean_at_h_over_10():
    err, flagged = _gradient_check(KINK_FIXTURE, 1e-5, recheck=False)
    assert flagged == 366
    model, images, masks, theta_ref = _build_fixture(KINK_FIXTURE)
    _, crossed = _central_differences(images, masks, model, theta_ref, KINK_FIXTURE["beta"], 1e-5)
    kinks = np.flatnonzero(crossed)
    assert (kinks.size, kinks.min(), kinks.max(), kinks.sum()) == (366, 0, 3053, 567_657)
    assert err == pytest.approx(2.78e-2, rel=1e-2)
    assert gradient_rel_error(KINK_FIXTURE) == err
    rechecked, again = _gradient_check(KINK_FIXTURE, 1e-5, recheck=True)
    assert again == 366
    assert rechecked < 1e-8
    err_small, flagged_small = _gradient_check(KINK_FIXTURE, 1e-6, recheck=False)
    assert flagged_small == 0
    assert err_small < 1e-8


def test_every_bad_difference_is_flagged():
    # Away from the flagged coordinates the differences at h=1e-5 are as good as anywhere.
    model, images, masks, theta_ref = _build_fixture(KINK_FIXTURE)
    numeric, crossed = _central_differences(images, masks, model, theta_ref, 0.05, 1e-5)
    exact, _ = _central_differences(images, masks, model, theta_ref, 0.05, 1e-6)
    scale = float(np.max(np.abs(exact)))
    assert np.max(np.abs(numeric - exact)[~crossed]) < 1e-7 * scale
    assert np.max(np.abs(numeric - exact)[crossed]) > 1e-3 * scale


def test_one_pass_peaks_near_its_measured_allocation():
    fx = gradient_fixtures()[5]
    assert (fx["num_blocks"], fx["feature_dim"]) == (6, 64)
    model, images, masks, theta_ref = _build_fixture(fx)
    tracemalloc.start()
    try:
        _central_differences(images, masks, model, theta_ref, fx["beta"], 1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * PASS_PEAK_KB * 1024


def _bottleneck_at_zero(k):
    """Fixture 0 (K=2) with layer k's bottleneck unit 0 moved to 1e-12 on sample 0.

    Returns the arguments of _central_differences and layer k's input r_k.
    """
    model, images, masks, theta_ref = _build_fixture(gradient_fixtures()[0])
    h = images
    for block, (down, up) in zip(model.blocks[:k], model.adapters[:k]):
        r = np.maximum(h @ block.weight.T + block.bias, 0.0)
        h = np.maximum(r @ down.T, 0.0) @ up.T + r
    down = model.adapters[k - 1][0]
    down[0] -= (r[0] @ down[0] - 1e-12) / (r[0] @ r[0]) * r[0]
    return (images, masks, model, theta_ref, 0.05, 1e-5), r


def test_kink_at_the_perturbed_layers_own_bottleneck_is_flagged():
    args, r = _bottleneck_at_zero(1)
    _, crossed = _central_differences(*args)
    model = args[2]
    d = model.feature_dim
    moved = np.flatnonzero(r[0] > 0.0)  # down_proj[0, j] moves u[0, 0] by +-h * r[0, j]
    assert crossed[moved].all()
    assert not crossed[model.layer_size :].any()  # layer 2 cannot move layer 1's bottleneck
    assert crossed[:d].sum() == moved.size


def test_kink_at_a_bottleneck_above_the_perturbed_layer_is_flagged():
    args, r = _bottleneck_at_zero(2)
    _, crossed = _central_differences(*args)
    size = args[2].layer_size
    assert crossed[size + np.flatnonzero(r[0] > 0.0)].all()
    assert crossed[:size].any()


def clamped_bce_ulps(losses, z, y):
    """Each loss's distance in ulp from -log of sigmoid(z) clamped, against y, to 50 digits."""
    errors = []
    with localcontext() as ctx:
        ctx.prec = 50
        clamp = Decimal(PROB_CLAMP)
        lo, hi = -(1 - clamp).ln(), -clamp.ln()
        for loss, zi, yi in zip(losses, z, y):
            t = Decimal(float(zi)) * (1 - 2 * int(yi))
            exact = min(max((1 + t.exp()).ln(), lo), hi)
            errors.append(abs(Decimal(float(loss)) - exact) / Decimal(np.spacing(float(exact))))
    return np.array(errors, dtype=float)


def test_copy_loss_is_within_2_ulp_of_a_50_digit_reference():
    # Both sides of the clamp (-log(PROB_CLAMP) = 16.118...), zero, and +-1e-300.
    grid = np.concatenate([np.linspace(-40.0, 40.0, 4001), [16.1, -16.1, 16.2, -16.2, 0.0, 1e-300, -1e-300]])
    z = np.tile(grid, 2).reshape(-1, 1)
    y = np.repeat([0.0, 1.0], grid.size).reshape(-1, 1)
    losses = _copy_losses(z.copy(), 1.0 - 2.0 * y)
    assert clamped_bce_ulps(losses, z[:, 0], y[:, 0]).max() <= 2.0


def test_oracle_is_precise_where_copies_sit_next_to_the_clamp():
    # 20 of this fixture's 192 logits lie within 2 of the clamp's edge, |z| = 16.1.
    # Copy losses taken with objective's arithmetic read an error of 3.3e-7 here,
    # and an unperturbed loss taken as one softplus is not objective's to 1e-12
    # (a NumericError).
    assert gradient_rel_error(gradient_fixtures(37)[5]) < 5e-9


def test_check_gradients_names_the_rechecked_count(monkeypatch):
    clean = check_gradients(num_fixtures=6)
    assert clean.passed
    assert "0 kink-straddling coordinates rechecked at h=1e-06" in clean.detail
    monkeypatch.setattr(oracles, "gradient_fixtures", lambda: [KINK_FIXTURE])
    kinked = check_gradients()
    assert kinked.passed
    assert "366 kink-straddling coordinates rechecked at h=1e-06" in kinked.detail


def test_one_objective_call_per_fixture(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return objective(*args)

    monkeypatch.setattr(oracles, "objective", counted)
    gradient_rel_error(gradient_fixtures()[0])
    assert len(calls) == 1


def test_base_loss_mismatch_is_a_numeric_error(monkeypatch):
    monkeypatch.setattr(oracles, "objective", lambda *args: objective(*args) * (1.0 + 1e-10))
    with pytest.raises(NumericError, match="unperturbed loss"):
        gradient_rel_error(gradient_fixtures()[0])


def _names(code: types.CodeType) -> set[str]:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


def test_oracle_shares_no_forward_code_with_objective_and_grad():
    used = set(vars(oracles))
    for value in vars(oracles).values():
        code = getattr(value, "__code__", None)
        if code is not None and getattr(value, "__module__", None) == oracles.__name__:
            used |= _names(code)
    assert not used & {"_forward_cached", "model_forward", "sigmoid", "_bce"}
