"""Surrogate foundation model: frozen linear blocks with trainable bottleneck adapters.

The network is a stack of frozen random-orthogonal linear blocks, each
followed by a residual bottleneck adapter, plus a frozen linear head that
emits one logit per mask pixel. Only adapter weights train; gradients are
hand-derived reverse mode and updates use Adam.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError, NumericError
from .numerics import FlatParams, RngStream

PROB_CLAMP = 1e-7

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class FrozenBlock:
    """Immutable linear map (weight, bias); never receives gradient."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        weight = np.array(self.weight, dtype=np.float64)
        bias = np.array(self.bias, dtype=np.float64)
        if weight.ndim != 2 or weight.shape[0] != weight.shape[1]:
            raise InvalidArgumentError("frozen weight must be square")
        if bias.shape != (weight.shape[0],):
            raise InvalidArgumentError("frozen bias length must match weight")
        weight.setflags(write=False)
        bias.setflags(write=False)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "bias", bias)


@dataclass
class ToyFM:
    """K frozen blocks, each followed by a bottleneck adapter, plus a frozen head.

    The model owns every adapter weight in one contiguous float64 vector,
    `flat`: layers ascending, down_proj before up_proj,
    row-major within each. down_proj is (bottleneck_dim, feature_dim) and
    up_proj is (feature_dim, bottleneck_dim); there are no bias terms.
    `adapters[k - 1]` is layer k's (down_proj, up_proj) as reshaped views of
    its slice, so writing `flat` (Adam, install) moves the adapters with no
    copies. The constructor keeps `flat` as its buffer (in a run, a row of
    the parameter matrix), so it must be a C-contiguous float64 vector.
    """

    blocks: list[FrozenBlock]
    head: FrozenBlock
    feature_dim: int
    bottleneck_dim: int
    flat: np.ndarray = field(repr=False)
    adapters: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.bottleneck_dim >= self.feature_dim:
            raise InvalidArgumentError("bottleneck_dim must be smaller than feature_dim")
        if len(self.blocks) < 2:
            raise InvalidArgumentError("model needs at least 2 blocks")
        for block in self.blocks:
            if block.weight.shape != (self.feature_dim, self.feature_dim):
                raise InvalidArgumentError("frozen block dimension mismatch")
        flat, size = self.flat, self.num_blocks * self.layer_size
        kept = isinstance(flat, np.ndarray) and flat.flags.c_contiguous
        if not kept or flat.dtype != np.float64 or flat.shape != (size,):
            raise InvalidArgumentError(f"flat must be {size} C-contiguous float64 values")
        if not np.all(np.isfinite(flat)):
            raise InvalidArgumentError("adapter parameters must be finite")
        self.adapters = [self._layer_views(flat, k) for k in range(1, self.num_blocks + 1)]

    def _layer_views(self, values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Layer k's (down_proj, up_proj) as views of `values`, a vector laid out like flat."""
        layer = values[self._span(k)]
        cut = self.bottleneck_dim * self.feature_dim
        return (
            layer[:cut].reshape(self.bottleneck_dim, self.feature_dim),
            layer[cut:].reshape(self.feature_dim, self.bottleneck_dim),
        )

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def layer_size(self) -> int:
        return 2 * self.feature_dim * self.bottleneck_dim

    def _span(self, k: int) -> slice:
        """Where 1-based adapter layer k sits in flat."""
        if not 1 <= k <= len(self.blocks):
            raise InvalidArgumentError(f"layer {k} out of range 1..{len(self.blocks)}")
        return slice((k - 1) * self.layer_size, k * self.layer_size)

    def manifest(self, num_layers: int | None = None) -> tuple[tuple[int, int], ...]:
        """Wire manifest, (layer, length) pairs, of adapter layers 1..num_layers (default: all)."""
        if num_layers is None:
            num_layers = self.num_blocks
        self._span(num_layers)  # rejects a count outside 1..num_blocks
        return tuple((k, self.layer_size) for k in range(1, num_layers + 1))

    def low(self, num_layers: int) -> np.ndarray:
        """The shared adapter layers 1..num_layers: the view flat[: num_layers * layer_size]."""
        return self.flat[: self._span(num_layers).stop]

    def adapter_params(self) -> FlatParams:
        """A FlatParams copy of every adapter weight (bench/tracer.py's target only)."""
        return FlatParams(self.flat, self.manifest())

    def install_adapter_params(self, params: FlatParams) -> None:
        """Overwrite the adapters named in the manifest, in place; others stay untouched."""
        spans = [self._span(k) for k, _ in params.manifest]
        bad = [length for _, length in params.manifest if length != self.layer_size]
        if bad:
            raise InvalidArgumentError(f"expected {self.layer_size} adapter values, got {bad[0]}")
        for span, (_, values) in zip(spans, params.split()):
            self.flat[span] = values

    def clone(self) -> "ToyFM":
        """Copy with its own adapter buffer; frozen blocks are shared (immutable).

        No src code calls it: it stays only because bench/tracer.py names it as a target.
        """
        return replace(self, blocks=list(self.blocks), flat=self.flat.copy())


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled in numpy's wheel, or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _qr_one_thread(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.qr with OpenBLAS set to one thread, and its thread count restored after.

    At two threads a 256x256 QR now and then takes about 1 s instead of
    10 ms; at one thread none stalled. Q and R are the same bits at either
    count, so without the bundled library this is the plain QR.
    """
    threads = _openblas_threads()
    if threads is None:
        return np.linalg.qr(a)
    get, set_ = threads
    previous = get()
    set_(1)
    try:
        return np.linalg.qr(a)
    finally:
        set_(previous)


def _orthogonal(stream: RngStream, n: int) -> np.ndarray:
    a = stream.draw_gaussian(n * n).reshape(n, n)
    q, r = _qr_one_thread(a)
    # Fix the sign convention so the factorization is unique.
    return q * np.sign(np.diag(r))


def frozen_backbone(
    feature_dim: int, num_blocks: int, stream: RngStream
) -> tuple[list[FrozenBlock], FrozenBlock]:
    """num_blocks orthogonal blocks with small biases, then an orthogonal head, from stream."""
    blocks = []
    for _ in range(num_blocks):
        weight = _orthogonal(stream, feature_dim)
        blocks.append(FrozenBlock(weight, 0.1 * stream.draw_gaussian(feature_dim)))
    return blocks, FrozenBlock(_orthogonal(stream, feature_dim), np.zeros(feature_dim))


def build_model(
    feature_dim: int,
    bottleneck_dim: int,
    num_blocks: int,
    frozen_stream: RngStream,
    adapter_stream: RngStream,
) -> ToyFM:
    """Construct a model with orthogonal frozen blocks and identity-start adapters.

    up_proj starts at zero, so each adapter is the identity map and every
    freshly built model computes the same function as its frozen backbone.
    """
    blocks, head = frozen_backbone(feature_dim, num_blocks, frozen_stream)
    flat = np.zeros(num_blocks * 2 * feature_dim * bottleneck_dim)
    model = ToyFM(blocks, head, feature_dim, bottleneck_dim, flat)
    draw_adapters(model, adapter_stream)
    return model


def draw_adapters(model: ToyFM, stream: RngStream) -> None:
    """Redraw every adapter in place, layer by layer: down_proj from N(0, 1/d), up_proj zero."""
    scale = np.sqrt(model.feature_dim)
    for down, up in model.adapters:
        down[...] = stream.draw_gaussian(down.size).reshape(down.shape) / scale
        up[...] = 0.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: exp is only taken of -|x| <= 0."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def model_forward(x: np.ndarray, model: ToyFM) -> np.ndarray:
    """Logits for one input vector or a (batch, feature_dim) matrix.

    Frozen block 1, then _forward_cached: the one forward arithmetic.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.feature_dim:
        raise InvalidArgumentError(
            f"input length {x.shape[-1]} does not match feature_dim {model.feature_dim}"
        )
    return _forward_cached(_frozen_block(x, model.blocks[0]), model)[0]


def _check_mask(y: np.ndarray) -> None:
    if not np.all((y == 0.0) | (y == 1.0)):
        raise InvalidArgumentError("mask entries must be 0 or 1")


def _bce(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy of probabilities p, clamped to [PROB_CLAMP, 1 - PROB_CLAMP]."""
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(np.mean(-y * np.log(p) - (1.0 - y) * np.log1p(-p)))


def _cosine_parts(theta_low: np.ndarray, theta_ref: np.ndarray) -> tuple[float, float, float]:
    """||theta_low||, ||theta_ref|| and their dot: all the regularizer and its gradient need."""
    return (
        float(np.linalg.norm(theta_low)),
        float(np.linalg.norm(theta_ref)),
        float(np.dot(theta_low, theta_ref)),
    )


def _neg_cosine(na: float, nb: float, dot: float) -> float:
    """-cos from _cosine_parts, or 0 when either vector is the zero vector."""
    if na == 0.0 or nb == 0.0:
        return 0.0
    return -(dot / (na * nb))


def _reg_grad(
    theta_low: np.ndarray,
    theta_ref: np.ndarray,
    beta: float,
    na: float,
    nb: float,
    dot: float,
    term: np.ndarray,
    pull: np.ndarray,
) -> None:
    """Write beta times the gradient of +cos(theta_low, theta_ref) into term.

    Each entry is beta * (ref / (na * nb) - theta * dot / (na**3 * nb)), in
    that arithmetic order; pull, as long as term, is overwritten on the way.
    Subtracting term from the gradient adds beta times the gradient of the
    regularizer -cos.
    """
    np.divide(theta_ref, na * nb, out=term)
    np.multiply(theta_low, dot, out=pull)
    pull /= na**3 * nb
    term -= pull
    term *= beta


def _check_objective_args(
    images: np.ndarray,
    masks: np.ndarray,
    model: ToyFM,
    theta_ref: np.ndarray | None,
    beta: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Validate objective's arguments: the batch's images, its masks, theta_ref and beta.

    Returns images and masks as float64 matrices, and the regularizer's
    reference: None when it is off, else theta_ref as a float64 vector over
    layers 1..L, laid out like the start of model.flat.
    """
    if beta < 0:
        raise InvalidArgumentError("beta must be >= 0")
    if beta > 0 and theta_ref is None:
        raise InvalidArgumentError("theta_ref is required when beta > 0")
    images = np.atleast_2d(np.asarray(images, dtype=np.float64))
    masks = np.atleast_2d(np.asarray(masks, dtype=np.float64))
    if images.shape != masks.shape:
        raise InvalidArgumentError("inputs and masks must have matching shapes")
    _check_mask(masks)
    if theta_ref is None or beta == 0:
        return images, masks, None
    theta_ref = np.asarray(theta_ref, dtype=np.float64)
    layers, rest = divmod(theta_ref.size, model.layer_size)
    if theta_ref.ndim != 1 or rest or not 1 <= layers <= model.num_blocks:
        raise InvalidArgumentError(
            f"theta_ref must be a vector over layers 1..L, {model.layer_size} values per layer"
        )
    if not np.any(theta_ref):
        raise InvalidArgumentError("reference parameters must be non-zero")
    return images, masks, theta_ref


def _frozen_block(h: np.ndarray, block: FrozenBlock) -> np.ndarray:
    """relu(h @ weight.T + bias), as a new matrix."""
    r = h @ block.weight.T
    r += block.bias
    np.maximum(r, 0.0, out=r)
    return r


def block1_features(images: np.ndarray, model: ToyFM) -> np.ndarray:
    """The frozen block 1's output for a (batch, feature_dim) matrix of inputs.

    Adapters never change it, so a training set's rows can be computed once
    and gathered per batch (objective_and_grad's `first`).
    """
    images = np.atleast_2d(np.asarray(images, dtype=np.float64))
    if images.ndim != 2 or images.shape[1] != model.feature_dim:
        raise InvalidArgumentError(
            f"images must be a (batch, {model.feature_dim}) matrix, got shape {images.shape}"
        )
    return _frozen_block(images, model.blocks[0])


def _forward_cached(first: np.ndarray, model: ToyFM):
    """Logits from block 1's output, one row or a matrix of rows, with what backprop needs.

    The cache holds each layer's adapter input r, bottleneck pre-activation
    u and activation s. Every forward pass of the model runs through here.
    """
    r = first
    cache = []
    for k, (down, up) in enumerate(model.adapters):
        if k:
            r = _frozen_block(h, model.blocks[k])
        u = r @ down.T
        s = np.maximum(u, 0.0)
        h = s @ up.T
        h += r
        cache.append((r, u, s))
    logits = h @ model.head.weight.T + model.head.bias
    return logits, cache


def objective_and_grad(
    first: np.ndarray,
    masks: np.ndarray,
    model: ToyFM,
    theta_ref: np.ndarray | None,
    beta: float,
    out: np.ndarray,
    scratch: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Objective value and its exact gradient w.r.t. all adapter parameters, written into out.

    The training step's kernel: it checks none of its arguments (objective
    does), so the caller guarantees that
    - `first`, the batch's block-1 features (block1_features), is a float64
      (batch, feature_dim) matrix, and `masks` a float64 0/1 matrix of its shape;
    - beta >= 0, and if beta > 0, theta_ref is a non-zero float64 vector
      over layers 1..L, laid out like the start of model.flat;
    - `out` and `scratch` are float64 vectors laid out like model.flat that
      do not overlap.
    The segmentation term is averaged over the batch; the regularizer pulls
    layers 1..L toward theta_ref, scaled by beta, and is skipped when beta
    is 0. Frozen blocks receive no gradient. The gradient is written into
    `out`, which is returned; `scratch` receives the regularizer's temporaries.
    """
    batch, pixels = masks.shape
    logits, cache = _forward_cached(first, model)
    p = sigmoid(logits)
    loss = _bce(p, masks)

    reg = None
    if beta > 0:
        theta_low = model.flat[: theta_ref.size]
        parts = _cosine_parts(theta_low, theta_ref)
        loss += beta * _neg_cosine(*parts)
        # Nothing is added when theta_low is the zero vector, where -cos is constant 0.
        if parts[0] != 0.0:
            reg = scratch[: theta_ref.size]
            # The backward pass below has not written out yet, so its head can hold pull.
            _reg_grad(theta_low, theta_ref, beta, *parts, term=reg, pull=out[: theta_ref.size])

    # d(loss)/d(logit) = (p - y) where the clamp is inactive, else 0.
    inside = (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
    g = np.where(inside, p - masks, 0.0) / (batch * pixels)
    g = g @ model.head.weight

    for k in range(model.num_blocks, 0, -1):
        down, up = model.adapters[k - 1]
        r, u, s = cache[k - 1]
        grad_down, grad_up = model._layer_views(out, k)
        np.matmul(g.T, s, out=grad_up)
        d_hidden = (g @ up) * (u > 0)
        np.matmul(d_hidden.T, r, out=grad_down)
        if k > 1:
            d_input = d_hidden @ down
            d_input += g
            d_input *= r > 0
            g = d_input @ model.blocks[k - 1].weight

    if reg is not None:
        # g + beta * -(a - b) is g - beta * (a - b) bit for bit.
        out[: reg.size] -= reg
    return loss, out


def objective(
    images: np.ndarray,
    masks: np.ndarray,
    model: ToyFM,
    theta_ref: np.ndarray | None,
    beta: float,
) -> float:
    """Forward-only objective: the same float objective_and_grad returns as its loss.

    Runs model_forward, the segmentation loss and the beta-scaled
    regularizer on layers 1..L, with no backward pass and no gradient
    built. Unlike objective_and_grad it checks its arguments, raising
    InvalidArgumentError; it computes the loss with the same operations in
    the same order, so the two agree bit for bit.
    """
    images, masks, ref = _check_objective_args(images, masks, model, theta_ref, beta)
    loss = _bce(sigmoid(model_forward(images, model)), masks)
    if ref is not None:
        loss += beta * _neg_cosine(*_cosine_parts(model.flat[: ref.size], ref))
    return loss


@dataclass
class AdamState:
    """Adam accumulators shaped like the trainable parameter vector."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0


def adam_update(
    values: np.ndarray, grads: np.ndarray, state: AdamState, lr: float, scratch: np.ndarray
) -> None:
    """One bias-corrected Adam step, in place on values and state, allocating no float vector.

    scratch, a vector as long as values, holds the step on its way; grads
    is overwritten too, with the denominator, once the second moment has
    taken it in. Neither may overlap values, the moments or each other.
    The caller guarantees lr > 0 and that all five vectors have one size.
    Raises NumericError if the updated values are not all finite; values
    and state then hold that failed step.
    """
    m, v = state.first_moment, state.second_moment
    t = state.step_count + 1
    step, denom = scratch, grads
    np.multiply(1.0 - ADAM_BETA1, grads, out=step)
    m *= ADAM_BETA1
    m += step
    np.square(grads, out=step)
    step *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += step
    np.divide(v, 1.0 - ADAM_BETA2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1**t, out=step)
    step *= lr
    step /= denom
    values -= step
    state.step_count = t
    if not np.all(np.isfinite(values)):
        raise NumericError(f"parameter update diverged at optimizer step {t}")


def adam_step(
    params: FlatParams, grads: FlatParams, state: AdamState, lr: float
) -> tuple[FlatParams, AdamState]:
    """One bias-corrected Adam update, returning new params and state (bench/tracer.py target)."""
    if params.manifest != grads.manifest:
        raise InvalidArgumentError("params and grads manifests must match")
    values = params.values.copy()
    new_state = AdamState(state.first_moment.copy(), state.second_moment.copy(), state.step_count)
    adam_update(values, grads.values.copy(), new_state, lr, np.empty_like(values))
    return FlatParams(values, params.manifest), new_state
