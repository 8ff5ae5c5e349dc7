"""Surrogate foundation model: frozen linear blocks with trainable bottleneck adapters.

The network is a stack of frozen random-orthogonal linear blocks, each
followed by a residual bottleneck adapter, plus a frozen linear head that
emits one logit per mask pixel. Only adapter weights train; gradients are
hand-derived reverse mode and updates use Adam.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NumericError
from .numerics import FlatParams, RngStream, cosine_similarity

PROB_CLAMP = 1e-7

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdapterParams:
    """Trainable bottleneck adapter: down projection, ReLU, up projection.

    down_proj is (bottleneck_dim, feature_dim); up_proj is
    (feature_dim, bottleneck_dim). No bias terms. Both are reshaped views
    of one flat vector, `values` (down_proj then up_proj, row-major);
    assigning a projection writes into that vector in place.
    """

    __slots__ = ("values", "_down", "_up")

    def __init__(self, down_proj: np.ndarray, up_proj: np.ndarray) -> None:
        down = np.array(down_proj, dtype=np.float64)
        up = np.array(up_proj, dtype=np.float64)
        if down.ndim != 2 or up.ndim != 2:
            raise InvalidArgumentError("adapter projections must be matrices")
        b, d = down.shape
        d2, b2 = up.shape
        if (d, b) != (d2, b2):
            raise InvalidArgumentError(
                f"up_proj shape {up.shape} does not mirror down_proj {down.shape}"
            )
        if b >= d:
            raise InvalidArgumentError("bottleneck_dim must be smaller than feature_dim")
        if not (np.all(np.isfinite(down)) and np.all(np.isfinite(up))):
            raise InvalidArgumentError("adapter parameters must be finite")
        self._bind(np.concatenate([down.ravel(), up.ravel()]), b, d)

    @classmethod
    def over(cls, values: np.ndarray, bottleneck_dim: int, feature_dim: int) -> "AdapterParams":
        """An adapter whose projections are views of `values` (no copy, no checks)."""
        adapter = cls.__new__(cls)
        adapter._bind(values, bottleneck_dim, feature_dim)
        return adapter

    def _bind(self, values: np.ndarray, b: int, d: int) -> None:
        self.values = values
        self._down = values[: b * d].reshape(b, d)
        self._up = values[b * d :].reshape(d, b)

    @property
    def down_proj(self) -> np.ndarray:
        return self._down

    @down_proj.setter
    def down_proj(self, value: np.ndarray) -> None:
        _assign(self._down, value)

    @property
    def up_proj(self) -> np.ndarray:
        return self._up

    @up_proj.setter
    def up_proj(self, value: np.ndarray) -> None:
        _assign(self._up, value)

    @property
    def feature_dim(self) -> int:
        return self._down.shape[1]

    @property
    def bottleneck_dim(self) -> int:
        return self._down.shape[0]


def _assign(target: np.ndarray, value: np.ndarray) -> None:
    value = np.asarray(value, dtype=np.float64)
    if value.shape != target.shape:
        raise InvalidArgumentError(f"expected a {target.shape} projection, got {value.shape}")
    target[...] = value


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
    """K frozen blocks, each wrapped with an adapter, plus a frozen head.

    The model owns every adapter weight in one contiguous float64 vector,
    `flat`, in FlatParams order: layers ascending, down_proj before up_proj,
    row-major within each. Each block's adapter is a view of its slice, so
    writing `flat` (Adam, install) moves the adapters with no copies.
    """

    blocks: list[tuple[FrozenBlock, AdapterParams]]
    head: FrozenBlock
    feature_dim: int
    bottleneck_dim: int
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.blocks) < 2:
            raise InvalidArgumentError("model needs at least 2 blocks")
        for block, adapter in self.blocks:
            if block.weight.shape != (self.feature_dim, self.feature_dim):
                raise InvalidArgumentError("frozen block dimension mismatch")
            if adapter.feature_dim != self.feature_dim:
                raise InvalidArgumentError("adapter feature_dim mismatch")
            if adapter.bottleneck_dim != self.bottleneck_dim:
                raise InvalidArgumentError("adapter bottleneck_dim mismatch")
        self.flat = np.concatenate([adapter.values for _, adapter in self.blocks])
        b, d = self.bottleneck_dim, self.feature_dim
        self.blocks = [
            (block, AdapterParams.over(self.flat[self._span(k)], b, d))
            for k, (block, _) in enumerate(self.blocks, start=1)
        ]

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

    def manifest(self, layers: list[int] | None = None) -> tuple[tuple[int, int], ...]:
        """FlatParams manifest of the given 1-based layers (default: all)."""
        if layers is None:
            layers = range(1, self.num_blocks + 1)
        for k in layers:
            self._span(k)
        return tuple((int(k), self.layer_size) for k in layers)

    def adapter_params(self, layers: list[int] | None = None) -> FlatParams:
        """A copy of the adapter weights for the given 1-based layers (default: all)."""
        if layers is None:
            return FlatParams(self.flat, self.manifest())
        return FlatParams.from_layers((k, self.flat[self._span(k)]) for k in layers)

    def install_adapter_params(self, params: FlatParams) -> None:
        """Overwrite the adapters named in the manifest, in place; others stay untouched."""
        writes = []
        for k, values in params.split():
            span = self._span(k)
            if values.size != self.layer_size:
                raise InvalidArgumentError(
                    f"expected {self.layer_size} adapter values, got {values.size}"
                )
            writes.append((span, values))
        for span, values in writes:
            self.flat[span] = values

    def frozen_digest(self) -> str:
        """SHA-256 over every frozen weight and bias, in block order."""
        h = hashlib.sha256()
        for block, _ in self.blocks:
            h.update(block.weight.tobytes())
            h.update(block.bias.tobytes())
        h.update(self.head.weight.tobytes())
        h.update(self.head.bias.tobytes())
        return h.hexdigest()

    def clone(self) -> "ToyFM":
        """Copy with its own adapter buffer; frozen blocks are shared (immutable)."""
        return ToyFM(list(self.blocks), self.head, self.feature_dim, self.bottleneck_dim)


def _orthogonal(stream: RngStream, n: int) -> np.ndarray:
    a = stream.draw_gaussian(n * n).reshape(n, n)
    q, r = np.linalg.qr(a)
    # Fix the sign convention so the factorization is unique.
    return q * np.sign(np.diag(r))


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
    if bottleneck_dim >= feature_dim:
        raise InvalidArgumentError("bottleneck_dim must be smaller than feature_dim")
    blocks = []
    for _ in range(num_blocks):
        weight = _orthogonal(frozen_stream, feature_dim)
        bias = 0.1 * frozen_stream.draw_gaussian(feature_dim)
        down = adapter_stream.draw_gaussian(bottleneck_dim * feature_dim).reshape(
            bottleneck_dim, feature_dim
        ) / np.sqrt(feature_dim)
        up = np.zeros((feature_dim, bottleneck_dim))
        blocks.append((FrozenBlock(weight, bias), AdapterParams(down, up)))
    head = FrozenBlock(_orthogonal(frozen_stream, feature_dim), np.zeros(feature_dim))
    return ToyFM(blocks, head, feature_dim, bottleneck_dim)


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: exp is only taken of -|x| <= 0."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def adapter_forward(f: np.ndarray, adapter: AdapterParams) -> np.ndarray:
    """Residual bottleneck: up_proj @ relu(down_proj @ f) + f.

    Accepts a single feature vector or a (batch, feature_dim) matrix.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape[-1] != adapter.feature_dim:
        raise InvalidArgumentError(
            f"feature length {f.shape[-1]} does not match adapter dim {adapter.feature_dim}"
        )
    hidden = _relu(f @ adapter.down_proj.T)
    return hidden @ adapter.up_proj.T + f


def model_forward(x: np.ndarray, model: ToyFM) -> np.ndarray:
    """Logits for one input vector or a (batch, feature_dim) matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.feature_dim:
        raise InvalidArgumentError(
            f"input length {x.shape[-1]} does not match feature_dim {model.feature_dim}"
        )
    h = x
    for block, adapter in model.blocks:
        h = adapter_forward(_relu(h @ block.weight.T + block.bias), adapter)
    return h @ model.head.weight.T + model.head.bias


def _check_mask(y: np.ndarray) -> None:
    if not np.all((y == 0.0) | (y == 1.0)):
        raise InvalidArgumentError("mask entries must be 0 or 1")


def _bce(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy of probabilities p, clamped to [PROB_CLAMP, 1 - PROB_CLAMP]."""
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(np.mean(-y * np.log(p) - (1.0 - y) * np.log1p(-p)))


def seg_loss(logits: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy over pixels (and batch), with clamped probabilities."""
    logits = np.asarray(logits, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if logits.shape != y.shape:
        raise InvalidArgumentError(f"shape mismatch: logits {logits.shape} vs mask {y.shape}")
    _check_mask(y)
    return _bce(sigmoid(logits), y)


def _neg_cosine(theta_low: np.ndarray, theta_ref: np.ndarray) -> float:
    """-cos(theta_low, theta_ref), or 0 when theta_low is the zero vector."""
    if not np.any(theta_low):
        return 0.0
    return -cosine_similarity(theta_low, theta_ref)


def reg_loss(theta_low: FlatParams, theta_ref: FlatParams) -> float:
    """Negated cosine between the current and reference low-level adapters.

    Defined as 0 when theta_low is the zero vector (cosine undefined there,
    and 0 applies no pull).
    """
    if not theta_low.same_manifest(theta_ref):
        raise InvalidArgumentError("reg_loss requires identical manifests")
    if not np.any(theta_ref.values):
        raise InvalidArgumentError("reference parameters must be non-zero")
    return _neg_cosine(theta_low.values, theta_ref.values)


def _reg_grad(theta_low: np.ndarray, theta_ref: np.ndarray) -> np.ndarray:
    """Gradient of -cos(theta_low, theta_ref) with respect to theta_low."""
    na = float(np.linalg.norm(theta_low))
    if na == 0.0:
        return np.zeros_like(theta_low)
    nb = float(np.linalg.norm(theta_ref))
    dot = float(np.dot(theta_low, theta_ref))
    return -(theta_ref / (na * nb) - theta_low * dot / (na**3 * nb))


Reference = tuple[list[slice], np.ndarray]


def _check_objective_args(
    images: np.ndarray,
    masks: np.ndarray,
    model: ToyFM,
    theta_ref: FlatParams | None,
    beta: float,
) -> tuple[np.ndarray, np.ndarray, Reference | None]:
    """Validate an objective's arguments.

    Returns images and masks as float64 matrices, and the regularizer's
    reference: None when it is off, else where each layer theta_ref names
    sits in model.flat and theta_ref's values.
    """
    if beta < 0:
        raise InvalidArgumentError("beta must be >= 0")
    if beta > 0 and theta_ref is None:
        raise InvalidArgumentError("theta_ref is required when beta > 0")
    images = np.atleast_2d(np.asarray(images, dtype=np.float64))
    masks = np.atleast_2d(np.asarray(masks, dtype=np.float64))
    if images.shape != masks.shape:
        raise InvalidArgumentError("images and masks must have matching shapes")
    _check_mask(masks)
    if theta_ref is None or beta == 0:
        return images, masks, None
    spans = []
    for k, length in theta_ref.manifest:
        spans.append(model._span(k))
        if length != model.layer_size:
            raise InvalidArgumentError("theta_ref manifest does not match the model's layers")
    if not np.any(theta_ref.values):
        raise InvalidArgumentError("reference parameters must be non-zero")
    return images, masks, (spans, theta_ref.values)


def _reference_layers(model: ToyFM, spans: list[slice]) -> np.ndarray:
    """A copy of the model's adapters at spans, concatenated in order."""
    return np.concatenate([model.flat[span] for span in spans])


def _forward_cached(x: np.ndarray, model: ToyFM):
    """model_forward's arithmetic, in place where it can be, keeping what backprop needs."""
    h = x
    cache = []
    for block, adapter in model.blocks:
        r = h @ block.weight.T
        r += block.bias
        np.maximum(r, 0.0, out=r)
        u = r @ adapter.down_proj.T
        s = _relu(u)
        h = s @ adapter.up_proj.T
        h += r
        cache.append((r, u, s))
    logits = h @ model.head.weight.T + model.head.bias
    return logits, cache


def objective_and_grad(
    images: np.ndarray,
    masks: np.ndarray,
    model: ToyFM,
    theta_ref: FlatParams | None,
    beta: float,
    *,
    out: np.ndarray | None = None,
) -> tuple[float, FlatParams | np.ndarray]:
    """Objective value and its exact gradient w.r.t. all adapter parameters.

    The segmentation term is averaged over the batch; the regularizer pulls
    the layers named in theta_ref's manifest toward theta_ref, scaled by beta.
    Frozen blocks receive no gradient, so backpropagation stops at the
    layer-1 adapter. The gradient is returned as a FlatParams over all
    layers; with `out` (a float64 vector shaped like model.flat) it is
    written into `out` instead, which is returned.
    """
    images, masks, ref = _check_objective_args(images, masks, model, theta_ref, beta)
    if out is None:
        grads = np.empty_like(model.flat)
    elif out.shape != model.flat.shape or out.dtype != np.float64:
        raise InvalidArgumentError(f"out must be a float64 vector of {model.flat.size} entries")
    else:
        grads = out
    batch, pixels = images.shape
    logits, cache = _forward_cached(images, model)
    p = sigmoid(logits)
    loss = _bce(p, masks)

    # d(loss)/d(logit) = (p - y) where the clamp is inactive, else 0.
    inside = (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
    g = np.where(inside, p - masks, 0.0) / (batch * pixels)
    g = g @ model.head.weight

    for k in range(model.num_blocks, 0, -1):
        block, adapter = model.blocks[k - 1]
        r, u, s = cache[k - 1]
        layer = AdapterParams.over(grads[model._span(k)], model.bottleneck_dim, model.feature_dim)
        np.matmul(g.T, s, out=layer.up_proj)
        d_hidden = (g @ adapter.up_proj) * (u > 0)
        np.matmul(d_hidden.T, r, out=layer.down_proj)
        if k > 1:
            d_input = d_hidden @ adapter.down_proj
            d_input += g
            d_input *= r > 0
            g = d_input @ block.weight

    if ref is not None:
        spans, reference = ref
        theta_low = _reference_layers(model, spans)
        loss += beta * _neg_cosine(theta_low, reference)
        reg_grad = beta * _reg_grad(theta_low, reference)
        for span, part in zip(spans, reg_grad.reshape(len(spans), -1)):
            grads[span] += part
    if out is not None:
        return loss, out
    return loss, FlatParams(grads, model.manifest())


def objective(
    images: np.ndarray,
    masks: np.ndarray,
    model: ToyFM,
    theta_ref: FlatParams | None,
    beta: float,
) -> float:
    """Forward-only objective: the same float objective_and_grad returns as its loss.

    Runs model_forward, the segmentation loss and the beta-scaled
    regularizer on the layers named in theta_ref, with no backward pass and
    no gradient built. It makes objective_and_grad's argument checks and
    computes the loss with the same operations in the same order, so the
    two agree bit for bit.
    """
    images, masks, ref = _check_objective_args(images, masks, model, theta_ref, beta)
    loss = _bce(sigmoid(model_forward(images, model)), masks)
    if ref is not None:
        spans, reference = ref
        loss += beta * _neg_cosine(_reference_layers(model, spans), reference)
    return loss


@dataclass
class AdamState:
    """Adam accumulators shaped like the trainable parameter vector."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS

    @classmethod
    def for_params(cls, params: FlatParams) -> "AdamState":
        return cls(
            first_moment=np.zeros(params.total_size),
            second_moment=np.zeros(params.total_size),
        )


def adam_update(values: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam step, in place on values and state.

    Raises NumericError if the updated values are not all finite; values
    and state then hold that failed step.
    """
    if lr <= 0:
        raise InvalidArgumentError("learning rate must be > 0")
    if not values.size == grads.size == state.first_moment.size == state.second_moment.size:
        raise InvalidArgumentError("Adam state does not match parameter size")
    t = state.step_count + 1
    m, v = state.first_moment, state.second_moment
    step = (1.0 - state.beta1) * grads
    m *= state.beta1
    m += step
    np.square(grads, out=step)
    step *= 1.0 - state.beta2
    v *= state.beta2
    v += step
    denom = v / (1.0 - state.beta2**t)
    np.sqrt(denom, out=denom)
    denom += state.eps
    np.divide(m, 1.0 - state.beta1**t, out=step)
    step *= lr
    step /= denom
    values -= step
    state.step_count = t
    if not np.all(np.isfinite(values)):
        raise NumericError(f"parameter update diverged at optimizer step {t}")


def adam_step(
    params: FlatParams, grads: FlatParams, state: AdamState, lr: float
) -> tuple[FlatParams, AdamState]:
    """One bias-corrected Adam update; returns new params and state."""
    if not params.same_manifest(grads):
        raise InvalidArgumentError("params and grads manifests must match")
    values = params.values.copy()
    new_state = AdamState(
        state.first_moment.copy(),
        state.second_moment.copy(),
        state.step_count,
        state.beta1,
        state.beta2,
        state.eps,
    )
    adam_update(values, grads.values, new_state, lr)
    return params.with_values(values), new_state
