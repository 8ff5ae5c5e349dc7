"""Client-side runtime: install the broadcast adapters, train locally, package the upload."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adapter_net import (
    AdamState,
    ToyFM,
    adam_update,
    model_forward,
    objective_and_grad,
    sigmoid,
)
from .datagen import ClientDataset
from .errors import InvalidArgumentError, InvalidStateError, NumericError, ProtocolError
from .numerics import FlatParams, RngStream, derive_stream_id


@dataclass
class ClientConfig:
    learning_rate: float = 1e-4
    batch_size: int = 32
    local_epochs: int = 1
    beta: float = 0.01
    low_layers: int = 1  # number of low-level adapter layers shared with the server

    def validate(self, num_blocks: int) -> None:
        if self.learning_rate <= 0:
            raise InvalidArgumentError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise InvalidArgumentError("batch_size must be >= 1")
        if self.local_epochs < 1:
            raise InvalidArgumentError("local_epochs must be >= 1")
        if self.beta < 0:
            raise InvalidArgumentError("beta must be >= 0")
        if not 1 <= self.low_layers <= num_blocks:
            raise InvalidArgumentError(
                f"low_layers must be in 1..{num_blocks}, got {self.low_layers}"
            )


@dataclass
class ClientUpdate:
    """Per-round upload: the low-level adapters plus local metrics.

    The round loop sets low_params to None once the server has decoded the
    upload into its round matrix.
    """

    client_id: int
    round_index: int
    low_params: FlatParams | None
    n_i: int
    train_loss: float
    test_iou: float
    test_dice: float


@dataclass
class ClientState:
    client_id: int
    model: ToyFM
    adam: AdamState
    dataset: ClientDataset
    config: ClientConfig
    seed: int
    theta_ref: FlatParams | None = None
    _train_images: np.ndarray = field(init=False, repr=False)
    _train_masks: np.ndarray = field(init=False, repr=False)
    _test_images: np.ndarray = field(init=False, repr=False)
    _test_masks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.config.validate(self.model.num_blocks)
        self._train_images = _stack([s.image for s in self.dataset.train])
        self._train_masks = _stack([s.mask for s in self.dataset.train])
        self._test_images = _stack([s.image for s in self.dataset.test])
        self._test_masks = _stack([s.mask for s in self.dataset.test])

    @property
    def low_layer_list(self) -> list[int]:
        return list(range(1, self.config.low_layers + 1))


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    if not arrays:
        return np.zeros((0, 0))
    return np.stack(arrays)


def install_low_adapters(state: ClientState, received: FlatParams) -> None:
    """Overwrite adapter layers 1..L with the broadcast and snapshot it as theta_ref."""
    expected = state.model.manifest(state.low_layer_list)
    if received.manifest != expected:
        raise ProtocolError(
            f"broadcast manifest {received.manifest} does not cover layers 1..{state.config.low_layers}"
        )
    state.model.install_adapter_params(received)
    state.theta_ref = received


def local_train_round(state: ClientState, round_index: int) -> ClientUpdate:
    """One local training pass (config.local_epochs epochs) plus evaluation.

    Batches are drawn in a seeded shuffle keyed by (client, round); only
    adapter parameters move. Each step writes the gradient into one buffer
    and updates model.flat and the Adam moments in place. Returns the
    post-training low-level adapters.
    """
    if state._train_images.size == 0:
        raise InvalidStateError(f"client {state.client_id} has an empty train set")
    cfg = state.config
    model = state.model
    n = state._train_images.shape[0]
    shuffle = RngStream(
        state.seed, derive_stream_id("shuffle", state.client_id, round_index)
    )
    grads = np.empty_like(model.flat)
    losses = []
    for _ in range(cfg.local_epochs):
        order = shuffle.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, _ = objective_and_grad(
                state._train_images[idx],
                state._train_masks[idx],
                model,
                state.theta_ref,
                cfg.beta,
                out=grads,
            )
            try:
                adam_update(model.flat, grads, state.adam, cfg.learning_rate)
            except NumericError as exc:
                raise NumericError(f"client {state.client_id}: {exc}") from exc
            losses.append(loss)
    iou, dice = evaluate(state)
    return ClientUpdate(
        client_id=state.client_id,
        round_index=round_index,
        low_params=model.adapter_params(state.low_layer_list),
        n_i=state.dataset.n_i,
        train_loss=float(np.mean(losses)),
        test_iou=iou,
        test_dice=dice,
    )


def iou_dice(pred: np.ndarray, truth: np.ndarray):
    """Overlap metrics of binary masks along the last axis; both-empty counts as perfect.

    One mask pair gives two floats; a stack of pairs gives two arrays, one
    entry per pair.
    """
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    inter = np.count_nonzero(pred & truth, axis=-1)
    sizes = np.count_nonzero(pred, axis=-1) + np.count_nonzero(truth, axis=-1)
    union = sizes - inter
    iou = np.divide(inter, union, out=np.ones(union.shape), where=union > 0)
    dice = np.divide(2.0 * inter, sizes, out=np.ones(sizes.shape), where=sizes > 0)
    if iou.ndim == 0:
        return float(iou), float(dice)
    return iou, dice


def evaluate(state: ClientState) -> tuple[float, float]:
    """Mean test IoU and Dice with predictions thresholded at probability 0.5."""
    if state._test_images.size == 0:
        raise InvalidStateError(f"client {state.client_id} has an empty test set")
    logits = model_forward(state._test_images, state.model)
    ious, dices = iou_dice(sigmoid(logits) > 0.5, state._test_masks)
    return float(np.mean(ious)), float(np.mean(dices))


def measure_param_shift(
    before: FlatParams | np.ndarray,
    after: FlatParams | np.ndarray,
    manifest: tuple[tuple[int, int], ...] | None = None,
) -> np.ndarray:
    """Per-layer relative L2 shift ||after - before|| / ||before|| (0/0 -> 0).

    Takes two FlatParams with one manifest, or, with `manifest`, two flat
    vectors laid out by it (such as a copy of a model's flat buffer and the
    buffer itself).
    """
    if manifest is None:
        if not before.same_manifest(after):
            raise InvalidArgumentError("param shift requires identical manifests")
        manifest, before, after = before.manifest, before.values, after.values
    elif not before.shape == after.shape == (sum(length for _, length in manifest),):
        raise InvalidArgumentError("param shift requires two vectors laid out by the manifest")
    shifts = []
    offset = 0
    for _, length in manifest:
        b_vals = before[offset : offset + length]
        a_vals = after[offset : offset + length]
        offset += length
        base = float(np.linalg.norm(b_vals))
        delta = float(np.linalg.norm(a_vals - b_vals))
        if base == 0.0:
            shifts.append(0.0 if delta == 0.0 else float("inf"))
        else:
            shifts.append(delta / base)
    return np.array(shifts)
