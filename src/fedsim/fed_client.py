"""Client-side runtime: decode the broadcast into the adapters, train locally, report metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adapter_net import (
    AdamState,
    ToyFM,
    adam_update,
    _forward_cached,
    block1_features,
    objective_and_grad,
    sigmoid,
)
from .datagen import ClientDataset
from .errors import InvalidArgumentError, InvalidStateError, NumericError
from .numerics import RngStream, derive_stream_id
from .transport import deserialize_params


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
    """Per-round client report; the upload itself is layers 1..L of model.flat, on the wire."""

    client_id: int
    round_index: int
    train_loss: float
    test_iou: float
    test_dice: float


def step_workspace(size: int) -> np.ndarray:
    """Scratch rows for local training on a model of `size` adapter values.

    Row 0 receives each step's gradient; row 1 holds Adam's and the
    regularizer's temporaries; row 2 is left to the caller of
    local_train_round (run_experiment keeps the pre-round copy of
    model.flat there). Every row is written before it is read, so clients
    that train one after another can share one workspace.
    """
    return np.empty((3, size))


@dataclass
class ClientState:
    """One client's model, optimizer, data and round state, its inputs checked once here.

    Each split must be a float64 (n, 2, feature_dim) array, n >= 1 (else InvalidStateError),
    with masks of only 0s and 1s; any other fault is an InvalidArgumentError. Only the frozen
    block-1 features are stored; masks are read from the dataset rows. `adam` starts at zero.
    `workspace` is a step_workspace for model.flat; one is made when none is given.
    """

    client_id: int
    model: ToyFM
    dataset: ClientDataset
    config: ClientConfig
    seed: int
    # During a round, a copy of the broadcast: layers 1..L, laid out like the start of model.flat.
    theta_ref: np.ndarray | None = None
    workspace: np.ndarray | None = field(default=None, repr=False)
    adam: AdamState = field(init=False, repr=False)
    _train_first: np.ndarray = field(init=False, repr=False)
    _test_first: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.config.validate(self.model.num_blocks)
        self._train_first, self._test_first = self._features("train"), self._features("test")
        size = self.model.flat.size
        if self.workspace is None:
            self.workspace = step_workspace(size)
        elif self.workspace.shape != (3, size) or self.workspace.dtype != np.float64:
            raise InvalidArgumentError(f"workspace must be a float64 (3, {size}) matrix")
        self.adam = AdamState.zeros(size)

    def _features(self, split: str) -> np.ndarray:
        """A split's block-1 features, once its rows are checked."""
        rows = getattr(self.dataset, split)
        where, d = f"client {self.client_id}: {split}", self.model.feature_dim
        if not isinstance(rows, np.ndarray) or rows.dtype != np.float64 or rows.shape[1:] != (2, d):
            raise InvalidArgumentError(f"{where} must be a float64 (n, 2, {d}) array")
        if not len(rows):
            raise InvalidStateError(f"client {self.client_id} has an empty {split} set")
        if not np.all((rows[:, 1] == 0.0) | (rows[:, 1] == 1.0)):
            raise InvalidArgumentError(f"{where} masks must hold only 0s and 1s")
        return block1_features(rows[:, 0], self.model)


def install_low_adapters(state: ClientState, payload: bytes) -> None:
    """Decode the broadcast straight into adapter layers 1..L of model.flat; copy it to theta_ref.

    The payload is checked in full before anything is written: one that is
    malformed or non-finite (DecodeError) or not exactly layers 1..L
    (ProtocolError) leaves model.flat and theta_ref as they were.
    """
    model, layers = state.model, state.config.low_layers
    values = deserialize_params(payload, manifest=model.manifest(layers), out=model.low(layers))
    state.theta_ref = values.copy()


def local_train_round(state: ClientState, round_index: int) -> ClientUpdate:
    """One local training pass (config.local_epochs epochs) plus evaluation.

    Batches are drawn in a seeded shuffle keyed by (client, round); only
    adapter parameters move. Each step gathers the batch's stored block-1
    features and its masks from the dataset rows, writes the gradient into
    workspace row 0 and updates model.flat and the Adam moments in place,
    with row 1 as scratch; row 2 is not touched. Returns the round's
    metrics; the trained adapters stay in model.flat. With beta > 0, a
    round with no broadcast installed (InvalidStateError) or an all-zero
    one (InvalidArgumentError) fails before any step.
    """
    cfg = state.config
    model = state.model
    ref = state.theta_ref
    if cfg.beta > 0 and ref is None:
        raise InvalidStateError(f"client {state.client_id}: beta > 0 needs a broadcast installed")
    if cfg.beta > 0 and not np.any(ref):
        raise InvalidArgumentError(f"client {state.client_id}: the broadcast is all zeros")
    n = state._train_first.shape[0]
    shuffle = RngStream(state.seed, derive_stream_id("shuffle", state.client_id, round_index))
    grads, scratch = state.workspace[0], state.workspace[1]
    losses = []
    for _ in range(cfg.local_epochs):
        order = shuffle.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            first, masks = state._train_first[idx], state.dataset.train[idx, 1]
            loss, _ = objective_and_grad(first, masks, model, ref, cfg.beta, grads, scratch)
            try:
                adam_update(model.flat, grads, state.adam, cfg.learning_rate, scratch)
            except NumericError as exc:
                layer = np.flatnonzero(~np.isfinite(model.flat))[0] // model.layer_size + 1
                raise NumericError(
                    f"client {state.client_id}: {exc}, first in adapter layer {layer}"
                ) from exc
            losses.append(loss)
    iou, dice = evaluate(state)
    return ClientUpdate(
        client_id=state.client_id,
        round_index=round_index,
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
    logits, _ = _forward_cached(state._test_first, state.model)
    ious, dices = iou_dice(sigmoid(logits) > 0.5, state.dataset.test[:, 1])
    return float(np.mean(ious)), float(np.mean(dices))


def measure_param_shift(
    before: np.ndarray, after: np.ndarray, manifest: tuple[tuple[int, int], ...]
) -> np.ndarray:
    """Per-layer relative L2 shift ||after - before|| / ||before|| (0/0 -> 0).

    before and after are flat vectors laid out by the manifest, such as a
    copy of a model's flat buffer and the buffer itself.
    """
    if not before.shape == after.shape == (sum(length for _, length in manifest),):
        raise InvalidArgumentError("param shift requires two vectors laid out by the manifest")
    ends = np.cumsum([length for _, length in manifest])
    shifts = []
    for start, end in zip([0, *ends[:-1]], ends):
        base = float(np.linalg.norm(before[start:end]))
        delta = float(np.linalg.norm(after[start:end] - before[start:end]))
        shifts.append(delta / base if base else (0.0 if delta == 0.0 else float("inf")))
    return np.array(shifts)
