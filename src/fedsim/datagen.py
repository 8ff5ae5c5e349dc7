"""Synthetic non-IID segmentation federations.

Each client draws Gaussian-blob images from its cluster's distribution;
the mask is the union of the blob disks. Cluster-level gain, noise, and
spatial offset induce the cross-client appearance shift. Everything is a
pure function of the federation spec (per-client RNG streams).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DecodeError, InvalidArgumentError
from .numerics import RngStream, derive_stream_id

TRAIN_FRACTION = 0.8
MIN_FOREGROUND = 0.02
MAX_FOREGROUND = 0.9
_MAX_DRAW_ATTEMPTS = 200

DATASET_MAGIC = b"FSCD"
DATASET_VERSION = 1


@dataclass(frozen=True)
class ClusterParams:
    """Generative knobs for one cluster of clients."""

    blob_count: tuple[int, int] = (1, 3)
    radius: tuple[float, float] = (1.5, 3.5)
    gain: float = 1.0
    noise: float = 0.1
    offset: tuple[float, float] = (0.0, 0.0)

    def validate(self, mask_side: int) -> None:
        lo, hi = self.blob_count
        if lo < 1 or hi < lo:
            raise InvalidArgumentError(f"blob_count range {self.blob_count} is invalid")
        r_lo, r_hi = self.radius
        if r_lo <= 0 or r_hi < r_lo:
            raise InvalidArgumentError(f"radius range {self.radius} is invalid")
        if r_hi > mask_side / 2:
            raise InvalidArgumentError(
                f"radius {r_hi} exceeds half the canvas side {mask_side}"
            )
        if self.gain <= 0:
            raise InvalidArgumentError("gain must be > 0")
        if self.noise < 0:
            raise InvalidArgumentError("noise level must be >= 0")
        if max(abs(self.offset[0]), abs(self.offset[1])) > mask_side / 2:
            raise InvalidArgumentError("offset must stay within half the canvas")


@dataclass
class FederationSpec:
    """Layout of a synthetic federation: who has how much data from which cluster."""

    client_sizes: tuple[int, ...]
    cluster_of: tuple[int, ...]
    clusters: dict[int, ClusterParams]
    mask_side: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        self.client_sizes = tuple(int(n) for n in self.client_sizes)
        self.cluster_of = tuple(int(c) for c in self.cluster_of)

    @property
    def num_clients(self) -> int:
        return len(self.client_sizes)

    def validate(self) -> None:
        if self.num_clients < 2:
            raise InvalidArgumentError("a federation needs at least 2 clients")
        if any(n < 2 for n in self.client_sizes):
            raise InvalidArgumentError("every client needs at least 2 samples")
        if len(self.cluster_of) != self.num_clients:
            raise InvalidArgumentError("cluster_of must assign every client")
        for cid in self.cluster_of:
            if cid not in self.clusters:
                raise InvalidArgumentError(f"client assigned to unknown cluster {cid}")
        if self.mask_side < 4:
            raise InvalidArgumentError("mask_side must be >= 4")
        for params in self.clusters.values():
            params.validate(self.mask_side)


@dataclass
class ClientDataset:
    """One client's splits: float64 (n, 2, pixels) arrays, FSCD's rows of image and 0/1 mask."""

    train: np.ndarray
    test: np.ndarray


def _draw_sample(params: ClusterParams, mask_side: int, stream: RngStream) -> np.ndarray:
    coords = np.arange(mask_side, dtype=np.float64)
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    mid = (mask_side - 1) / 2.0
    spread = mask_side / 4.0
    for _ in range(_MAX_DRAW_ATTEMPTS):
        count = stream.draw_integer(params.blob_count[0], params.blob_count[1] + 1)
        centers_y = mid + params.offset[0] + stream.draw_uniform(count, -spread, spread)
        centers_x = mid + params.offset[1] + stream.draw_uniform(count, -spread, spread)
        radii = stream.draw_uniform(count, params.radius[0], params.radius[1])
        noise = stream.draw_gaussian(mask_side * mask_side).reshape(mask_side, mask_side)

        bump = np.zeros((mask_side, mask_side))
        mask = np.zeros((mask_side, mask_side), dtype=bool)
        for cy, cx, r in zip(centers_y, centers_x, radii):
            dist_sq = (yy - cy) ** 2 + (xx - cx) ** 2
            mask |= dist_sq <= r * r
            bump += np.exp(-dist_sq / (2.0 * (r / 2.0) ** 2))
        image = np.clip(params.gain * bump + params.noise * noise, 0.0, 1.0)

        fraction = mask.mean()
        if MIN_FOREGROUND <= fraction <= MAX_FOREGROUND:
            return np.stack((image, mask)).reshape(2, -1)
    raise InvalidArgumentError(
        "cluster parameters cannot produce masks with foreground fraction "
        f"in [{MIN_FOREGROUND}, {MAX_FOREGROUND}]"
    )


def split_train_test(samples: np.ndarray, stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffle, then an 8:2 split (train count clamped to keep both sides non-empty)."""
    n = len(samples)
    if n < 2:
        raise InvalidArgumentError("need at least 2 samples to split")
    order = stream.permutation(n)
    n_train = int(np.floor(TRAIN_FRACTION * n + 0.5))
    n_train = min(max(n_train, 1), n - 1)
    return samples[order[:n_train]], samples[order[n_train:]]


def generate_client_dataset(spec: FederationSpec, client_id: int) -> ClientDataset:
    """Dataset for one client, independent of any other client's stream."""
    spec.validate()
    if not 0 <= client_id < spec.num_clients:
        raise InvalidArgumentError(f"client_id {client_id} out of range")
    params = spec.clusters[spec.cluster_of[client_id]]
    stream = RngStream(spec.seed, derive_stream_id("datagen", client_id))
    n = spec.client_sizes[client_id]
    samples = np.stack([_draw_sample(params, spec.mask_side, stream) for _ in range(n)])
    split_stream = RngStream(spec.seed, derive_stream_id("split", client_id))
    return ClientDataset(*split_train_test(samples, split_stream))


def generate_federation(spec: FederationSpec) -> list[ClientDataset]:
    spec.validate()
    return [generate_client_dataset(spec, i) for i in range(spec.num_clients)]


def save_federation(datasets: list[ClientDataset], path: str) -> None:
    """Binary snapshot: FSCD header, then per client its header and rows as little-endian float64.

    Fewer than 2 clients, or a split that is empty or not (n, 2, client 0's pixels), raises
    InvalidArgumentError before the file is opened.
    """
    if len(datasets) < 2:
        raise InvalidArgumentError(f"a federation needs at least 2 clients, got {len(datasets)}")
    pixels = np.shape(datasets[0].train)[-1]
    chunks = [struct.pack("<4sII", DATASET_MAGIC, DATASET_VERSION, len(datasets))]
    for i, ds in enumerate(datasets):
        for split, shape in (("train", np.shape(ds.train)), ("test", np.shape(ds.test))):
            if shape[1:] != (2, pixels) or 0 in shape:
                raise InvalidArgumentError(f"{split}: client {i} is {shape}, not (n, 2, {pixels})")
        chunks.append(struct.pack("<III", len(ds.train), len(ds.test), pixels))
        chunks += [np.asarray(ds.train, "<f8").tobytes(), np.asarray(ds.test, "<f8").tobytes()]
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_federation(path: str) -> list[ClientDataset]:
    """Read a save_federation snapshot; raises DecodeError naming the field that is wrong.

    The file must declare at least 2 clients, and every client the same
    non-zero pixel count, no more samples than the bytes left hold, finite
    images and masks of 0s and 1s. Once the whole file parses, every client
    must also hold at least one train and one test sample. Each client's
    splits are views of one copy of its rows.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    view = memoryview(data)
    if len(view) < 12:
        raise DecodeError("header: truncated")
    magic, version, num_clients = struct.unpack_from("<4sII", view, 0)
    if magic != DATASET_MAGIC:
        raise DecodeError(f"magic: expected {DATASET_MAGIC!r}, got {bytes(magic)!r}")
    if version != DATASET_VERSION:
        raise DecodeError(f"version: unsupported {version}")
    if num_clients < 2:
        raise DecodeError(f"clients: the file declares {num_clients}, a federation needs 2 or more")
    offset = 12
    datasets = []
    for i in range(num_clients):
        if offset + 12 > len(view):
            raise DecodeError("client header: truncated")
        n_train, n_test, pixels = struct.unpack_from("<III", view, offset)
        offset += 12
        if pixels == 0:
            raise DecodeError(f"pixels: client {i} declares 0")
        first = datasets[0].train.shape[2] if datasets else pixels
        if pixels != first:
            raise DecodeError(f"pixels: client {i} declares {pixels}, client 0 {first}")
        count = 2 * (n_train + n_test) * pixels
        if 8 * count > len(view) - offset:
            raise DecodeError(
                f"payload: client {i} declares {n_train + n_test} samples of {pixels} pixels, "
                f"more than the {len(view) - offset} bytes left"
            )
        rows = np.frombuffer(view, dtype="<f8", count=count, offset=offset).reshape(-1, 2, pixels)
        offset += 8 * count
        if not np.all(np.isfinite(rows[:, 0])):
            raise DecodeError(f"image: client {i} has a non-finite pixel")
        if not np.all((rows[:, 1] == 0.0) | (rows[:, 1] == 1.0)):
            raise DecodeError(f"mask: client {i} has a value other than 0 or 1")
        datasets.append(ClientDataset(*np.split(rows.copy(), [n_train])))
    if offset != len(view):
        raise DecodeError("payload: trailing bytes")
    for i, ds in enumerate(datasets):
        for split in ("train", "test"):
            if not len(getattr(ds, split)):
                raise DecodeError(f"{split}: client {i} declares 0 samples")
    return datasets
