"""Flat parameter vectors, seeded RNG streams, and core numeric routines.

Everything here is float64. The simplex projection is the exact
sort-then-threshold algorithm, so the aggregation QP downstream needs no
external solver.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True, eq=False)
class FlatParams:
    """A flat float64 vector with a (layer_index, length) manifest: a checkpoint's parameter set.

    The manifest records which adapter layer each contiguous slice belongs
    to; layer indices are 1-based and strictly increasing. Values are kept
    read-only so a FlatParams can be shared safely. The round itself moves
    plain vectors laid out by a manifest, not FlatParams.
    """

    values: np.ndarray
    manifest: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise InvalidArgumentError("FlatParams values must be a 1-D vector")
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("FlatParams values must be finite")
        manifest = tuple((int(i), int(n)) for i, n in self.manifest)
        if any(n < 0 for _, n in manifest):
            raise InvalidArgumentError("manifest lengths must be non-negative")
        if sum(n for _, n in manifest) != values.size:
            raise InvalidArgumentError(
                f"manifest lengths sum to {sum(n for _, n in manifest)}, "
                f"but values has {values.size} entries"
            )
        indices = [i for i, _ in manifest]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise InvalidArgumentError("manifest layer indices must be strictly increasing")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "manifest", manifest)

    def split(self) -> list[tuple[int, np.ndarray]]:
        """Per-layer (index, slice) pairs, in manifest order."""
        out = []
        offset = 0
        for idx, length in self.manifest:
            out.append((idx, self.values[offset : offset + length]))
            offset += length
        return out


@dataclass
class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Identical keys replay identical draw sequences; distinct stream ids give
    statistically independent sequences. A stream is owned by one execution
    context at a time (draws advance internal state).
    """

    seed: int
    stream_id: int
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not 0 <= int(value) < 2**64:
                raise InvalidArgumentError(f"{name} must fit in an unsigned 64-bit integer")
        seq = np.random.SeedSequence([int(self.seed), int(self.stream_id)])
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def draw_gaussian(self, count: int) -> np.ndarray:
        if count < 0:
            raise InvalidArgumentError("count must be >= 0")
        return self._gen.standard_normal(count)

    def draw_uniform(self, count: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        if count < 0:
            raise InvalidArgumentError("count must be >= 0")
        return self._gen.uniform(low, high, count)

    def draw_integer(self, low: int, high: int) -> int:
        """One integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def derive_stream_id(*parts: object) -> int:
    """Stable 64-bit stream id from a tuple of labels (strings/ints)."""
    text = "/".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def simplex_project(c: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection of each row of c onto {w : w >= 0, sum(w) = 1}.

    c is a vector or an (N, n) matrix. Sort-then-threshold (Duchi et al. 2008;
    Condat 2016): w_j = max(c_j - tau, 0). Each row is first shifted to a
    maximum of 0, which the projection ignores; its top entry then always
    passes the support test, and tau >= -1, so entries at or below -1 get
    weight 0 and are clamped there.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim not in (1, 2) or c.shape[-1] == 0:
        raise InvalidArgumentError("input must be a non-empty vector or (N, n) matrix")
    if not np.all(np.isfinite(c)):
        raise InvalidArgumentError("input must be finite")
    with np.errstate(over="ignore"):
        v = np.maximum(c - c.max(axis=-1, keepdims=True), -1.0)
    u = -np.sort(-v, axis=-1, kind="stable")
    excess = np.cumsum(u, axis=-1) - 1.0
    support = u * np.arange(1, u.shape[-1] + 1) > excess
    rho = u.shape[-1] - 1 - np.argmax(support[..., ::-1], axis=-1, keepdims=True)
    tau = np.take_along_axis(excess, rho, axis=-1) / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient oracle: (f(x + h e_j) - f(x - h e_j)) / 2h.

    Non-finite f evaluations propagate into the returned vector.
    """
    if h <= 0:
        raise InvalidArgumentError("step size h must be > 0")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        grad[j] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad
