"""Binary serialization of wire payloads, checkpoint files, and the comm ledger.

Payloads are little-endian float64 with a fixed header, so byte output is
identical across runs and platforms. Every payload is a plain float64
vector laid out by a manifest of (layer index, length) pairs: a round
decodes each broadcast straight into a client's model.low(L), and a .fsca
checkpoint is the same bytes on disk. The ledger counts parameter scalars,
one upload and one broadcast per client per round; an upload is counted,
not encoded, since the server reads it where the client trained it.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import DecodeError, InvalidArgumentError, ProtocolError

Manifest = tuple[tuple[int, int], ...]

MAGIC = b"FSCA"
FORMAT_VERSION = 1
_FIXED_HEADER = struct.Struct("<4sII")  # magic, version, layer count
_LAYER_ENTRY = struct.Struct("<II")  # layer index, length

MESSAGE_KINDS = ("upload", "broadcast")


def serialize_params(values: np.ndarray, manifest: Manifest) -> bytes:
    """Wire bytes of a float64 vector laid out by `manifest`.

    The round sends each broadcast from its row of the server's mix; a
    checkpoint is all of model.flat.
    """
    if values.shape != (sum(length for _, length in manifest),):
        raise InvalidArgumentError(f"values do not match the manifest {manifest}")
    chunks = [_FIXED_HEADER.pack(MAGIC, FORMAT_VERSION, len(manifest))]
    for idx, length in manifest:
        chunks.append(_LAYER_ENTRY.pack(idx, length))
    # A no-copy view on little-endian hosts; join makes the payload's one copy.
    chunks.append(memoryview(np.ascontiguousarray(values, dtype="<f8")))
    return b"".join(chunks)


def _parse_frame(data: bytes) -> tuple[Manifest, np.ndarray]:
    """Manifest and values, a read-only view of data; raises DecodeError naming the failed field."""
    if len(data) < _FIXED_HEADER.size:
        raise DecodeError("header: truncated")
    magic, version, layer_count = _FIXED_HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise DecodeError(f"magic: expected {MAGIC!r}, got {bytes(magic)!r}")
    if version != FORMAT_VERSION:
        raise DecodeError(f"version: unsupported {version}")
    offset = _FIXED_HEADER.size
    manifest = []
    for _ in range(layer_count):
        if offset + _LAYER_ENTRY.size > len(data):
            raise DecodeError("manifest: truncated")
        manifest.append(_LAYER_ENTRY.unpack_from(data, offset))
        offset += _LAYER_ENTRY.size
    total = sum(length for _, length in manifest)
    if len(data) != offset + 8 * total:
        raise DecodeError(f"payload: expected {8 * total} bytes, got {len(data) - offset}")
    return tuple(manifest), np.frombuffer(data, dtype="<f8", count=total, offset=offset)


def payload_scalar_count(data: bytes) -> int:
    """Number of float64 scalars in a serialized payload (validates framing)."""
    return _parse_frame(data)[1].size


def _decode_frame(data: bytes) -> tuple[Manifest, np.ndarray]:
    """_parse_frame, rejecting non-finite values."""
    found, values = _parse_frame(data)
    if not np.all(np.isfinite(values)):
        raise DecodeError("payload: non-finite value")
    return found, values


def deserialize_params(data: bytes, *, manifest: Manifest, out: np.ndarray) -> np.ndarray:
    """Decode a payload into `out`, a float64 vector laid out by `manifest`, and return `out`.

    `out` is, for example, a client's model.low(L), where the round decodes
    each broadcast. The payload must carry exactly `manifest`; any other is
    a ProtocolError, since it is not what the round expects. Every check
    runs before `out` is written, so a rejected payload leaves it unchanged.
    """
    found, values = _decode_frame(data)
    if out.shape != (sum(length for _, length in manifest),):
        raise InvalidArgumentError("out must be a vector laid out by the given manifest")
    if found != tuple(manifest):
        raise ProtocolError(f"payload manifest {found} differs from the expected {manifest}")
    out[...] = values
    return out


@dataclass
class LedgerEntry:
    round: int
    direction: str
    client_id: int
    scalar_count: int

    @classmethod
    def from_row(cls, row: dict[str, str]) -> "LedgerEntry":
        """The entry of a ledger.csv row (to_rows' form, values as text), its values checked."""
        cells = {f.name: row[f.name] for f in fields(cls)}
        entry = cls(**{k: v if k == "direction" else int(v) for k, v in cells.items()})
        if entry.direction not in MESSAGE_KINDS:
            raise InvalidArgumentError(f"direction {entry.direction!r} is not a message kind")
        if entry.scalar_count < 0:
            raise InvalidArgumentError(f"scalar_count {entry.scalar_count} is negative")
        return entry


@dataclass
class CommLedger:
    """Append-only record of transmitted parameter scalars, both directions."""

    entries: list[LedgerEntry] = field(default_factory=list)
    total: int = 0

    def record(self, direction: str, client_id: int, round: int, scalar_count: int) -> LedgerEntry:
        """Append the entry of `scalar_count` values sent in `direction`, one of MESSAGE_KINDS."""
        if direction not in MESSAGE_KINDS:
            raise InvalidArgumentError(f"direction must be one of {MESSAGE_KINDS}")
        entry = LedgerEntry(round, direction, client_id, scalar_count)
        self.entries.append(entry)
        self.total += entry.scalar_count
        return entry

    def to_rows(self) -> list[dict]:
        """One ledger.csv row per entry: its fields in order."""
        return [asdict(e) for e in self.entries]


def write_params_file(values: np.ndarray, path: str, manifest: Manifest) -> None:
    """Checkpoint a float64 vector laid out by `manifest` (conventional extension: .fsca)."""
    with open(path, "wb") as fh:
        fh.write(serialize_params(values, manifest))


def read_params_file(path: str) -> tuple[Manifest, np.ndarray]:
    """A checkpoint's manifest and its values, read-only; a malformed file raises DecodeError.

    No manifest is expected, so the file's own must be one a model can have:
    at least one layer, 1-based and strictly increasing indices, and no
    empty layer.
    """
    with open(path, "rb") as fh:
        manifest, values = _decode_frame(fh.read())
    indices = [idx for idx, _ in manifest]
    if not indices:
        raise DecodeError("manifest: layer count must be >= 1")
    if 0 in indices:
        raise DecodeError("manifest: layer indices must be 1-based")
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise DecodeError("manifest: layer indices must be strictly increasing")
    if not all(length for _, length in manifest):
        raise DecodeError("manifest: layer lengths must be >= 1")
    return manifest, values
