"""Wire messages, binary serialization, checkpoint files, and the comm ledger.

Payloads are little-endian float64 with a fixed header, so byte output is
identical across runs and platforms. A round encodes plain vectors laid out
by a manifest and decodes them straight into a client's model.flat or a
row of the server's matrix; FlatParams is only the .fsca checkpoint form.
The ledger counts parameter scalars, one upload and one broadcast per
client per round.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import DecodeError, InvalidArgumentError, ProtocolError
from .numerics import FlatParams

Manifest = tuple[tuple[int, int], ...]

MAGIC = b"FSCA"
FORMAT_VERSION = 1
_FIXED_HEADER = struct.Struct("<4sII")  # magic, version, layer count
_LAYER_ENTRY = struct.Struct("<II")  # layer index, length

MESSAGE_KINDS = ("upload", "broadcast")


def serialize_params(params: FlatParams | np.ndarray, manifest: Manifest | None = None) -> bytes:
    """Wire bytes of a float64 vector laid out by `manifest`, or, with no manifest, of a FlatParams.

    The round uses the first form (model.flat's low layers, a row of the
    server's mixing output); checkpoints use the second.
    """
    if manifest is None:
        manifest, values = params.manifest, params.values
    else:
        values = params
        if values.shape != (sum(length for _, length in manifest),):
            raise InvalidArgumentError(f"values do not match the manifest {manifest}")
    chunks = [_FIXED_HEADER.pack(MAGIC, FORMAT_VERSION, len(manifest))]
    for idx, length in manifest:
        chunks.append(_LAYER_ENTRY.pack(idx, length))
    # A no-copy view on little-endian hosts; join makes the payload's one copy.
    chunks.append(memoryview(np.ascontiguousarray(values, dtype="<f8")))
    return b"".join(chunks)


def _parse_frame(data: bytes) -> tuple[Manifest, int, int]:
    """Manifest, payload offset and scalar count; raises DecodeError naming the failed field."""
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
        raise DecodeError(
            f"payload: expected {8 * total} bytes, got {len(data) - offset}"
        )
    return tuple(manifest), offset, total


def payload_scalar_count(data: bytes) -> int:
    """Number of float64 scalars in a serialized payload (validates framing)."""
    return _parse_frame(data)[2]


def deserialize_params(
    data: bytes, *, manifest: Manifest | None = None, out: np.ndarray | None = None
) -> FlatParams | np.ndarray:
    """Decode a payload into `out`, or, with no `out`, into a FlatParams (the checkpoint form).

    `out` is a float64 vector laid out by `manifest`, such as a client's
    model.flat low layers or row i of the server's round matrix; the values
    are written into it and it is returned. The payload must then carry
    exactly `manifest`; any other is a ProtocolError, since it is not what
    the round expects. Every check runs before `out` is written, so a
    rejected payload leaves it unchanged.
    """
    found, offset, total = _parse_frame(data)
    # A read-only view of data; the decoded values are copied once out of it.
    values = np.frombuffer(data, dtype="<f8", count=total, offset=offset)
    if not np.all(np.isfinite(values)):
        raise DecodeError("payload: non-finite value")
    if out is not None:
        if manifest is None or out.shape != (sum(length for _, length in manifest),):
            raise InvalidArgumentError("out must be a vector laid out by the given manifest")
        if found != tuple(manifest):
            raise ProtocolError(f"payload manifest {found} differs from the expected {manifest}")
        out[...] = values
        return out
    try:
        return FlatParams(values, found)
    except InvalidArgumentError as exc:
        raise DecodeError(f"manifest: {exc}") from exc


@dataclass
class WireMessage:
    kind: str
    client_id: int
    round_index: int
    payload: bytes

    def __post_init__(self) -> None:
        if self.kind not in MESSAGE_KINDS:
            raise InvalidArgumentError(f"kind must be one of {MESSAGE_KINDS}")


def column_name(name: str) -> str:
    """A record field's name in stored rows: round_index is stored as "round"."""
    return "round" if name == "round_index" else name


@dataclass
class LedgerEntry:
    round_index: int
    direction: str
    client_id: int
    scalar_count: int

    @classmethod
    def from_row(cls, row: dict[str, str]) -> "LedgerEntry":
        """The entry of a ledger.csv row (to_rows' form, values as text)."""
        cells = {f.name: row[column_name(f.name)] for f in fields(cls)}
        return cls(**{k: v if k == "direction" else int(v) for k, v in cells.items()})


@dataclass
class CommLedger:
    """Append-only record of transmitted parameter scalars, both directions."""

    entries: list[LedgerEntry] = field(default_factory=list)
    total: int = 0

    def record(self, msg: WireMessage) -> LedgerEntry:
        entry = LedgerEntry(
            round_index=msg.round_index,
            direction=msg.kind,
            client_id=msg.client_id,
            scalar_count=payload_scalar_count(msg.payload),
        )
        self.entries.append(entry)
        self.total += entry.scalar_count
        return entry

    def to_rows(self) -> list[dict]:
        """One ledger.csv row per entry: its fields in order, as column_name names them."""
        return [{column_name(k): v for k, v in asdict(e).items()} for e in self.entries]


def write_params_file(params: FlatParams, path: str) -> None:
    """Checkpoint a parameter set (conventional extension: .fsca)."""
    with open(path, "wb") as fh:
        fh.write(serialize_params(params))


def read_params_file(path: str) -> FlatParams:
    with open(path, "rb") as fh:
        return deserialize_params(fh.read())
