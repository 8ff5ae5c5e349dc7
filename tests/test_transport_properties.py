"""Fuzzing of the wire and checkpoint decoders (skipped when hypothesis is not installed).

Fed arbitrary bytes, a truncation or a one-byte mutation of a valid payload,
every decoder either decodes or raises DecodeError or ProtocolError, and
the decoders agree on what they accept.
"""

import struct

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fedsim.errors import DecodeError, ProtocolError  # noqa: E402
from fedsim.transport import (  # noqa: E402
    deserialize_params,
    read_params_file,
    serialize_params,
)

MANIFEST = ((1, 3), (2, 2))
# The largest finite doubles turn into inf or nan under many one-byte changes.
VALUES = [1.5, np.finfo(float).max, -np.finfo(float).max, 4.0, -8.5]
VALID = serialize_params(np.array(VALUES), MANIFEST)
PAYLOAD_START = len(VALID) - 8 * len(VALUES)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "params.fsca"


def decode_all(data: bytes, path) -> list:
    """Each decoder's outcome on data: what it decoded, or the error it raised."""
    path.write_bytes(data)
    row = np.zeros(5)
    decoders = (
        lambda: deserialize_params(data),
        lambda: deserialize_params(data, manifest=MANIFEST, out=row),
        lambda: read_params_file(str(path)),
    )
    outcomes = []
    for decode in decoders:
        try:
            outcomes.append(decode())
        except (DecodeError, ProtocolError) as exc:
            outcomes.append(exc)
    plain, into_row, from_file = outcomes
    if isinstance(plain, Exception):
        assert type(from_file) is type(plain) and str(from_file) == str(plain)
        assert isinstance(into_row, (DecodeError, ProtocolError))
        assert not np.any(row)
    else:
        assert from_file.manifest == plain.manifest
        assert from_file.values.tobytes() == plain.values.tobytes()
        if plain.manifest == MANIFEST:
            assert into_row is row and row.tobytes() == plain.values.tobytes()
        else:
            assert isinstance(into_row, ProtocolError) and not np.any(row)
    return outcomes


def with_value(slot: int, value: float) -> bytes:
    start = PAYLOAD_START + 8 * slot
    return VALID[:start] + struct.pack("<d", value) + VALID[start + 8 :]


# Arbitrary bytes, the same behind a valid magic and version (so the manifest
# and payload parsers see them), every truncation of a valid payload, and a
# valid frame carrying any float64, nan and inf included.
fuzzed = st.one_of(
    st.binary(max_size=96),
    st.binary(max_size=96).map(lambda tail: VALID[:8] + tail),
    st.integers(0, len(VALID)).map(lambda n: VALID[:n]),
    st.builds(with_value, st.integers(0, len(VALUES) - 1), st.floats()),
)


@settings(deadline=None, database=None, max_examples=300)
@given(data=fuzzed)
def test_fuzzed_bytes_raise_only_decode_or_protocol_errors(data, checkpoint):
    decode_all(data, checkpoint)


@settings(deadline=None, database=None, max_examples=300)
@given(position=st.integers(0, len(VALID) - 1), byte=st.integers(0, 255))
def test_one_byte_mutations_raise_only_decode_or_protocol_errors(position, byte, checkpoint):
    data = bytearray(VALID)
    data[position] = byte
    decode_all(bytes(data), checkpoint)


def test_the_unmutated_payload_decodes_in_every_form(checkpoint):
    plain, into_row, from_file = decode_all(VALID, checkpoint)
    assert plain.manifest == from_file.manifest == MANIFEST
    assert into_row.tolist() == VALUES
