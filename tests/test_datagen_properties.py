"""Fuzzing of the dataset snapshot (FSCD) decoder (skipped when hypothesis is not installed).

Fed arbitrary bytes, a truncation, a one-byte mutation or a value change of
a valid save_federation snapshot, load_federation either decodes a
federation every client of which can train and be evaluated, or raises
DecodeError.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fedsim.datagen import (  # noqa: E402
    ClusterParams,
    FederationSpec,
    generate_federation,
    load_federation,
    save_federation,
)
from fedsim.errors import DecodeError  # noqa: E402

SPEC = FederationSpec(
    client_sizes=(2, 3),
    cluster_of=(0, 0),
    clusters={0: ClusterParams(radius=(1.0, 1.5), blob_count=(1, 1))},
    mask_side=4,
    seed=3,
)
with tempfile.TemporaryDirectory() as _tmp:
    _path = Path(_tmp) / "federation.fscd"
    save_federation(generate_federation(SPEC), str(_path))
    VALID = _path.read_bytes()
HEADERS = 12 + 2 * 12  # the file header and one header per client
VALUES = (len(VALID) - HEADERS) // 8


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "federation.fscd"


def decode(data: bytes, path):
    path.write_bytes(data)
    try:
        datasets = load_federation(str(path))
    except DecodeError:
        return None
    for ds in datasets:
        assert len(ds.train) and len(ds.test)
        rows = np.concatenate([ds.train, ds.test])
        assert rows.dtype == np.float64 and rows.shape[1:] == (2, 16)
        assert np.all(np.isfinite(rows[:, 0]))
        assert np.all((rows[:, 1] == 0.0) | (rows[:, 1] == 1.0))
    return datasets


def with_value(slot: int, value: float) -> bytes:
    """VALID with its slot-th float64 (images and masks, headers skipped) set to value."""
    client = 0 if slot < 2 * 2 * 16 else 1
    start = 12 + 12 * (client + 1) + 8 * slot
    return VALID[:start] + struct.pack("<d", value) + VALID[start + 8 :]


# Arbitrary bytes, the same behind a valid magic and version (so the client
# headers and payload see them), every truncation, and a valid snapshot
# carrying any float64, nan and inf included, in an image or a mask.
fuzzed = st.one_of(
    st.binary(max_size=160),
    st.binary(max_size=160).map(lambda tail: VALID[:8] + tail),
    st.integers(0, len(VALID)).map(lambda n: VALID[:n]),
    st.builds(with_value, st.integers(0, VALUES - 1), st.floats()),
)


@settings(deadline=None, database=None, max_examples=300)
@given(data=fuzzed)
def test_fuzzed_bytes_raise_only_decode_errors(data, snapshot):
    decode(data, snapshot)


@settings(deadline=None, database=None, max_examples=300)
@given(position=st.integers(0, len(VALID) - 1), byte=st.integers(0, 255))
def test_one_byte_mutations_raise_only_decode_errors(position, byte, snapshot):
    data = bytearray(VALID)
    data[position] = byte
    decode(bytes(data), snapshot)


def test_the_unmutated_snapshot_decodes(snapshot):
    datasets = decode(VALID, snapshot)
    assert [(len(ds.train), len(ds.test)) for ds in datasets] == [(1, 1), (2, 1)]
