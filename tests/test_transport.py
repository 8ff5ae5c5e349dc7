import csv
import io
import struct

import numpy as np
import pytest

from fedsim.adapter_net import build_model
from fedsim.errors import DecodeError, InvalidArgumentError, ProtocolError
from fedsim.numerics import RngStream, derive_stream_id
from fedsim.orchestrator import ResultsStore
from fedsim.transport import (
    CommLedger,
    LedgerEntry,
    WireMessage,
    deserialize_params,
    payload_scalar_count,
    read_params_file,
    serialize_params,
    write_params_file,
)


def random_params(stream, max_layers=5, max_len=64):
    """A random float64 vector and the manifest it is laid out by: 1-5 increasing layer indices."""
    num_layers = stream.draw_integer(1, max_layers + 1)
    indices = sorted(
        np.random.Generator(np.random.PCG64(stream.draw_integer(0, 2**32))).choice(
            np.arange(1, 40), size=num_layers, replace=False
        ).tolist()
    )
    parts = [(int(i), stream.draw_gaussian(stream.draw_integer(1, max_len))) for i in indices]
    return np.concatenate([v for _, v in parts]), tuple((i, v.size) for i, v in parts)


def decode(data, manifest):
    """The payload's values, decoded into a fresh vector laid out by manifest."""
    return deserialize_params(data, manifest=manifest, out=np.empty(sum(n for _, n in manifest)))


def small_model(num_blocks=6, feature_dim=16, bottleneck_dim=4, seed=0):
    return build_model(
        feature_dim,
        bottleneck_dim,
        num_blocks,
        RngStream(seed, derive_stream_id("t", "frozen")),
        RngStream(seed, derive_stream_id("t", "adapters")),
    )


def low_payload(model, depth):
    """Wire bytes of adapter layers 1..depth, encoded as the round encodes an upload."""
    return serialize_params(model.low(depth), model.manifest(depth))


class TestSelection:
    def test_full_depth_selection_equals_all_adapters(self):
        model = small_model()
        assert decode(low_payload(model, 6), model.manifest()).tobytes() == model.flat.tobytes()

    def test_single_layer_size_arithmetic(self):
        model = small_model()
        payload = low_payload(model, 1)
        assert payload_scalar_count(payload) == 2 * 16 * 4
        assert decode(payload, ((1, 2 * 16 * 4),)).tobytes() == model.low(1).tobytes()

    def test_payload_size_is_monotone_in_depth(self):
        model = small_model()
        sizes = [payload_scalar_count(low_payload(model, k)) for k in range(1, 7)]
        assert sizes == sorted(sizes)
        assert all(b > a for a, b in zip(sizes, sizes[1:]))


class TestSerialization:
    def test_many_random_round_trips_are_bit_exact(self):
        stream = RngStream(50, 0)
        for _ in range(2000):
            values, manifest = random_params(stream)
            recovered = decode(serialize_params(values, manifest), manifest)
            assert recovered.tobytes() == values.tobytes()

    def test_byte_length_matches_header_plus_payload(self):
        stream = RngStream(51, 0)
        values, manifest = random_params(stream)
        data = serialize_params(values, manifest)
        header = 12 + 8 * len(manifest)
        assert len(data) == header + 8 * values.size

    def test_payload_is_header_manifest_then_little_endian_values(self):
        expected = (
            struct.pack("<4sII", b"FSCA", 1, 2)
            + struct.pack("<II", 1, 2)
            + struct.pack("<II", 4, 1)
            + struct.pack("<3d", 1.5, -2.0, np.pi)
        )
        data = serialize_params(np.array([1.5, -2.0, np.pi]), ((1, 2), (4, 1)))
        assert type(data) is bytes
        assert data == expected

    def test_serialization_is_stable_across_calls(self):
        values, manifest = np.array([1.5, -2.25, 0.0]), ((1, 2), (3, 1))
        assert serialize_params(values, manifest) == serialize_params(values, manifest)

    def test_truncated_payload_rejected(self):
        data = serialize_params(np.arange(4.0), ((1, 4),))
        with pytest.raises(DecodeError, match="payload"):
            decode(data[:-1], ((1, 4),))

    def test_corrupted_magic_rejected(self):
        data = serialize_params(np.arange(4.0), ((1, 4),))
        with pytest.raises(DecodeError, match="magic"):
            decode(b"XSCA" + data[4:], ((1, 4),))

    def test_unsupported_version_rejected(self):
        data = bytearray(serialize_params(np.arange(4.0), ((1, 4),)))
        data[4] = 9
        with pytest.raises(DecodeError, match="version"):
            decode(bytes(data), ((1, 4),))

    def test_non_finite_payload_rejected(self):
        data = bytearray(serialize_params(np.arange(4.0), ((1, 4),)))
        data[-8:] = np.array([np.nan]).tobytes()
        with pytest.raises(DecodeError, match="payload"):
            decode(bytes(data), ((1, 4),))


class TestCheckpointFile:
    def test_checkpoint_file_round_trip(self, tmp_path):
        values, manifest = random_params(RngStream(53, 0))
        path = tmp_path / "adapters.fsca"
        write_params_file(values, str(path), manifest)
        assert path.read_bytes() == serialize_params(values, manifest)
        got_manifest, got_values = read_params_file(str(path))
        assert got_manifest == manifest
        assert got_values.tobytes() == values.tobytes()
        assert not got_values.flags.writeable

    @pytest.mark.parametrize(
        "manifest",
        [((2, 2), (1, 1)), ((1, 2), (1, 1)), ((1, 1), (3, 1), (2, 1))],
        ids=["decreasing", "duplicate", "decreasing-after-a-gap"],
    )
    def test_non_increasing_layer_indices_are_a_decode_error(self, tmp_path, manifest):
        values = np.arange(float(sum(n for _, n in manifest)))
        path = tmp_path / "adapters.fsca"
        write_params_file(values, str(path), manifest)
        with pytest.raises(DecodeError, match=r"^manifest: layer indices must be strictly increasing$"):
            read_params_file(str(path))

    @pytest.mark.parametrize("cut", [0, 11, 19, -1])
    def test_truncated_checkpoint_is_a_decode_error(self, tmp_path, cut):
        path = tmp_path / "adapters.fsca"
        path.write_bytes(serialize_params(np.arange(4.0), ((1, 4),))[:cut])
        with pytest.raises(DecodeError):
            read_params_file(str(path))

    def test_non_finite_checkpoint_is_a_decode_error(self, tmp_path):
        data = bytearray(serialize_params(np.arange(4.0), ((1, 4),)))
        data[-8:] = np.array([np.inf]).tobytes()
        path = tmp_path / "adapters.fsca"
        path.write_bytes(bytes(data))
        with pytest.raises(DecodeError, match=r"^payload: non-finite value$"):
            read_params_file(str(path))


class TestDecodeIntoRow:
    """Decoding an upload straight into the server's row: the upload decode boundary."""

    MANIFEST = ((1, 3), (2, 2))

    def _payload(self, values=(1.5, -2.0, 0.25, 4.0, -8.5), manifest=MANIFEST):
        return serialize_params(np.array(values), manifest)

    def test_values_land_in_the_row_bit_for_bit(self):
        stream = RngStream(54, 0)
        values = stream.draw_gaussian(5)
        x = np.zeros((3, 5))
        written = deserialize_params(self._payload(values), manifest=self.MANIFEST, out=x[1])
        assert written is not None and np.shares_memory(written, x)
        assert x[1].tobytes() == values.tobytes()
        assert not np.any(x[[0, 2]])

    def test_mismatched_manifest_is_a_protocol_error_and_writes_nothing(self):
        row = np.zeros(5)
        for manifest in (((1, 3), (3, 2)), ((1, 2), (2, 3)), ((1, 5),)):
            with pytest.raises(ProtocolError, match="manifest"):
                deserialize_params(
                    self._payload(manifest=manifest), manifest=self.MANIFEST, out=row
                )
        assert not np.any(row)

    def test_non_finite_upload_is_a_decode_error(self):
        for bad in (np.nan, np.inf, -np.inf):
            data = bytearray(self._payload())
            data[-16:-8] = np.array([bad]).tobytes()
            with pytest.raises(DecodeError, match=r"^payload: "):
                deserialize_params(bytes(data), manifest=self.MANIFEST, out=np.zeros(5))

    def test_out_must_be_laid_out_by_the_manifest(self):
        with pytest.raises(InvalidArgumentError):
            deserialize_params(self._payload(), manifest=self.MANIFEST, out=np.zeros(4))

    def test_strided_rows_serialize_like_contiguous_copies(self):
        x = RngStream(55, 0).draw_gaussian(10).reshape(5, 2)
        for column in x.T:
            assert not column.flags.c_contiguous
            expected = serialize_params(column.copy(), self.MANIFEST)
            assert serialize_params(column, self.MANIFEST) == expected
        with pytest.raises(InvalidArgumentError):
            serialize_params(x[:4, 0], self.MANIFEST)


class TestLedger:
    def _message(self, kind, client_id, round_index, scalars):
        payload = serialize_params(np.zeros(scalars), ((1, scalars),))
        return WireMessage(kind, client_id, round_index, payload)

    def test_two_rounds_three_clients_layer_of_100(self):
        ledger = CommLedger()
        for round_index in (1, 2):
            for client in range(3):
                ledger.record(self._message("broadcast", client, round_index, 100))
                ledger.record(self._message("upload", client, round_index, 100))
        assert ledger.total == 2 * 2 * 3 * 100

    def test_full_versus_low_depth_ratio_is_depth(self):
        model = small_model(num_blocks=6)

        def total_for(depth):
            ledger = CommLedger()
            payload = low_payload(model, depth)
            for round_index in range(1, 3):
                for client in range(4):
                    ledger.record(WireMessage("broadcast", client, round_index, payload))
                    ledger.record(WireMessage("upload", client, round_index, payload))
            return ledger.total

        assert total_for(6) / total_for(1) == 6.0

    def test_reduction_ratio_at_deployment_scale(self):
        # Reference cost figures for a full-adapter vs single-layer protocol:
        # 5.5e9 vs 156.4e6 transmitted scalars, a ~35x reduction.
        assert 35.0 < 5.5e9 / 156.4e6 < 36.0

    def test_totals_are_monotone(self):
        ledger = CommLedger()
        totals = []
        for round_index in range(1, 6):
            ledger.record(self._message("upload", 0, round_index, 10))
            totals.append(ledger.total)
        assert totals == sorted(totals)

    def test_uploads_never_leak_high_layers(self):
        model = small_model(num_blocks=6)
        stream = RngStream(52, 0)
        for _ in range(50):
            depth = stream.draw_integer(1, 7)
            msg = WireMessage("upload", 0, 1, low_payload(model, depth))
            # Decoding succeeds only when the payload carries exactly layers 1..depth.
            decode(msg.payload, model.manifest(depth))
            assert payload_scalar_count(msg.payload) == depth * model.layer_size

    def test_csv_export_layout(self, tmp_path):
        ledger = CommLedger()
        ledger.record(self._message("broadcast", 1, 1, 3))
        ledger.record(self._message("upload", 1, 1, 3))
        ResultsStore({}, [], {}, ledger).save(tmp_path)
        assert (tmp_path / "ledger.csv").read_bytes() == (
            b"round,direction,client_id,scalar_count\n1,broadcast,1,3\n1,upload,1,3\n"
        )
        rows = csv.DictReader(io.StringIO((tmp_path / "ledger.csv").read_text()))
        assert [LedgerEntry.from_row(row) for row in rows] == ledger.entries

    def test_bad_message_kind_rejected(self):
        with pytest.raises(InvalidArgumentError):
            WireMessage("sideways", 0, 1, b"")
