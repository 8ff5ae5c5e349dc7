import hashlib
import struct

import numpy as np
import pytest

from fedsim.datagen import (
    ClientDataset,
    ClusterParams,
    FederationSpec,
    generate_client_dataset,
    generate_federation,
    load_federation,
    save_federation,
    split_train_test,
)
from fedsim.errors import DecodeError, InvalidArgumentError
from fedsim.numerics import RngStream


def two_cluster_spec(seed=0, gain_a=1.5, gain_b=0.5, sizes=(20, 20, 20, 20)):
    return FederationSpec(
        client_sizes=sizes,
        cluster_of=(0, 0, 1, 1),
        clusters={
            0: ClusterParams(gain=gain_a, noise=0.05),
            1: ClusterParams(gain=gain_b, noise=0.05),
        },
        mask_side=16,
        seed=seed,
    )


def mean_image(dataset: ClientDataset) -> np.ndarray:
    return np.concatenate([dataset.train, dataset.test])[:, 0].mean(axis=0)


class TestGeneration:
    def test_same_spec_twice_is_byte_identical(self):
        a = generate_federation(two_cluster_spec())
        b = generate_federation(two_cluster_spec())
        for ds_a, ds_b in zip(a, b):
            assert ds_a.train.tobytes() == ds_b.train.tobytes()
            assert ds_a.test.tobytes() == ds_b.test.tobytes()

    def test_sample_invariants_hold_at_scale(self):
        spec = FederationSpec(
            client_sizes=(5000, 5000),
            cluster_of=(0, 1),
            clusters={0: ClusterParams(gain=1.5), 1: ClusterParams(gain=0.4, noise=0.2)},
            seed=33,
        )
        datasets = generate_federation(spec)
        rows = np.concatenate([split for ds in datasets for split in (ds.train, ds.test)])
        images, masks = rows[:, 0], rows[:, 1]
        assert rows.shape == (10_000, 2, 256) and rows.dtype == np.float64
        assert np.all((images >= 0.0) & (images <= 1.0))
        assert np.all((masks == 0.0) | (masks == 1.0))
        assert np.all((masks.mean(axis=1) >= 0.02) & (masks.mean(axis=1) <= 0.9))

    def test_client_generation_is_order_independent(self):
        spec = two_cluster_spec()
        federation = generate_federation(spec)
        solo = generate_client_dataset(spec, 2)
        assert federation[2].train.tobytes() == solo.train.tobytes()
        assert federation[2].test.tobytes() == solo.test.tobytes()

    def test_identical_clusters_have_indistinguishable_means(self):
        # All clients share one distribution: cross-client mean-image distances
        # must sit within ~3x the spread of independent regenerations.
        spec = FederationSpec(
            client_sizes=(300, 300, 300),
            cluster_of=(0, 0, 0),
            clusters={0: ClusterParams(gain=1.0, noise=0.05)},
            seed=5,
        )
        means = [mean_image(ds) for ds in generate_federation(spec)]
        cross = [
            np.linalg.norm(means[i] - means[j])
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        replicas = []
        for boot_seed in range(100, 106):
            boot = FederationSpec(
                client_sizes=(300, 300),
                cluster_of=(0, 0),
                clusters={0: ClusterParams(gain=1.0, noise=0.05)},
                seed=boot_seed,
            )
            replicas.append(mean_image(generate_client_dataset(boot, 0)))
        spread = np.mean(
            [
                np.linalg.norm(replicas[i] - replicas[j])
                for i in range(len(replicas))
                for j in range(i + 1, len(replicas))
            ]
        )
        assert max(cross) < 3.0 * spread

    def test_disjoint_gains_separate_clusters(self):
        means = [mean_image(ds) for ds in generate_federation(two_cluster_spec(sizes=(100,) * 4))]
        labels = (0, 0, 1, 1)
        within, cross = [], []
        for i in range(4):
            for j in range(i + 1, 4):
                dist = np.linalg.norm(means[i] - means[j])
                (within if labels[i] == labels[j] else cross).append(dist)
        assert min(cross) > max(within)

    def test_separation_is_monotone_in_gain_gap(self):
        min_cross = []
        for gap in (0.2, 0.6, 1.0):
            spec = two_cluster_spec(gain_a=1.0 + gap / 2, gain_b=1.0 - gap / 2, sizes=(100,) * 4)
            means = [mean_image(ds) for ds in generate_federation(spec)]
            cross = [
                np.linalg.norm(means[i] - means[j])
                for i in (0, 1)
                for j in (2, 3)
            ]
            min_cross.append(min(cross))
        assert min_cross[0] <= min_cross[1] <= min_cross[2]

    def test_infeasible_radius_rejected(self):
        spec = FederationSpec(
            client_sizes=(4, 4),
            cluster_of=(0, 0),
            clusters={0: ClusterParams(radius=(2.0, 30.0))},
            mask_side=16,
        )
        with pytest.raises(InvalidArgumentError):
            generate_federation(spec)

    def test_too_few_clients_rejected(self):
        spec = FederationSpec(client_sizes=(10,), cluster_of=(0,), clusters={0: ClusterParams()})
        with pytest.raises(InvalidArgumentError):
            spec.validate()


class TestSplit:
    def _samples(self, n):
        """n rows of 2 x 4 values, row i holding 8i..8i+7."""
        return np.arange(n * 8, dtype=np.float64).reshape(n, 2, 4)

    def test_ten_samples_split_eight_two(self):
        train, test = split_train_test(self._samples(10), RngStream(0, 0))
        assert (len(train), len(test)) == (8, 2)

    def test_five_samples_split_four_one(self):
        train, test = split_train_test(self._samples(5), RngStream(0, 0))
        assert (len(train), len(test)) == (4, 1)

    def test_two_samples_stay_non_degenerate(self):
        train, test = split_train_test(self._samples(2), RngStream(0, 0))
        assert (len(train), len(test)) == (1, 1)

    def test_same_seed_gives_same_split(self):
        a_train, a_test = split_train_test(self._samples(10), RngStream(9, 9))
        b_train, b_test = split_train_test(self._samples(10), RngStream(9, 9))
        assert a_train.tobytes() == b_train.tobytes()
        assert a_test.tobytes() == b_test.tobytes()

    def test_splits_are_whole_rows_of_a_permutation(self):
        train, test = split_train_test(self._samples(10), RngStream(9, 9))
        rows = np.concatenate([train, test])
        assert rows.shape == (10, 2, 4)
        assert sorted(rows[:, 0, 0]) == list(range(0, 80, 8))
        assert np.array_equal(rows, rows[:, :1, :1] + np.arange(8.0).reshape(2, 4))

    def test_client_dataset_counts_match_spec(self):
        spec = two_cluster_spec(sizes=(17, 23, 20, 20))
        for ds, n in zip(generate_federation(spec), (17, 23, 20, 20)):
            assert len(ds.train) + len(ds.test) == n
            assert len(ds.train) == int(np.floor(0.8 * n + 0.5))

    def test_single_sample_rejected(self):
        with pytest.raises(InvalidArgumentError):
            split_train_test(self._samples(1), RngStream(0, 0))


# sha256 of the file save_federation writes for two_cluster_spec(sizes=(6, 6, 6, 6)). A change
# to the generator, the split or the FSCD layout changes it.
FSCD_SHA256 = "1e4e230b2fcd7bc5970e8df53b8ee442fbe54e8b3cd300549ed75e3f29b3ec34"


class TestContainer:
    def test_round_trip_is_bit_exact(self, tmp_path):
        datasets = generate_federation(two_cluster_spec(sizes=(6, 6, 6, 6)))
        path = tmp_path / "federation.fscd"
        save_federation(datasets, str(path))
        loaded = load_federation(str(path))
        assert len(loaded) == len(datasets)
        for ds_a, ds_b in zip(datasets, loaded):
            for a, b in ((ds_a.train, ds_b.train), (ds_a.test, ds_b.test)):
                assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())

    def test_file_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "federation.fscd"
        save_federation(generate_federation(two_cluster_spec(sizes=(6, 6, 6, 6))), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FSCD_SHA256

    @pytest.mark.parametrize(
        "client, split, edit, why",
        [
            (0, "test", lambda rows: rows[:0], r"^test: client 0 is \(0, 2, 256\), not"),
            (2, "train", lambda rows: rows[:0], r"^train: client 2 is \(0, 2, 256\), not"),
            (1, "train", lambda rows: rows[:, 0], r"^train: client 1 is \(5, 256\), not"),
            (1, "test", lambda rows: rows[:, :, :100], r"^test: client 1 is \(1, 2, 100\)"),
        ],
        ids=["empty-test", "empty-train", "images-only", "other-pixel-count"],
    )
    def test_unloadable_split_rejected_before_writing(self, tmp_path, client, split, edit, why):
        datasets = generate_federation(two_cluster_spec(sizes=(6, 6, 6, 6)))
        setattr(datasets[client], split, edit(getattr(datasets[client], split)))
        path = tmp_path / "federation.fscd"
        with pytest.raises(InvalidArgumentError, match=why):
            save_federation(datasets, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("clients", [0, 1])
    def test_fewer_than_two_clients_rejected_before_writing(self, tmp_path, clients):
        datasets = generate_federation(two_cluster_spec(sizes=(6, 6, 6, 6)))[:clients]
        path = tmp_path / "federation.fscd"
        with pytest.raises(InvalidArgumentError, match=f"needs at least 2 clients, got {clients}$"):
            save_federation(datasets, str(path))
        assert not path.exists()

    def test_client_with_both_splits_empty_rejected_before_writing(self, tmp_path):
        datasets = generate_federation(two_cluster_spec(sizes=(6, 6, 6, 6)))
        datasets[3] = ClientDataset(datasets[3].train[:0], datasets[3].test[:0])
        path = tmp_path / "federation.fscd"
        with pytest.raises(InvalidArgumentError, match=r"^train: client 3 is \(0, 2, 256\)"):
            save_federation(datasets, str(path))
        assert not path.exists()

    def test_truncated_container_rejected(self, tmp_path):
        datasets = generate_federation(two_cluster_spec(sizes=(4, 4, 4, 4)))
        path = tmp_path / "federation.fscd"
        save_federation(datasets, str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(DecodeError):
            load_federation(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "federation.fscd"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(DecodeError):
            load_federation(str(path))


def container(*clients):
    """Dataset file bytes: one (n_train, n_test, pixels, values) per client.

    values are the client's samples back to back, each an image then a mask.
    """
    chunks = [struct.pack("<4sII", b"FSCD", 1, len(clients))]
    for n_train, n_test, pixels, values in clients:
        chunks.append(struct.pack("<III", n_train, n_test, pixels))
        chunks.append(np.asarray(values, dtype="<f8").tobytes())
    return b"".join(chunks)


IMAGE = [0.0, 0.25, 0.5, 1.0]
MASK = [0.0, 1.0, 1.0, 0.0]
# A valid client to follow the one under test: a federation has at least 2.
SECOND = (1, 1, 4, IMAGE + MASK + IMAGE + MASK)


class TestContainerChecks:
    def load(self, tmp_path, data):
        path = tmp_path / "federation.fscd"
        path.write_bytes(data)
        return load_federation(str(path))

    def test_small_valid_file_loads(self, tmp_path):
        test_mask = [1.0, 0.0, 0.0, 1.0]
        loaded = self.load(tmp_path, container((1, 1, 4, IMAGE + MASK + IMAGE + test_mask), SECOND))
        assert loaded[0].train.tolist() == [[IMAGE, MASK]]
        assert loaded[0].test.tolist() == [[IMAGE, test_mask]]
        assert loaded[1].train.tolist() == loaded[1].test.tolist() == [[IMAGE, MASK]]

    @pytest.mark.parametrize("clients", [(), (SECOND,)], ids=["0", "1"])
    def test_fewer_than_two_clients_rejected(self, tmp_path, clients):
        with pytest.raises(DecodeError, match=rf"^clients: the file declares {len(clients)}, "):
            self.load(tmp_path, container(*clients))

    def test_zero_pixels_rejected(self, tmp_path):
        # 24 bytes asking for a million empty samples.
        with pytest.raises(DecodeError, match=r"^pixels: client 0 declares 0"):
            self.load(tmp_path, container((1_000_000, 0, 0, []), SECOND))

    def test_declared_size_beyond_the_file_rejected_before_reading(self, tmp_path):
        with pytest.raises(DecodeError, match=r"^payload: client 0 declares 1000 samples"):
            self.load(tmp_path, container((999, 1, 4, IMAGE + MASK), SECOND))

    def test_pixel_count_must_match_client_0(self, tmp_path):
        data = container((1, 0, 4, IMAGE + MASK), (1, 0, 9, [0.0] * 18))
        with pytest.raises(DecodeError, match=r"^pixels: client 1 declares 9, client 0 4"):
            self.load(tmp_path, data)

    def test_non_finite_image_rejected(self, tmp_path):
        with pytest.raises(DecodeError, match=r"^image: "):
            self.load(tmp_path, container((1, 0, 4, [0.0, np.nan, 0.5, 1.0] + MASK), SECOND))

    @pytest.mark.parametrize("bad", [0.5, 7.0])
    def test_non_binary_mask_rejected(self, tmp_path, bad):
        with pytest.raises(DecodeError, match=r"^mask: "):
            self.load(tmp_path, container((1, 0, 4, IMAGE + [0.0, bad, 1.0, 0.0]), SECOND))

    @pytest.mark.parametrize("split, n_train, n_test", [("train", 0, 1), ("test", 1, 0)])
    def test_empty_split_rejected(self, tmp_path, split, n_train, n_test):
        data = container((1, 1, 4, IMAGE + MASK + IMAGE + MASK), (n_train, n_test, 4, IMAGE + MASK))
        with pytest.raises(DecodeError, match=rf"^{split}: client 1 declares 0 samples$"):
            self.load(tmp_path, data)
