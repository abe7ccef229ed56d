"""Tests for dataset construction, splitting, and the RFDS file format."""

import struct
import sys
import threading
import tracemalloc
import zlib

import numpy as np
import pytest

from rfmc import channel, data, quant, sigsynth
from rfmc.fileio import ChecksumError, FileFormatError, TruncatedFileError
from rfmc.seeding import FrameStreams
from rfmc.sigsynth import FRAME_LEN, NUM_CLASSES, ModulationLabel


@pytest.fixture(scope="module")
def tiny_spec():
    return data.DatasetSpec(frames_per_class=10, snr_grid=(0.0, 10.0), master_seed=99)


@pytest.fixture(scope="module")
def tiny_dataset(tiny_spec):
    return data.build_dataset(tiny_spec)


def datasets_equal(a: data.Dataset, b: data.Dataset) -> bool:
    return (
        a.frames_q.dtype == b.frames_q.dtype == np.int16
        and np.array_equal(a.frames_q, b.frames_q)
        and np.array_equal(a.labels, b.labels)
        and np.array_equal(a.snr_db, b.snr_db, equal_nan=True)
    )


class TestBuildDataset:
    def test_counts(self, tiny_dataset):
        assert len(tiny_dataset) == 70
        assert np.all(tiny_dataset.class_counts() == 10)

    def test_deterministic(self, tiny_spec, tiny_dataset):
        again = data.build_dataset(tiny_spec)
        assert datasets_equal(tiny_dataset, again)

    def test_master_seed_changes_frames(self, tiny_spec, tiny_dataset):
        other = data.build_dataset(
            data.DatasetSpec(
                frames_per_class=tiny_spec.frames_per_class,
                snr_grid=tiny_spec.snr_grid,
                master_seed=tiny_spec.master_seed + 1,
            )
        )
        assert not np.array_equal(tiny_dataset.frames_q, other.frames_q)

    def test_snr_cycles_over_grid(self, tiny_dataset):
        bpsk = tiny_dataset.snr_db[tiny_dataset.labels == 1]
        assert np.array_equal(bpsk, np.tile([0.0, 10.0], 5).astype(np.float32))

    def test_noise_class_has_nan_snr(self, tiny_dataset):
        assert np.all(np.isnan(tiny_dataset.snr_db[tiny_dataset.labels == 0]))
        assert not np.any(np.isnan(tiny_dataset.snr_db[tiny_dataset.labels != 0]))

    def test_frames_shape_and_dtype(self, tiny_dataset):
        assert tiny_dataset.frames_q.shape == (70, FRAME_LEN)
        assert tiny_dataset.frames_q.dtype == np.int16
        assert tiny_dataset.frames.shape == (70, FRAME_LEN)
        assert tiny_dataset.frames.dtype == np.float32

    def test_frames_are_the_exact_values_of_frames_q(self, tiny_dataset):
        # requantizing them gives back the integers, so a reader of
        # ``frames`` quantizing under Q2.13 sees what the models read
        frames = tiny_dataset.frames
        assert np.array_equal(frames, tiny_dataset.frames_q / 8192)
        assert np.array_equal(quant.quantize_array(frames, quant.INPUT_FORMAT),
                              tiny_dataset.frames_q)

    def test_each_class_is_a_prefix_of_a_larger_dataset(self, tiny_spec):
        small = data.build_dataset(data.DatasetSpec(4, tiny_spec.snr_grid, master_seed=99))
        large = data.build_dataset(data.DatasetSpec(9, tiny_spec.snr_grid, master_seed=99))
        for cls in range(7):
            for field in ("frames_q", "snr_db"):
                head = getattr(large, field)[large.labels == cls][:4]
                assert np.array_equal(getattr(small, field)[small.labels == cls], head,
                                      equal_nan=True)

    @pytest.mark.parametrize("grid", [(None, 10.0), (float("nan"),)])
    def test_non_finite_grid_entry_rejected(self, monkeypatch, grid):
        # before any synthesis: no slice of a build fails part-way
        def no_synthesis(*args, **kwargs):
            raise AssertionError("synthesis started")

        monkeypatch.setattr(sigsynth, "gen_noise_batch", no_synthesis)
        monkeypatch.setattr(sigsynth, "modulate_batch", no_synthesis)
        with pytest.raises(ValueError, match=f"snr_db must be finite, got {grid[0]}$"):
            data.build_dataset(data.DatasetSpec(4, grid))

    def test_grid_entry_no_frame_uses_rejected(self):
        # one frame per class draws only the first entry
        with pytest.raises(ValueError, match="snr_db must be finite, got None$"):
            data.build_dataset(data.DatasetSpec(1, (10.0, None)))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            data.build_dataset(data.DatasetSpec(frames_per_class=0))
        with pytest.raises(ValueError):
            data.build_dataset(data.DatasetSpec(snr_grid=()))


def serial_build(spec: data.DatasetSpec) -> data.Dataset:
    """The dataset made one whole class at a time, in class order, on one
    thread, and quantized to Q2.13 at the end."""
    per_class = spec.frames_per_class
    frames, snr_db = [], []
    for cls in range(NUM_CLASSES):
        rngs = FrameStreams(spec.master_seed, cls, per_class, stream=0)
        if cls == ModulationLabel.NOISE:
            frames.append(sigsynth.gen_noise_batch(rngs))
            snr_db.append(np.full(per_class, np.nan))
            continue
        snrs = [spec.snr_grid[idx % len(spec.snr_grid)] for idx in range(per_class)]
        clean = sigsynth.modulate_batch(ModulationLabel(cls), rngs)
        frames.append(channel.apply_awgn_batch(
            clean, snrs, FrameStreams(spec.master_seed, cls, per_class, stream=1)))
        snr_db.append(snrs)
    return data.Dataset(quant.quantize_array(np.concatenate(frames), quant.INPUT_FORMAT),
                        np.repeat(np.arange(NUM_CLASSES, dtype=np.uint8), per_class),
                        np.concatenate(snr_db).astype(np.float32))


class TestBuildInSlices:
    """``build_dataset`` synthesizes LOGITS_SLICE-frame slices in a thread pool."""

    def test_bytes_equal_a_serial_class_by_class_build(self):
        # 300 frames per class: a full slice and a partial one per class
        spec = data.DatasetSpec(300, (0.0, 4.0, 8.0), master_seed=12)
        assert datasets_equal(data.build_dataset(spec), serial_build(spec))

    def test_blas_holds_one_thread_while_building_then_restores(self, blas_threads,
                                                                monkeypatch):
        seen = []
        modulate = sigsynth.modulate_batch

        def recording(*args):
            seen.append(blas_threads())
            return modulate(*args)

        monkeypatch.setattr(sigsynth, "modulate_batch", recording)
        data.build_dataset(data.DatasetSpec(3))
        assert set(seen) == {1}
        assert blas_threads() == 2

    def test_blas_count_restored_when_a_slice_raises(self, blas_threads, monkeypatch):
        def failing(*args):
            raise RuntimeError("slice failed")

        monkeypatch.setattr(sigsynth, "modulate_batch", failing)
        with pytest.raises(RuntimeError, match="slice failed"):
            data.build_dataset(data.DatasetSpec(600))
        assert blas_threads() == 2

    def test_blas_count_restored_after_concurrent_builds(self, blas_threads):
        # more builders than CPUs, switching often, so their holds overlap
        spec = data.DatasetSpec(20, master_seed=4)
        expected = data.build_dataset(spec)
        results = []

        def build():
            for _ in range(3):
                results.append(data.build_dataset(spec))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            threads = [threading.Thread(target=build) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 12
        assert all(datasets_equal(result, expected) for result in results)
        assert blas_threads() == 2

    def test_no_pool_thread_outlives_the_build(self, monkeypatch):
        before = set(threading.enumerate())
        data.build_dataset(data.DatasetSpec(300))
        assert set(threading.enumerate()) == before

        def failing(*args):
            raise RuntimeError("slice failed")

        monkeypatch.setattr(sigsynth, "modulate_batch", failing)
        with pytest.raises(RuntimeError):
            data.build_dataset(data.DatasetSpec(300))
        assert set(threading.enumerate()) == before

    def test_peaks_at_a_few_slices_over_the_frames(self):
        # each pool thread holds a slice's float64 synthesis intermediates
        # (3.0-3.5 slices measured at 1, 2 and 4 threads), over the int16 frames
        slice_bytes = quant.LOGITS_SLICE * FRAME_LEN * 8
        threads = data._cpus()
        tracemalloc.start()
        try:
            ds = data.build_dataset(data.DatasetSpec(2000, master_seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        over = (peak - ds.frames_q.nbytes) / (threads * slice_bytes)
        assert over < 4, f"{over:.2f} slices per thread over the frames"


class TestSplit:
    def test_stratified_counts(self, tiny_dataset):
        train, test = data.split(tiny_dataset, 0.8, seed=5)
        assert len(train) == 56 and len(test) == 14
        assert np.all(train.class_counts() == 8)
        assert np.all(test.class_counts() == 2)

    def test_union_is_original_multiset(self, tiny_dataset):
        train, test = data.split(tiny_dataset, 0.8, seed=5)
        combined = np.vstack([train.frames_q, test.frames_q])
        key = lambda arr: sorted(arr.tobytes() for arr in arr)  # noqa: E731
        assert key(combined) == key(tiny_dataset.frames_q)

    def test_halves_own_their_records(self, tiny_dataset):
        halves = data.split(tiny_dataset, 0.8, seed=5)
        for half in halves:
            for name in ("frames_q", "labels", "snr_db"):
                assert not np.shares_memory(getattr(half, name), getattr(tiny_dataset, name))

        def records(ds):
            return sorted(
                (int(label), np.float32(snr).tobytes(), frame.tobytes())
                for label, snr, frame in zip(ds.labels, ds.snr_db, ds.frames_q)
            )

        assert sorted(records(halves[0]) + records(halves[1])) == records(tiny_dataset)

    def test_deterministic(self, tiny_dataset):
        a_train, a_test = data.split(tiny_dataset, 0.8, seed=7)
        b_train, b_test = data.split(tiny_dataset, 0.8, seed=7)
        assert datasets_equal(a_train, b_train)
        assert datasets_equal(a_test, b_test)

    def test_fraction_out_of_range_rejected(self, tiny_dataset):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                data.split(tiny_dataset, bad, seed=0)


class TestFileRoundTrip:
    def test_save_load_identity(self, tiny_dataset, tmp_path):
        path = tmp_path / "ds.rfds"
        data.save_dataset(tiny_dataset, path)
        loaded = data.load_dataset(path)
        assert datasets_equal(tiny_dataset, loaded)

    def test_bit_identical_files(self, tiny_dataset, tmp_path):
        p1, p2 = tmp_path / "a.rfds", tmp_path / "b.rfds"
        data.save_dataset(tiny_dataset, p1)
        data.save_dataset(tiny_dataset, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_body_detected(self, tiny_dataset, tmp_path):
        path = tmp_path / "ds.rfds"
        data.save_dataset(tiny_dataset, path)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF  # flip one body byte
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            data.load_dataset(path)

    def test_wrong_magic_detected(self, tiny_dataset, tmp_path):
        path = tmp_path / "ds.rfds"
        data.save_dataset(tiny_dataset, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError):
            data.load_dataset(path)

    def test_truncation_detected(self, tiny_dataset, tmp_path):
        path = tmp_path / "ds.rfds"
        data.save_dataset(tiny_dataset, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TruncatedFileError):
            data.load_dataset(path)

    @staticmethod
    def random_dataset(n: int) -> data.Dataset:
        rng = np.random.default_rng(5)
        snr_db = rng.choice([np.nan, 0.0, 6.0], n).astype(np.float32)
        return data.Dataset(rng.integers(-32768, 32768, (n, FRAME_LEN), dtype=np.int16),
                            rng.integers(0, 7, n).astype(np.uint8), snr_db)

    def test_save_peaks_at_a_slice_of_records(self, tmp_path):
        # records are built LOGITS_SLICE at a time, not for the whole dataset
        ds = self.random_dataset(2100)
        path = tmp_path / "big.rfds"
        tracemalloc.start()
        try:
            data.save_dataset(ds, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert datasets_equal(ds, data.load_dataset(path))
        assert peak <= 0.25 * ds.frames_q.nbytes, peak / ds.frames_q.nbytes

    def test_load_peaks_near_the_frames_size(self, tmp_path):
        # 2,100 records: eight full LOGITS_SLICE reads and a partial one
        ds = self.random_dataset(2100)
        path = tmp_path / "big.rfds"
        data.save_dataset(ds, path)
        tracemalloc.start()
        try:
            loaded = data.load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert datasets_equal(ds, loaded)
        assert peak <= 1.5 * loaded.frames_q.nbytes, peak / loaded.frames_q.nbytes

    def test_header_claiming_more_records_than_the_file_holds(self, tmp_path):
        path = tmp_path / "hostile.rfds"
        path.write_bytes(b"RFDS" + struct.pack("<HIH", data.DATASET_VERSION, 2**32 - 1, FRAME_LEN)
                         + bytes(64))
        with pytest.raises(TruncatedFileError):
            data.load_dataset(path)

    def test_records_are_3606_bytes(self, tiny_dataset, tmp_path):
        path = tmp_path / "ds.rfds"
        data.save_dataset(tiny_dataset, path)
        assert data._RECORD_DTYPE.itemsize == 3606
        assert path.stat().st_size == 12 + 3606 * len(tiny_dataset) + 4

    def test_version_1_file_refused(self, tmp_path):
        path = tmp_path / "v1.rfds"
        path.write_bytes(version_1_file(2))
        with pytest.raises(FileFormatError, match="^unsupported dataset version 1$"):
            data.load_dataset(path)


def version_1_file(n: int) -> bytes:
    """A well-formed version-1 dataset file: ``n`` records of f32 frames
    (7,206 bytes each) under a valid CRC."""
    v1_record = np.dtype([("label", "u1"), ("snr_flag", "u1"), ("snr_db", "<f4"),
                          ("frame", "<f4", (FRAME_LEN,))])
    records = np.zeros(n, v1_record)
    records["label"] = np.arange(n) % NUM_CLASSES
    records["snr_flag"] = records["label"] == 0
    records["snr_db"] = 6.0
    records["frame"] = np.random.default_rng(8).standard_normal((n, FRAME_LEN))
    body = records.tobytes()
    assert len(body) == 7206 * n
    return (b"RFDS" + struct.pack("<HIH", 1, n, FRAME_LEN) + body
            + struct.pack("<I", zlib.crc32(body)))


class TestInt16Frames:
    """Only int16 frames are a dataset: any other array is refused before a
    record is built, since the int16 frame field would wrap its values."""

    @pytest.mark.parametrize("frames_q", [
        np.full((2, FRAME_LEN), 0.5, np.float32),
        np.full((2, FRAME_LEN), 40000, np.int32),  # out of int16's range
    ], ids=["float32", "int32"])
    def test_save_rejects(self, tmp_path, frames_q):
        ds = data.Dataset(frames_q, np.array([0, 3], np.uint8), np.array([np.nan, 6.0], np.float32))
        path = tmp_path / "bad.rfds"
        with pytest.raises(ValueError, match=f"frames must be int16 in Q2.13, got {frames_q.dtype}"):
            data.save_dataset(ds, path)
        assert not path.exists()

    def test_validate_allocates_no_frame_sized_array(self):
        n = 2100
        frames_q = np.random.default_rng(6).integers(-32768, 32768, (n, FRAME_LEN), dtype=np.int16)
        ds = data.Dataset(frames_q, np.zeros(n, np.uint8), np.zeros(n, np.float32))
        tracemalloc.start()
        try:
            ds.validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * frames_q.nbytes, peak / frames_q.nbytes
