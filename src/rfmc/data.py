"""Labeled (frame, label, snr) datasets: build, split, save, load.

Each frame draws from its own counter-keyed Philox streams
(``seeding.frame_seed``, taken a slice at a time through
``seeding.FrameStreams``): stream 0 gives the symbols (or the noise-class
samples), stream 1 the channel noise, each keyed by the master seed with
the counter starting at (0, index, class, stream). So a frame is a pure
function of (master seed, class, index, stream): generation order never
matters, the same spec always produces byte-identical datasets, and a
dataset with N frames per class is, class by class, a prefix of one with
more. ``build_dataset`` cuts each class into slices of ``LOGITS_SLICE``
frames and synthesizes the slices in a thread pool, one thread per CPU the
process may run on, each slice writing its own rows. The pool runs with
BLAS held at one thread (``blas.one_thread``): numpy's OpenBLAS otherwise
spins a worker after every threaded product, and the slices' own synthesis
products would keep it awake on the CPU the pool needs. Synthesis products
are exact (``sigsynth._exact_grid``), so the bytes are the same at any
thread count and in any slice order. Frames are stored as f32; noise-class
records carry an n/a flag instead of an SNR.

A dataset file is an ``rfmc.fileio`` container with the magic "RFDS";
after the version its header holds the record count u32 and the frame
length u16, and its body is the records: label u8, snr flag u8 (0=valid,
1=n/a), snr_db f32, frame 1800 x f32.
"""

from __future__ import annotations

import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import blas, channel, sigsynth
from .fileio import (FileFormatError, check_remaining, check_trailer, read_exact, read_preamble,
                     write_file)
from .quant import LOGITS_SLICE
from .seeding import FrameStreams, rng_from_seed
from .seeding import frame_seed  # noqa: F401  (the one-frame form, traced by perfbench)
from .sigsynth import FRAME_LEN, NUM_CLASSES, ModulationLabel

DATASET_MAGIC = b"RFDS"
DATASET_VERSION = 1

_RECORD_DTYPE = np.dtype(
    [("label", "u1"), ("snr_flag", "u1"), ("snr_db", "<f4"), ("frame", "<f4", (FRAME_LEN,))]
)


@dataclass(frozen=True)
class DatasetSpec:
    frames_per_class: int = 2000
    snr_grid: tuple[float, ...] = channel.DEFAULT_SNR_GRID
    master_seed: int = 0

    def validate(self) -> None:
        if self.frames_per_class < 1:
            raise ValueError("frames_per_class must be >= 1")
        if not self.snr_grid:
            raise ValueError("snr_grid must be non-empty")
        channel.check_snr(self.snr_grid)


@dataclass
class Dataset:
    """Frames as (n, 1800) f32 rows; snr_db is NaN for noise-class records."""

    frames: np.ndarray
    labels: np.ndarray
    snr_db: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=NUM_CLASSES)

    def validate(self) -> None:
        n = len(self.labels)
        if self.frames.shape != (n, FRAME_LEN) or self.snr_db.shape != (n,):
            raise ValueError("frames/labels/snr_db shapes disagree")
        if n and (self.labels.min() < 0 or self.labels.max() >= NUM_CLASSES):
            raise ValueError("labels must be in 0..6")
        # min and max propagate NaN, so no (n, 1800) mask is needed;
        # ``initial`` covers a dataset with no records.
        lo, hi = self.frames.min(initial=0.0), self.frames.max(initial=0.0)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("frames must be finite")


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def build_dataset(spec: DatasetSpec) -> Dataset:
    """Generate frames_per_class frames for all seven classes.

    Modulated classes cycle their SNR over ``spec.snr_grid`` by frame
    index; the noise class is the bare receiver noise floor. Each class
    is made in slices of ``LOGITS_SLICE`` frames, which a pool of one
    thread per available CPU synthesizes into their own rows, with BLAS
    held at one thread (``blas.one_thread``) so the pool has the CPUs.
    """
    spec.validate()
    per_class = spec.frames_per_class
    n = NUM_CLASSES * per_class
    frames = np.empty((n, FRAME_LEN), dtype=np.float32)
    labels = np.repeat(np.arange(NUM_CLASSES, dtype=np.uint8), per_class)
    snr_db = np.full(n, np.nan, dtype=np.float32)
    grid = spec.snr_grid

    def fill(cls: int, start: int) -> None:
        count = min(LOGITS_SLICE, per_class - start)
        rows = slice(cls * per_class + start, cls * per_class + start + count)
        rngs = FrameStreams(spec.master_seed, cls, count, stream=0, start=start)
        if cls == ModulationLabel.NOISE:
            frames[rows] = sigsynth.gen_noise_batch(rngs)
            return
        snrs = [grid[idx % len(grid)] for idx in range(start, start + count)]
        clean = sigsynth.modulate_batch(ModulationLabel(cls), rngs)
        noise_rngs = FrameStreams(spec.master_seed, cls, count, stream=1, start=start)
        frames[rows] = channel.apply_awgn_batch(clean, snrs, noise_rngs)
        snr_db[rows] = snrs

    classes, starts = zip(*[(cls, start) for cls in range(NUM_CLASSES)
                            for start in range(0, per_class, LOGITS_SLICE)])
    with blas.one_thread(), ThreadPoolExecutor(min(_cpus(), len(starts))) as pool:
        # map cancels the slices not yet started when one raises
        for _ in pool.map(fill, classes, starts):
            pass
    return Dataset(frames, labels, snr_db)


def split(dataset: Dataset, train_fraction: float, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Stratified split: each class shuffled and cut at the same fraction.

    Train takes floor(n_class * fraction) records per class; together the
    two halves are exactly the original records.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    rng = rng_from_seed(seed)
    train_idx, test_idx = [], []
    for cls in np.unique(dataset.labels):
        cls_idx = np.flatnonzero(dataset.labels == cls)
        order = rng.permutation(len(cls_idx))
        cut = int(len(cls_idx) * train_fraction)
        train_idx.append(cls_idx[order[:cut]])
        test_idx.append(cls_idx[order[cut:]])
    tr = np.concatenate(train_idx)
    te = np.concatenate(test_idx)

    def take(idx: np.ndarray) -> Dataset:
        # fancy indexing already copies
        return Dataset(dataset.frames[idx], dataset.labels[idx], dataset.snr_db[idx])

    return take(tr), take(te)


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write ``dataset``, building its records ``LOGITS_SLICE`` at a time."""
    dataset.validate()

    def record_slices():
        for start in range(0, len(dataset), LOGITS_SLICE):
            rows = slice(start, start + LOGITS_SLICE)
            snr_db = dataset.snr_db[rows]
            records = np.empty(len(snr_db), dtype=_RECORD_DTYPE)
            records["label"] = dataset.labels[rows]
            records["snr_flag"] = np.isnan(snr_db)
            records["snr_db"] = snr_db
            records["frame"] = dataset.frames[rows]
            yield records

    write_file(path, DATASET_MAGIC, "<HIH", (DATASET_VERSION, len(dataset), FRAME_LEN),
               record_slices())


def load_dataset(path: str) -> Dataset:
    """Inverse of save_dataset.

    The records are read ``LOGITS_SLICE`` at a time and copied into arrays
    allocated once, under a running CRC32, so the load never holds the
    whole body as well as the frames: it peaks near the frames' own size.
    """
    with open(path, "rb") as f:
        count, frame_len = read_preamble(f, DATASET_MAGIC, DATASET_VERSION, "<HIH", "dataset")
        if frame_len != FRAME_LEN:
            raise FileFormatError(f"unexpected frame length {frame_len}")
        check_remaining(f, count * _RECORD_DTYPE.itemsize, "records")
        frames = np.empty((count, FRAME_LEN), dtype=np.float32)
        labels = np.empty(count, dtype=np.uint8)
        snr_db = np.empty(count, dtype=np.float32)
        crc = 0
        for start in range(0, count, LOGITS_SLICE):
            chunk = read_exact(f, min(LOGITS_SLICE, count - start) * _RECORD_DTYPE.itemsize,
                               "records")
            crc = zlib.crc32(chunk, crc)
            records = np.frombuffer(chunk, dtype=_RECORD_DTYPE)
            rows = slice(start, start + len(records))
            frames[rows] = records["frame"]
            labels[rows] = records["label"]
            snr_db[rows] = records["snr_db"]
            snr_db[rows][records["snr_flag"] != 0] = np.nan
        check_trailer(f, crc, "dataset")

    ds = Dataset(frames, labels, snr_db)
    ds.validate()
    return ds
