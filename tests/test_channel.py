"""Tests for the AWGN channel: SNR calibration and finite-SNR checks."""

import numpy as np
import pytest

import synth_oracle
from rfmc import channel, sigsynth
from rfmc.seeding import frame_seed


@pytest.fixture(scope="module")
def unit_frame():
    return sigsynth.modulate(sigsynth.ModulationLabel.QPSK, seed=100)


def measured_noise_power(frame, snr_db, n_frames):
    """Oracle: subtract the known clean frame, estimate variance directly."""
    total = 0.0
    for seed in range(n_frames):
        noisy = channel.apply_awgn(frame, snr_db, seed=seed)
        total += np.sum((noisy - frame) ** 2)
    return total / (n_frames * sigsynth.FRAME_SAMPLES)


class TestApplyAwgn:
    def test_noise_power_at_0db(self, unit_frame):
        power = measured_noise_power(unit_frame, 0.0, 10**4)
        assert power == pytest.approx(1.0, abs=0.02)

    def test_noise_power_at_20db(self, unit_frame):
        power = measured_noise_power(unit_frame, 20.0, 10**4)
        assert power == pytest.approx(0.01, abs=0.0005)

    def test_deterministic(self, unit_frame):
        a = channel.apply_awgn(unit_frame, 10.0, seed=4)
        b = channel.apply_awgn(unit_frame, 10.0, seed=4)
        assert np.array_equal(a, b)

    def test_seed_changes_noise(self, unit_frame):
        a = channel.apply_awgn(unit_frame, 10.0, seed=4)
        b = channel.apply_awgn(unit_frame, 10.0, seed=5)
        assert not np.array_equal(a, b)

    def test_non_finite_snr_rejected(self, unit_frame):
        for snr in (None, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"snr_db must be finite, got {snr}$"):
                channel.apply_awgn(unit_frame, snr, seed=0)

    def test_shape_preserved(self, unit_frame):
        assert channel.apply_awgn(unit_frame, 3.0, seed=0).shape == unit_frame.shape



class TestApplyAwgnBatch:
    def test_rows_are_the_oracle_exactly(self, unit_frame):
        frames = np.stack([unit_frame, -unit_frame, 2 * unit_frame])
        snrs = [0.0, 7.0, 18.0]
        noisy = channel.apply_awgn_batch(frames, snrs, [frame_seed(3, 1, i, 1) for i in range(3)])
        oracle = [synth_oracle.awgn(f, s, frame_seed(3, 1, i, 1))
                  for i, (f, s) in enumerate(zip(frames, snrs))]
        assert np.array_equal(noisy, oracle)

    def test_lengths_must_agree(self, unit_frame):
        with pytest.raises(ValueError):
            channel.apply_awgn_batch(unit_frame[np.newaxis], [1.0, 2.0], [frame_seed(0, 1, 0, 1)])

    def test_bad_entry_is_named_alone(self, unit_frame):
        frames = np.stack([unit_frame] * 3)
        rngs = [frame_seed(0, 1, i, 1) for i in range(3)]
        with pytest.raises(ValueError, match=r"snr_db must be finite, got None$"):
            channel.apply_awgn_batch(frames, [3.0, None, 6.0], rngs)
