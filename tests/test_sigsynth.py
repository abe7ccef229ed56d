"""Tests for frame synthesis: constellations, waveforms, noise frames."""

import numpy as np
import pytest

import synth_oracle
from rfmc import sigsynth as ss
from rfmc.seeding import frame_seed, rng_from_seed
from rfmc.sigsynth import ModulationLabel

ALL_MODULATED = [
    ModulationLabel.BPSK,
    ModulationLabel.QPSK,
    ModulationLabel.CPM,
    ModulationLabel.GFSK,
    ModulationLabel.QAM16,
    ModulationLabel.GMSK,
]


class TestLabels:
    def test_fixed_order(self):
        assert ss.LABEL_NAMES == ("noise", "BPSK", "QPSK", "CPM", "GFSK", "QAM16", "GMSK")
        for cls in range(7):
            assert int(ModulationLabel(cls)) == cls

    def test_bijective_mapping(self):
        for cls, name in enumerate(ss.LABEL_NAMES):
            assert ss.label_name(cls) == name


class TestGenSymbols:
    """The symbol draw of the convolution oracle that the synthesis is
    checked against."""

    def test_bpsk_points_are_plus_minus_one(self):
        symbols = synth_oracle.gen_symbols(ModulationLabel.BPSK, 4, rng_from_seed(5))
        assert all(s in (1 + 0j, -1 + 0j) for s in symbols)

    def test_qam16_mean_power_monte_carlo(self):
        # Monte-Carlo oracle over the {+-1,+-3}^2/sqrt(10) grid
        symbols = synth_oracle.gen_symbols(ModulationLabel.QAM16, 10**5, rng_from_seed(7))
        assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_qpsk_unit_modulus(self):
        (point,) = synth_oracle.gen_symbols(ModulationLabel.QPSK, 1, rng_from_seed(11))
        assert abs(point) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("label", [ModulationLabel.NOISE, ModulationLabel.CPM,
                                       ModulationLabel.GFSK, ModulationLabel.GMSK])
    def test_nonlinear_labels_rejected(self, label):
        with pytest.raises(ValueError):
            synth_oracle.gen_symbols(label, 10, rng_from_seed(0))

    def test_deterministic(self):
        a = synth_oracle.gen_symbols(ModulationLabel.QAM16, 64, rng_from_seed(9))
        b = synth_oracle.gen_symbols(ModulationLabel.QAM16, 64, rng_from_seed(9))
        assert np.array_equal(a, b)

    def test_constellations_unit_power(self):
        for label in (ModulationLabel.BPSK, ModulationLabel.QPSK, ModulationLabel.QAM16):
            points = synth_oracle.constellation(label)
            assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestModulate:
    @pytest.mark.parametrize("label", ALL_MODULATED)
    def test_frame_shape_and_rms(self, label):
        frame = ss.modulate(label, seed=3)
        assert frame.shape == (ss.FRAME_LEN,)
        assert np.all(np.isfinite(frame))
        power = np.mean(np.abs(synth_oracle.deinterleave(frame)) ** 2)
        assert abs(np.sqrt(power) - 1.0) < 1e-6

    def test_gmsk_constant_envelope(self):
        frame = ss.modulate(ModulationLabel.GMSK, seed=1)
        moduli = np.abs(synth_oracle.deinterleave(frame))
        assert np.all(np.abs(moduli - 1.0) < 1e-6)

    @pytest.mark.parametrize("label", [ModulationLabel.CPM, ModulationLabel.GFSK,
                                       ModulationLabel.GMSK])
    def test_envelope_coefficient_of_variation(self, label):
        moduli = np.abs(synth_oracle.deinterleave(ss.modulate(label, seed=2)))
        assert np.std(moduli) / np.mean(moduli) < 1e-6

    @pytest.mark.parametrize("label", [ModulationLabel.CPM, ModulationLabel.GFSK,
                                       ModulationLabel.GMSK])
    def test_phase_increment_bound(self, label):
        # Oracle: the per-sample bound follows from the frequency pulse
        # before any frame is built (pi*h/sps for unit-sum stride sums).
        bound = synth_oracle.max_phase_increment(label)
        z = synth_oracle.deinterleave(ss.modulate(label, seed=21))
        increments = np.abs(np.angle(z[1:] * np.conj(z[:-1])))
        assert increments.max() <= bound + 1e-9

    def test_cpm_bound_matches_closed_form(self):
        expected = np.pi * ss.CPM_MOD_INDEX / ss.SAMPLES_PER_SYMBOL
        assert synth_oracle.max_phase_increment(ModulationLabel.CPM) == pytest.approx(expected)

    def test_phase_continuity_unwrapped(self):
        for label in (ModulationLabel.CPM, ModulationLabel.GFSK, ModulationLabel.GMSK):
            z = synth_oracle.deinterleave(ss.modulate(label, seed=4))
            jumps = np.abs(np.diff(np.unwrap(np.angle(z))))
            assert jumps.max() <= synth_oracle.max_phase_increment(label) + 1e-9

    def test_noise_label_rejected(self):
        with pytest.raises(ValueError):
            ss.modulate(ModulationLabel.NOISE, seed=0)

    @pytest.mark.parametrize("label", ALL_MODULATED)
    def test_deterministic(self, label):
        assert np.array_equal(ss.modulate(label, seed=17), ss.modulate(label, seed=17))

    def test_seed_sensitivity(self):
        assert not np.array_equal(
            ss.modulate(ModulationLabel.QPSK, seed=1),
            ss.modulate(ModulationLabel.QPSK, seed=2),
        )


# Matrix synthesis sums in another order than direct convolution; float64
# rounding of sums over at most a few hundred unit-scale terms stays far
# below this.
ORACLE_TOL = 1e-12


def rngs(label, count, stream=0, master=11):
    return [frame_seed(master, int(label), idx, stream) for idx in range(count)]


class TestBatchSynthesis:
    # GFSK and GMSK pulses span 5 symbols, so these cases cover the overlap
    # of several symbols' pulses; the ids name the one (default) waveform set.
    @pytest.mark.parametrize("label", ALL_MODULATED, ids=lambda label: f"{label:d}-default")
    def test_matches_convolution_oracle(self, label):
        batch = ss.modulate_batch(label, rngs(label, 12))
        oracle = np.array([synth_oracle.modulate(label, r) for r in rngs(label, 12)])
        assert batch.shape == (12, ss.FRAME_LEN)
        assert np.max(np.abs(batch - oracle)) <= ORACLE_TOL

    def test_single_frame_is_the_oracle_frame(self):
        oracle = synth_oracle.modulate(
            ModulationLabel.QAM16, np.random.Generator(np.random.Philox(key=5))
        )
        assert np.max(np.abs(ss.modulate(ModulationLabel.QAM16, seed=5) - oracle)) <= ORACLE_TOL

    @pytest.mark.parametrize("label", ALL_MODULATED)
    def test_row_does_not_depend_on_the_batch(self, label):
        batch = ss.modulate_batch(label, rngs(label, 6))
        alone = ss.modulate_batch(label, rngs(label, 6)[4:5])
        backwards = ss.modulate_batch(label, rngs(label, 6)[::-1])
        assert np.array_equal(batch[4], alone[0])
        assert np.array_equal(batch, backwards[::-1])

    def test_noise_batch_is_the_oracle_exactly(self):
        batch = ss.gen_noise_batch(rngs(ModulationLabel.NOISE, 5))
        oracle = [synth_oracle.noise_frame(r) for r in rngs(ModulationLabel.NOISE, 5)]
        assert np.array_equal(batch, oracle)


class TestNoiseFrame:
    def test_bit_identical_for_same_seed(self):
        assert np.array_equal(ss.gen_noise_frame(42), ss.gen_noise_frame(42))

    def test_pooled_component_variance(self):
        # Monte-Carlo variance estimate over 1e4 frames
        pooled = np.concatenate([ss.gen_noise_frame(seed) for seed in range(10**4)])
        assert pooled.var() == pytest.approx(0.5, abs=0.01)

    def test_adjacent_seeds_differ(self):
        assert not np.array_equal(ss.gen_noise_frame(5), ss.gen_noise_frame(6))

    def test_shape(self):
        frame = ss.gen_noise_frame(0)
        assert frame.shape == (ss.FRAME_LEN,)
        assert np.all(np.isfinite(frame))


class TestInterleave:
    def test_round_trip(self, rng):
        z = rng.standard_normal(900) + 1j * rng.standard_normal(900)
        assert np.array_equal(synth_oracle.deinterleave(ss.interleave(z)), z)

    def test_layout(self):
        frame = ss.interleave(np.array([1 + 2j, 3 + 4j]))
        assert np.array_equal(frame, [1.0, 2.0, 3.0, 4.0])
