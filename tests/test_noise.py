import warnings

import numpy as np
import pytest

from slowfast import StreamTag, dirichlet_spectrum, sample_cylindrical_batch

SPEC = dirichlet_spectrum(16)
# first samples near and past 2^61 and 2^62: at J = 16 a sample spans 4 counter
# blocks, so from 2^62 on its first block no longer fits in 64 bits
LARGE_FIRST = (0, 2**61 - 3, 2**61 + 5, 2**62 - 1, 2**62 + 5)


def draw(master_seed, sample_index=0, step_index=0, stream_tag=StreamTag.GAMMA_1):
    """One cylindrical draw: the J standard normals of a single sample."""
    return sample_cylindrical_batch(SPEC, master_seed, stream_tag, step_index, sample_index, 1)[0]


def invariant_draws(master_seed, count):
    """Draws from the fast equilibrium N(0, Lambda^-1)."""
    g = sample_cylindrical_batch(SPEC, master_seed, StreamTag.OU_EXACT, 0, 0, count)
    return g / np.sqrt(SPEC.lambdas)


class TestDeterminism:
    def test_same_context_bit_identical(self):
        a = draw(12345, sample_index=7, step_index=3, stream_tag=StreamTag.OU_EXACT)
        b = draw(12345, sample_index=7, step_index=3, stream_tag=StreamTag.OU_EXACT)
        assert np.array_equal(a, b)

    def test_batch_matches_single_draws(self):
        rows = sample_cylindrical_batch(SPEC, 99, StreamTag.GAMMA_1, 5, first_sample=0, count=40)
        for i in (0, 1, 13, 39):
            assert np.array_equal(rows[i], draw(99, sample_index=i, step_index=5))

    def test_partition_invariance(self):
        # any split of the sample range reproduces the full-batch rows exactly
        for first in LARGE_FIRST:
            full = sample_cylindrical_batch(SPEC, 7, StreamTag.OU_EXACT, 2, first, 100)
            for cuts in ([0, 100], [0, 1, 100], [0, 37, 64, 100], list(range(0, 101, 10))):
                parts = [
                    sample_cylindrical_batch(SPEC, 7, StreamTag.OU_EXACT, 2, first + a, b - a)
                    for a, b in zip(cuts, cuts[1:])
                ]
                assert np.array_equal(np.vstack(parts), full)

    def test_odd_mode_count_partitions(self):
        # J not a multiple of the generator block width still block-aligns
        spec5 = dirichlet_spectrum(5)
        for first in LARGE_FIRST + (2**63 - 7, 2**63 + 7):
            full = sample_cylindrical_batch(spec5, 3, StreamTag.GAMMA_1, 0, first, 21)
            parts = [sample_cylindrical_batch(spec5, 3, StreamTag.GAMMA_1, 0, first + a, 7)
                     for a in (0, 7, 14)]
            assert np.array_equal(np.vstack(parts), full)

    def test_large_sample_index_has_its_own_draws(self):
        # the first block of sample 2^62 - 1 is 2^64 - 4: it must not wrap to sample 0's
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = sample_cylindrical_batch(SPEC, 11, StreamTag.GAMMA_1, 0, 2**62 - 1, 3)
            for i in range(3):
                assert np.array_equal(rows[i], draw(11, sample_index=2**62 - 1 + i))
            assert not np.array_equal(rows[0], draw(11))

    def test_streams_differ(self):
        base = dict(master_seed=1, sample_index=0, step_index=0, stream_tag=StreamTag.GAMMA_1)
        ref = draw(**base)
        for change in (
            dict(base, master_seed=2),
            dict(base, sample_index=1),
            dict(base, step_index=1),
            dict(base, stream_tag=StreamTag.OU_EXACT),
        ):
            assert not np.array_equal(ref, draw(**change))

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            sample_cylindrical_batch(SPEC, 0, StreamTag.GAMMA_1, 0, -1, 2)
        with pytest.raises(ValueError):
            sample_cylindrical_batch(SPEC, 0, StreamTag.GAMMA_1, 0, 0, -1)
        with pytest.raises(ValueError):
            draw(0, step_index=-1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_rejects_seed_outside_64_bits(self, seed):
        # no aliasing: -1 would otherwise key the stream of 2^64 - 1
        with pytest.raises(ValueError, match="master_seed"):
            draw(seed)

    def test_accepts_seed_range_ends(self):
        assert np.all(np.isfinite(draw(0))) and np.all(np.isfinite(draw(2**64 - 1)))
        assert not np.array_equal(draw(0), draw(2**64 - 1))

    def test_output_is_contiguous(self):
        for J in (1, 5, 16):
            out = sample_cylindrical_batch(dirichlet_spectrum(J), 4, StreamTag.GAMMA_1, 0, 0, 9)
            assert out.shape == (9, J) and out.flags.c_contiguous


class TestDistribution:
    def test_mode_mean_and_variance(self):
        n = 1_000_000
        draws = sample_cylindrical_batch(SPEC, 2024, StreamTag.GAMMA_1, 0, 0, n)[:, 0]
        assert abs(np.mean(draws)) < 4.0 / np.sqrt(n)
        assert abs(np.var(draws) - 1.0) < 0.01

    def test_tag_independence(self):
        n = 100_000
        a = sample_cylindrical_batch(SPEC, 5, StreamTag.GAMMA_1, 0, 0, n)
        b = sample_cylindrical_batch(SPEC, 5, StreamTag.OU_EXACT, 0, 0, n)
        cov = np.mean(a * b, axis=0) - np.mean(a, axis=0) * np.mean(b, axis=0)
        assert np.max(np.abs(cov)) < 4.0 / np.sqrt(n)

    def test_step_independence(self):
        n = 100_000
        a = sample_cylindrical_batch(SPEC, 5, StreamTag.GAMMA_1, 0, 0, n)
        b = sample_cylindrical_batch(SPEC, 5, StreamTag.GAMMA_1, 1, 0, n)
        cov = np.mean(a * b, axis=0)
        assert np.max(np.abs(cov)) < 4.0 / np.sqrt(n)


class TestInvariantMeasure:
    def test_mode_variances(self):
        n = 1_000_000
        draws = invariant_draws(31, n)
        v = np.var(draws, axis=0)
        assert np.max(np.abs(v * SPEC.lambdas - 1.0)) < 0.01

    def test_expected_energy_truncated(self):
        # sum of 1/(j pi)^2 over j <= 16, frozen from the direct sum
        target = sum(1.0 / (j * np.pi) ** 2 for j in range(1, 17))
        assert target == pytest.approx(0.16052786606828076, rel=1e-13)
        n = 200_000
        draws = invariant_draws(8, n)
        energy = np.sum(draws * draws, axis=1)
        se = np.std(energy, ddof=1) / np.sqrt(n)
        assert abs(np.mean(energy) - target) < 4 * se

    def test_basel_limit(self):
        J = 100_000
        partial = np.sum(1.0 / (np.arange(1, J + 1) * np.pi) ** 2)
        assert abs(partial - 1.0 / 6.0) <= 1.01 / (np.pi**2 * J)
