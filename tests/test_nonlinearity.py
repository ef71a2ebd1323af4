import warnings

import numpy as np
import pytest
from average_loop import loop_average
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from slowfast import (
    GridTransform,
    LinearInY,
    PointwiseGeneral,
    PointwiseSquare,
    RunConfig,
    SchemeKind,
    averaged_force,
    dirichlet_spectrum,
    eval_F,
    pointwise_variance,
    run_trajectory_batch,
    sample_cylindrical_batch,
    saturating_square,
    solve_averaged_reference,
)

rng = np.random.default_rng(7771)

SPEC = dirichlet_spectrum(16)
GT = GridTransform(16)


class TestGridTransform:
    def test_round_trip_identity(self):
        for _ in range(5):
            c = rng.standard_normal(16)
            back = GT.to_coeffs(GT.to_grid(c))
            assert np.max(np.abs(back - c)) < 1e-10

    def test_synthesis_matches_direct_evaluation(self):
        c = rng.standard_normal(16)
        direct = np.zeros(GT.M)
        for j in range(16):
            direct += c[j] * np.sqrt(2.0) * np.sin((j + 1) * np.pi * GT.nodes)
        assert np.allclose(GT.to_grid(c), direct, atol=1e-12)

    def test_batched_shapes(self):
        c = rng.standard_normal((7, 16))
        g = GT.to_grid(c)
        assert g.shape == (7, GT.M)
        assert GT.to_coeffs(g).shape == (7, 16)

    def test_rows_per_block_depends_on_grid_size(self):
        # the largest power of two, at most 512, with rows*J*M <= 2^18
        assert [GridTransform(J).rows_per_block for J in (1, 8, 16, 32, 64, 128, 512)] == \
            [512, 512, 256, 64, 16, 4, 1]
        assert GridTransform(16, M=128).rows_per_block == 128

    @pytest.mark.parametrize("J", [1, 5, 16, 64])
    def test_pointwise_call_of_at_most_one_block_is_plain_product(self, J):
        gt = GridTransform(J)
        c = rng.standard_normal((gt.rows_per_block, J))
        for n in (1, 2, 7, gt.rows_per_block):
            plain = np.cos(c[:n] @ gt._synth) @ gt._analyze
            assert np.array_equal(gt.pointwise(np.cos, c[:n]), plain)

    @pytest.mark.parametrize("J", [3, 16, 64])
    def test_pointwise_maps_blocks_of_one_shape(self, J):
        gt = GridTransform(J)
        rows = gt.rows_per_block
        x, y = rng.standard_normal((2, 2 * rows + 3, J))

        def f(u, v):
            return u * v + v

        def plain(a, b):
            return gt.to_coeffs(f(gt.to_grid(a), gt.to_grid(b)))

        out = gt.pointwise(f, x, y)
        # full blocks, then the last `rows` rows, overlapping the block before
        assert np.array_equal(out[: 2 * rows], np.vstack([plain(x[:rows], y[:rows]),
                                                          plain(x[rows:2 * rows], y[rows:2 * rows])]))
        assert np.array_equal(out[-rows:], plain(x[-rows:], y[-rows:]))
        assert np.allclose(out, plain(x, y), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("J", [2, 16, 64])
    def test_pointwise_rows_do_not_depend_on_the_call_beyond_one_block(self, J):
        gt = GridTransform(J)
        rows = gt.rows_per_block
        c = rng.standard_normal((3 * rows + 5, J))

        def square(g):
            return 0.7 * g * g

        whole = gt.pointwise(square, c)
        for split in (rows + 1, 2 * rows - 1, 2 * rows + 2):
            parts = np.vstack([gt.pointwise(square, c[:split]), gt.pointwise(square, c[split:])])
            assert np.array_equal(parts, whole)

    def test_rejects_undersampled_grid(self):
        with pytest.raises(ValueError):
            GridTransform(16, M=32)

    def test_rejects_no_modes(self):
        with pytest.raises(ValueError, match="J must be >= 1"):
            GridTransform(0)

    def test_rejects_wrong_sizes(self):
        with pytest.raises(ValueError):
            GT.to_grid(np.ones(15))
        with pytest.raises(ValueError):
            GT.to_coeffs(np.ones(GT.M + 1))


class TestEvalF:
    def test_linear_in_y(self):
        y = np.zeros(16)
        y[0] = 1.0
        out = eval_F(LinearInY(c=2.0), None, np.zeros(16), y)
        assert out[0] == 2.0 and np.all(out[1:] == 0.0)

    def test_square_of_zero(self):
        out = eval_F(PointwiseSquare(c=1.0), GT, np.zeros(16), np.zeros(16))
        assert np.all(out == 0.0)

    def test_square_of_first_mode_against_integral(self):
        # projection of 2 sin^2(pi xi) on e_1; quadrature oracle first
        exact, quad_err = quad(
            lambda xi: 2 * np.sin(np.pi * xi) ** 2 * np.sqrt(2) * np.sin(np.pi * xi), 0, 1
        )
        assert abs(exact - 8 * np.sqrt(2) / (3 * np.pi)) < 1e-12
        assert quad_err < 1e-10
        e1 = np.zeros(16)
        e1[0] = 1.0
        val = eval_F(PointwiseSquare(c=1.0), GT, np.zeros(16), e1)[0]
        assert abs(val - exact) < 5e-7
        # quadrature error of the collocation projection decays with M
        val_fine = eval_F(PointwiseSquare(c=1.0), GridTransform(16, M=256), np.zeros(16), e1)[0]
        assert abs(val_fine - exact) < 1e-9

    def test_rejects_mismatched_fields(self):
        with pytest.raises(ValueError):
            eval_F(PointwiseSquare(1.0), GT, np.ones(16), np.ones(15))
        with pytest.raises(ValueError):
            eval_F(PointwiseSquare(1.0), GT, np.ones(8), np.ones(8))

    @pytest.mark.parametrize("n", [3, 512, 519, 1541])
    def test_broadcast_x_matches_repeated_rows(self, n):
        # one x against n rows of y: below, at and above one block (512 rows
        # at J = 8) and beyond three blocks
        gt = GridTransform(8)
        assert gt.rows_per_block == 512
        nl = PointwiseGeneral(f=lambda u, v: np.tanh(u) * v + v * v)
        x = rng.standard_normal(8)
        y = rng.standard_normal((n, 8))
        expected = eval_F(nl, gt, np.tile(x, (n, 1)), y)
        for shape in [(8,), (1, 8)]:
            assert np.array_equal(eval_F(nl, gt, x.reshape(shape), y), expected)

    def test_pointwise_needs_grid(self):
        with pytest.raises(ValueError):
            eval_F(PointwiseSquare(1.0), None, np.ones(16), np.ones(16))

    def test_rejects_unknown_coupling(self):
        with pytest.raises(TypeError, match="unknown nonlinearity"):
            eval_F(object(), GT, np.ones(16), np.ones(16))


class TestAveragedForce:
    def test_linear_in_y_averages_to_zero(self):
        for c in (-3.0, 0.5):
            x = rng.standard_normal(16)
            assert np.all(averaged_force(LinearInY(c), None, SPEC)(x) == 0.0)

    def test_square_average_is_truncated_variance_field(self):
        out = averaged_force(PointwiseSquare(2.5), GT, SPEC)(rng.standard_normal(16))
        expected = GT.to_coeffs(2.5 * pointwise_variance(SPEC, GT))
        assert np.allclose(out, expected, rtol=1e-14)

    def test_square_average_independent_of_x(self):
        a = averaged_force(PointwiseSquare(1.0), GT, SPEC)(rng.standard_normal(16))
        b = averaged_force(PointwiseSquare(1.0), GT, SPEC)(rng.standard_normal(16))
        assert np.array_equal(a, b)

    def test_midpoint_value_approaches_quarter(self):
        # sigma^2(1/2) -> 1/4 as J grows; tail of the odd harmonic series
        J = 401
        spec = dirichlet_spectrum(J)
        gt = GridTransform(J, M=4 * J + 1)  # odd M puts a node exactly at 1/2
        mid = np.argmin(np.abs(gt.nodes - 0.5))
        assert gt.nodes[mid] == 0.5
        sig2 = pointwise_variance(spec, gt)
        assert abs(sig2[mid] - 0.25) < 1.0 / (np.pi**2 * (J - 1))

    def test_pointwise_needs_grid(self):
        with pytest.raises(ValueError, match="need a GridTransform"):
            averaged_force(PointwiseSquare(1.0), None, SPEC)

    def test_rejects_unknown_coupling(self):
        with pytest.raises(TypeError, match="unknown nonlinearity"):
            averaged_force(object(), GT, SPEC)

    def test_general_square_matches_closed_form(self):
        nl = PointwiseGeneral(f=lambda u, v: v * v)
        x = rng.standard_normal(16)
        a = averaged_force(nl, GT, SPEC)(x)
        b = averaged_force(PointwiseSquare(1.0), GT, SPEC)(x)
        assert np.max(np.abs(a - b)) < 1e-12


# couplings for the loop oracle, each built from one coefficient c
ORACLE_COUPLINGS = {
    "ignores_u": lambda c: PointwiseGeneral(f=lambda u, v: c * np.cos(v) * v),
    "ignores_v": lambda c: PointwiseGeneral(f=lambda u, v: c * np.tanh(u)),
    "scalar": lambda c: PointwiseGeneral(f=lambda u, v: c),
    "u_and_v": lambda c: PointwiseGeneral(f=lambda u, v: np.exp(-u * u) * np.cos(c * v) + u * v),
    "saturating": saturating_square,
}


class TestAveragedForceAgainstLoop:
    """The stacked average equals the per-node loop bit for bit."""

    @pytest.mark.parametrize("J", [4, 16, 64])
    @pytest.mark.parametrize("coupling", sorted(ORACLE_COUPLINGS))
    @settings(max_examples=8, deadline=None, database=None)
    @given(rows=st.integers(1, 2048), c=st.floats(-10.0, 10.0), scale=st.floats(1e-3, 1e2),
           seed=st.integers(0, 2**32))
    def test_bit_identical_to_loop(self, J, coupling, rows, c, scale, seed):
        # a drawn row count, and every batch shape that pointwise handles apart:
        # 1-D, a few rows, one whole block, one block plus a row, many blocks
        spec, gt = dirichlet_spectrum(J), GridTransform(J)
        nl = ORACLE_COUPLINGS[coupling](c)
        stacked, loop = averaged_force(nl, gt, spec), loop_average(nl, gt, spec)
        rng = np.random.default_rng(seed)
        for shape in [(J,), *((n, J) for n in (rows, 1, 2, 7, gt.rows_per_block,
                                               gt.rows_per_block + 1, 2048))]:
            x = scale * rng.standard_normal(shape)
            got = stacked(x)
            assert got.shape == shape
            assert np.array_equal(got, loop(x))


U_FREE = ["ignores_u", "saturating", "scalar"]  # couplings whose f does not read u


def counted(nl):
    """nl with its f wrapped, and the list that f appends one entry to per call."""
    calls = []

    def f(u, v):
        calls.append(np.shape(u))
        return nl.f(u, v)

    return PointwiseGeneral(f=f), calls


class TestAveragedForceOncePerShape:
    """A coupling whose f does not read u is averaged once per input shape."""

    @pytest.mark.parametrize("coupling", sorted(ORACLE_COUPLINGS))
    def test_calls_over_an_averaged_run(self, coupling):
        nl, calls = counted(ORACLE_COUPLINGS[coupling](1.5))
        cfg = RunConfig(T=1.0, N=64, eps=1.0, scheme=SchemeKind.AVERAGED, x0=np.ones(16),
                        y0=np.zeros(16))
        run_trajectory_batch(cfg, SPEC, nl, GT, 0, 0, 1)
        if coupling in U_FREE:
            assert len(calls) <= 2  # the probe, then the one shape (1, 16)
        else:
            assert len(calls) == 1 + cfg.N  # the probe, then one call per step

    @pytest.mark.parametrize("coupling", sorted(ORACLE_COUPLINGS))
    def test_calls_over_the_averaged_reference(self, coupling):
        nl, calls = counted(ORACLE_COUPLINGS[coupling](1.5))
        solve_averaged_reference(SPEC, nl, np.ones(16), 1.0, GT)
        if coupling in U_FREE:
            assert len(calls) <= 2
        else:
            assert len(calls) > 2  # one per right-hand side LSODA evaluates

    @pytest.mark.parametrize("coupling", sorted(ORACLE_COUPLINGS))
    @pytest.mark.parametrize("shape", [(16,), (3, 16), (GT.rows_per_block + 1, 16)])
    def test_every_call_equals_the_loop(self, coupling, shape):
        # two different x of one shape: a value kept across calls must be x's own, and
        # overwriting a returned value, as Transition.step does, must not reach the next one
        nl = ORACLE_COUPLINGS[coupling](0.7)
        fbar, loop = averaged_force(nl, GT, SPEC), loop_average(nl, GT, SPEC)
        for scale in (0.5, 3.0):
            x = scale * rng.standard_normal(shape)
            got = fbar(x)
            assert np.array_equal(got, loop(x))
            got[...] = np.nan

    def test_probe_of_f_raises_no_warning(self):
        # the probe's u is zero, so v/u divides by zero there: the build must stay quiet
        nl = PointwiseGeneral(f=lambda u, v: v / u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fbar = averaged_force(nl, GT, SPEC)
            x = 1.0 + rng.random(16)
            assert np.array_equal(fbar(x), loop_average(nl, GT, SPEC)(x))


class TestPointwiseVariance:
    def test_rejects_grid_of_another_J(self):
        with pytest.raises(ValueError, match="disagree on J"):
            pointwise_variance(SPEC, GridTransform(8))

    def test_matches_bruteforce_sum(self):
        sig2 = pointwise_variance(SPEC, GT)
        for m in (0, 5, GT.M - 1):
            xi = GT.nodes[m]
            brute = sum(2 * np.sin(j * np.pi * xi) ** 2 / (j * np.pi) ** 2 for j in range(1, 17))
            assert abs(sig2[m] - brute) < 1e-14

    def test_truncation_error_decays_like_one_over_J(self):
        xi = np.linspace(0, 1, 2001)[1:-1]
        sup = {}
        for J in (8, 16, 32, 64):
            j = np.arange(1, J + 1)[:, None]
            s = (2 * np.sin(j * np.pi * xi) ** 2 / (j * np.pi) ** 2).sum(axis=0)
            sup[J] = np.max(np.abs(s - xi * (1 - xi)))
        assert sup[8] > sup[16] > sup[32] > sup[64]
        for J in (8, 16, 32):
            assert 0.375 <= sup[2 * J] / sup[J] <= 0.625


class TestStatisticalProperties:
    N_DRAWS = 100_000

    @pytest.mark.parametrize(
        "nl",
        [LinearInY(1.3), PointwiseSquare(1.0), saturating_square(2.0)],
        ids=["linear", "square", "saturating"],
    )
    def test_centering_of_fbar(self, nl):
        # Monte Carlo average of F(x, Y) over Y ~ N(0, Lambda^-1) must match
        # Fbar(x) within 4 standard errors per coefficient
        x = rng.standard_normal(16) * 0.5
        y = sample_cylindrical_batch(SPEC, 4242, 0, 0, self.N_DRAWS)
        y = y / np.sqrt(SPEC.lambdas)
        vals = eval_F(nl, GT, np.broadcast_to(x, y.shape), y)
        mc = np.mean(vals, axis=0)
        se = np.std(vals, axis=0, ddof=1) / np.sqrt(self.N_DRAWS)
        target = averaged_force(nl, GT, SPEC)(x)
        assert np.all(np.abs(mc - target) <= 4 * se + 1e-12)

    @pytest.mark.parametrize(
        "nl, L",
        [(LinearInY(1.3), 1.3), (saturating_square(2.0), 2.0)],
        ids=["linear", "saturating"],
    )
    def test_Lipschitz_in_fast_variable(self, nl, L):
        # |c| bounds |F(x, y2) - F(x, y1)| / |y2 - y1|
        x = rng.standard_normal(16)
        for _ in range(1000):
            y1 = rng.standard_normal(16) * 10 ** rng.uniform(-2, 1)
            y2 = rng.standard_normal(16) * 10 ** rng.uniform(-2, 1)
            d_out = np.linalg.norm(eval_F(nl, GT, x, y2) - eval_F(nl, GT, x, y1))
            assert d_out <= L * np.linalg.norm(y2 - y1) * (1 + 1e-9)
