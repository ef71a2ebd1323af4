import math

import numpy as np
import pytest
from covariance_ode import ode_moments
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from slowfast import (
    Affine,
    FunctionalKind,
    FunctionalSpec,
    GridTransform,
    LinearInY,
    ModeMoments,
    OracleMode,
    PointwiseGeneral,
    RunConfig,
    SchemeKind,
    SpectrumSpec,
    ap_diagram,
    averaging_curve,
    continuous_weak_value,
    dirichlet_spectrum,
    evaluate_functional,
    fit_rate,
    gaussian_expectation,
    invariant_measure_check,
    mc_estimate,
    oracle_weak_value,
    quadratic_spectrum,
    trajectory,
    uniform_sweep,
    weak_error_curve,
)

rng = np.random.default_rng(5150)

SPEC = dirichlet_spectrum(16)
NL = LinearInY(c=1.0)
PHI_NORM = FunctionalSpec(kind=FunctionalKind.NORM_SQUARED)
PHI_EXP = FunctionalSpec(kind=FunctionalKind.BOUNDED_EXP)


def coupled_config(T=0.5, N=16, eps=0.5, scheme=SchemeKind.COUPLED_MODIFIED, x0=None, y0=None):
    return RunConfig(T=T, N=N, eps=eps, scheme=scheme,
                     x0=1.0 / SPEC.lambdas if x0 is None else x0,
                     y0=np.ones(16) if y0 is None else y0)


class TestFunctionals:
    def test_linear(self):
        h = rng.standard_normal(16)
        phi = FunctionalSpec(kind=FunctionalKind.LINEAR, h=h)
        x = rng.standard_normal((5, 16))
        assert np.allclose(evaluate_functional(phi, x), x @ h)

    def test_norm_squared_and_bounded_exp(self):
        x = rng.standard_normal(16)
        assert evaluate_functional(PHI_NORM, x) == pytest.approx(np.sum(x * x))
        assert evaluate_functional(PHI_EXP, x) == pytest.approx(np.exp(-np.sum(x * x)))

    def test_linear_requires_weights(self):
        with pytest.raises(ValueError):
            FunctionalSpec(kind=FunctionalKind.LINEAR)

    def test_gaussian_expectation_against_quadrature(self):
        mean = rng.standard_normal(4) * 0.5
        var = rng.uniform(0.01, 0.5, 4)
        # independent-mode product, each factor integrated numerically
        target = 1.0
        for m, v in zip(mean, var):
            val, err = quad(
                lambda z, m=m, v=v: np.exp(-z * z) * np.exp(-((z - m) ** 2) / (2 * v))
                / np.sqrt(2 * np.pi * v),
                -12, 12)
            assert err < 1e-8
            target *= val
        phi = FunctionalSpec(kind=FunctionalKind.BOUNDED_EXP)
        got = gaussian_expectation(phi, mean, var)
        assert got == pytest.approx(target, rel=1e-9)

    def test_gaussian_expectation_against_sampling(self):
        mean = rng.standard_normal(6) * 0.3
        var = rng.uniform(0.01, 0.3, 6)
        n = 200_000
        z = rng.standard_normal((n, 6)) * np.sqrt(var) + mean
        for phi in (PHI_NORM, PHI_EXP, FunctionalSpec(FunctionalKind.LINEAR, h=np.ones(6))):
            vals = evaluate_functional(phi, z)
            se = np.std(vals, ddof=1) / math.sqrt(n)
            assert abs(np.mean(vals) - gaussian_expectation(phi, mean, var)) < 4 * se

    def test_norm_squared_is_flagged_oracle_only(self):
        assert PHI_NORM.oracle_only and not PHI_EXP.oracle_only


class TestMcEstimate:
    def test_constant_functional_has_zero_stderr(self):
        phi = FunctionalSpec(kind=FunctionalKind.LINEAR, h=np.zeros(16))
        est = mc_estimate(coupled_config(), phi, 50, 0, SPEC, NL)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_deterministic_path_matches_closed_form(self):
        h = np.zeros(16)
        h[0] = 1.0
        phi = FunctionalSpec(kind=FunctionalKind.LINEAR, h=h)
        cfg = coupled_config(x0=np.ones(16), y0=np.ones(16))
        est = mc_estimate(cfg, phi, 20, 3, SPEC, LinearInY(c=0.0))
        closed = (1.0 + cfg.dt * SPEC.lambdas[0]) ** (-cfg.N)
        assert est.mean == pytest.approx(closed, rel=1e-12)
        assert est.stderr < 1e-15  # deterministic path, only summation rounding

    def test_agrees_with_moment_oracle(self):
        cfg = coupled_config(N=8)
        est = mc_estimate(cfg, PHI_NORM, 20_000, 11, SPEC, NL)
        exact = oracle_weak_value(cfg, PHI_NORM, SPEC, NL)
        assert abs(est.mean - exact) < 4 * est.stderr

    def test_thread_and_batch_invariance(self):
        cfg = coupled_config(N=4)
        a = mc_estimate(cfg, PHI_NORM, 3000, 7, SPEC, NL, n_threads=1, batch=3000)
        b = mc_estimate(cfg, PHI_NORM, 3000, 7, SPEC, NL, n_threads=4, batch=500)
        c = mc_estimate(cfg, PHI_NORM, 3000, 7, SPEC, NL, n_threads=2, batch=701)
        assert a == b == c

    def test_non_finite_sample_raises_with_its_address(self):
        # a coupling that blows up: about half of the samples overflow
        J = 4
        spec, gt = dirichlet_spectrum(J), GridTransform(J)
        nl = PointwiseGeneral(f=lambda u, v: 20.0 * u * u * v * v)
        cfg = RunConfig(T=1.0, N=16, eps=1.0, scheme=SchemeKind.LIMITING, x0=np.full(J, 3.0),
                        y0=np.zeros(J))
        phi = FunctionalSpec(kind=FunctionalKind.LINEAR, h=np.eye(J)[0])
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError) as info:
                mc_estimate(cfg, phi, 64, 3, spec, nl, gt, batch=16)
            states = [x for x, _ in trajectory(cfg, spec, nl, gt, 3, 0, 1)]
        finite = [bool(np.isfinite(x).all()) for x in states]
        step = finite.index(False)
        assert "(master_seed, sample) = (3, 0)" in str(info.value)
        assert f"first non-finite at step {step} of 16" in str(info.value)
        assert 0 < step and all(finite[:step])

    def test_overflowing_phi_of_finite_state_raises(self):
        cfg = RunConfig(T=0.1, N=1, eps=1.0, scheme=SchemeKind.LIMITING, x0=np.full(16, 1e170),
                        y0=np.zeros(16))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=r"\(7, 0\): its trajectory is finite"):
                mc_estimate(cfg, PHI_NORM, 4, 7, SPEC, LinearInY(c=0.0))

    def test_stderr_scaling(self):
        cfg = coupled_config(N=4)
        small = mc_estimate(cfg, PHI_NORM, 4000, 1, SPEC, NL)
        large = mc_estimate(cfg, PHI_NORM, 16000, 1, SPEC, NL)
        ratio = small.stderr / large.stderr
        assert 1.6 <= ratio <= 2.4  # halves within 20% when n quadruples


class TestWeakErrorCurve:
    def test_uncoupled_errors_match_scalar_closed_form(self):
        h = np.ones(16)
        phi = FunctionalSpec(kind=FunctionalKind.LINEAR, h=h)
        cfg = coupled_config(T=1.0, x0=np.ones(16), y0=np.ones(16))
        pts = weak_error_curve(cfg, [2.0**-k for k in range(2, 7)], phi, SPEC, LinearInY(0.0))
        for p in pts:
            N = int(round(1.0 / p.dt))
            expected = abs(np.sum((1 + p.dt * SPEC.lambdas) ** (-N) - np.exp(-SPEC.lambdas)))
            assert p.error == pytest.approx(expected, rel=1e-11)
            assert p.stderr == 0.0 and p.oracle_bias == 0.0

    def test_bit_identical_reruns(self):
        cfg = coupled_config(T=0.5)
        dts = [2.0**-k for k in range(3, 8)]
        a = weak_error_curve(cfg, dts, PHI_NORM, SPEC, NL)
        b = weak_error_curve(cfg, dts, PHI_NORM, SPEC, NL)
        assert [p.error for p in a] == [p.error for p in b]

    def test_rejects_non_integer_step_count(self):
        cfg = coupled_config(T=1.0)
        with pytest.raises(ValueError):
            weak_error_curve(cfg, [0.3, 0.1], PHI_NORM, SPEC, NL)

    def test_rejects_non_decreasing_ladder(self):
        cfg = coupled_config(T=1.0)
        with pytest.raises(ValueError):
            weak_error_curve(cfg, [0.25, 0.25], PHI_NORM, SPEC, NL)

    def test_refined_reference_mode_consistency(self):
        # doubling the sample count moves each point by < 3 combined stderr
        spec = dirichlet_spectrum(4)
        nl = LinearInY(c=1.0)
        cfg = RunConfig(T=0.25, N=4, eps=0.5, scheme=SchemeKind.COUPLED_MODIFIED,
                        x0=np.ones(4), y0=np.ones(4))
        dts = [2.0**-3, 2.0**-4]
        a = weak_error_curve(cfg, dts, PHI_EXP, spec, nl, oracle=OracleMode.REFINED_REFERENCE,
                             n_samples=2000, master_seed=0, refinement=16)
        b = weak_error_curve(cfg, dts, PHI_EXP, spec, nl, oracle=OracleMode.REFINED_REFERENCE,
                             n_samples=4000, master_seed=0, refinement=16)
        for pa, pb in zip(a, b):
            assert abs(pa.error - pb.error) < 3 * (pa.stderr + pb.stderr)
            assert pa.oracle_bias > 0.0  # exact bias reported for linear coupling


class TestFitRate:
    def test_exact_half_order(self):
        dts = [2.0**-k for k in range(2, 8)]
        fit = fit_rate([(d, d**0.5) for d in dts])
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_linear_with_prefactor(self):
        dts = [2.0**-k for k in range(2, 8)]
        fit = fit_rate([(d, 3.0 * d) for d in dts])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)

    def test_jittered_slope_recovery(self):
        dts = [2.0**-k for k in range(2, 12)]
        jitter = 1.0 + 0.01 * rng.standard_normal(len(dts))
        fit = fit_rate([(d, 0.7 * d**0.75 * j) for d, j in zip(dts, jitter)])
        assert abs(fit.slope - 0.75) < 0.02

    def test_drop_coarsest(self):
        dts = [0.5, 0.25, 0.125, 0.0625]
        pts = [(d, d) for d in dts]
        pts[0] = (0.5, 17.0)  # corrupt the coarsest point
        fit = fit_rate(pts, drop_coarsest=True)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert len(fit.points) == 3

    def test_rejects_nonpositive_errors(self):
        with pytest.raises(ValueError, match="noise floor"):
            fit_rate([(0.5, 1.0), (0.25, 0.0), (0.125, 0.1)])
        with pytest.raises(ValueError):
            fit_rate([(0.5, 1.0), (0.25, 0.5)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_errors(self, bad):
        with pytest.raises(ValueError, match="finite"):
            fit_rate([(0.1, bad), (0.05, 1.0), (0.025, 0.5)])


class TestApDiagram:
    def test_gap_decreases_along_eps_ladder(self):
        cfg = coupled_config(T=1.0, N=64)
        rows = ap_diagram(cfg, [4.0**-k for k in range(0, 5)], PHI_NORM, SPEC, NL)
        gaps = [g for _, g, _ in rows]
        # monotone trend, allowing one noise-floor inversion (here noise-free)
        assert gaps[0] > gaps[-1]
        assert sum(a < b for a, b in zip(gaps, gaps[1:])) <= 1

    def test_y_independent_coupling_gives_zero_gap(self):
        nl = Affine(c_x=0.5, c_y=0.0)
        h = np.ones(16)
        phi = FunctionalSpec(kind=FunctionalKind.LINEAR, h=h)
        cfg = coupled_config(T=0.5, N=8)
        rows = ap_diagram(cfg, [1.0, 0.01], phi, SPEC, nl, n_samples=64, master_seed=5)
        for _, gap, se in rows:
            assert gap == 0.0
            assert se < 1e-15

    def test_stiff_limit_fast_variance(self):
        # one-step fast variance at tau = dt/eps with eps = 1e-8 sits at
        # 1/lambda to within 1e-6 relative
        from slowfast import Transition

        dt = 2.0**-6
        s2 = Transition(SchemeKind.COUPLED_MODIFIED, SPEC.lambdas, dt, 1e-8).s2
        assert np.max(np.abs(s2 * SPEC.lambdas - 1.0)) < 1e-6


class TestAveragingCurve:
    def test_small_ladder_rate(self):
        cfg = RunConfig(T=0.5, N=2**10, eps=1.0, scheme=SchemeKind.COUPLED_EXPO,
                        x0=np.zeros(16), y0=np.ones(16))
        rows = averaging_curve([2.0**-k for k in range(2, 8)], cfg, PHI_NORM, SPEC, NL)
        fit = fit_rate(rows)
        assert fit.slope > 0.8

    def test_requires_linear_coupling(self):
        cfg = coupled_config()
        with pytest.raises(ValueError):
            averaging_curve([0.5, 0.25], cfg, PHI_NORM, SPEC, Affine(1.0, 1.0))


class TestInvariantCheck:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(-8.0, 8.0), st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=8))
    def test_fixed_point_residuals(self, log_tau, log_lams):
        # the modified map fixes 1/lam to rounding; the standard map
        # v -> a^2 v + 2 tau a^2 has fixed point 2/(lam(2+tau*lam)), so its
        # relative residual of 1/lam is z^2/(1+z)^2 with z = tau*lam, computed
        # as |a^2 (1 + 2 z) - 1|, which cancels to about 1e-16 at small z
        tau = 10.0**log_tau
        lams = np.sort(10.0 ** np.array(log_lams))
        rep = invariant_measure_check(SpectrumSpec(len(lams), lams), [tau])
        z = tau * lams
        assert rep.residual_modified.max() < 1e-14
        assert np.allclose(rep.residual_standard[0], z**2 / (1 + z) ** 2, rtol=1e-10, atol=1e-15)

    def test_standard_map_fails_at_unit_taulambda(self):
        rep = invariant_measure_check(SPEC, [1.0])
        assert np.all(np.abs(rep.standard_at_unit - 0.25) < 1e-13)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            invariant_measure_check(SPEC, [1.0, -1.0])


class TestUniformSweep:
    def test_small_sweep_shape_and_determinism(self):
        spec = quadratic_spectrum(8)
        nl = LinearInY(1.0)
        cfg = RunConfig(T=0.5, N=8, eps=1.0, scheme=SchemeKind.COUPLED_MODIFIED,
                        x0=1.0 / spec.lambdas, y0=np.ones(8))
        res = uniform_sweep(cfg, [1.0, 2.0**-4], [2.0**-3, 2.0**-4, 2.0**-5], PHI_NORM, spec, nl,
                            refinement=64)
        assert res.errors.shape == (3, 2)
        assert np.all(res.max_errors >= res.errors.max(axis=1) - 1e-300)
        assert np.all(res.reference_bias >= 0.0)
        res2 = uniform_sweep(cfg, [1.0, 2.0**-4], [2.0**-3, 2.0**-4, 2.0**-5], PHI_NORM, spec, nl,
                             refinement=64)
        assert np.array_equal(res.errors, res2.errors)

    def test_rejects_bad_dt(self):
        cfg = coupled_config(T=1.0)
        with pytest.raises(ValueError):
            uniform_sweep(cfg, [1.0], [0.3], PHI_NORM, SPEC, NL)


class TestContinuousWeakValue:
    def test_methods_agree(self):
        # the matrix-exponential value against the Radau oracle's moments
        cfg = coupled_config(N=32, eps=0.5)
        a = continuous_weak_value(cfg, PHI_NORM, SPEC, NL)
        mom = ode_moments(SPEC.lambdas, NL.c, cfg.eps, cfg.T,
                          ModeMoments(mean_x=cfg.x0, mean_y=cfg.y0))
        b = gaussian_expectation(PHI_NORM, mom.mean_x, mom.var_x)
        assert a == pytest.approx(b, abs=1e-8)
