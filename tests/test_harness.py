import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from covariance_ode import ode_moments
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from slowfast import (
    FunctionalKind,
    FunctionalSpec,
    GridTransform,
    LinearInY,
    ModeMoments,
    PointwiseGeneral,
    PointwiseSquare,
    RunConfig,
    SchemeKind,
    SpectrumSpec,
    Transition,
    ap_diagram,
    averaging_curve,
    continuous_second_moment,
    continuous_weak_value,
    dirichlet_spectrum,
    evaluate_functional,
    fit_rate,
    gaussian_expectation,
    invariant_measure_check,
    mc_estimate,
    oracle_weak_value,
    oracle_weak_values,
    quadratic_spectrum,
    run_trajectory_batch,
    saturating_square,
    solve_averaged_reference,
    trajectory,
    uniform_sweep,
    weak_error_curve,
)
from slowfast import harness
from slowfast.harness import (
    AVERAGING_STEPS, SWEEP_REFINEMENT, WeakErrorPoint, _gap, _phi_samples, _replay,
)
from slowfast.spectral import ArgumentError, check_positive

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

    def test_linear_weights_of_the_wrong_shape_raise(self):
        # numpy would broadcast a length-1 h over every mode and return the sum of all modes
        with pytest.raises(ValueError, match="1-D"):
            FunctionalSpec(kind=FunctionalKind.LINEAR, h=np.ones((1, 16)))
        phi = FunctionalSpec(kind=FunctionalKind.LINEAR, h=[1.0])
        with pytest.raises(ValueError, match="weight field h has 1 entries"):
            evaluate_functional(phi, np.ones((2, 16)))
        with pytest.raises(ValueError, match="weight field h has 1 entries"):
            gaussian_expectation(phi, np.ones(16), np.ones(16))

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

    def test_limiting_mean_is_the_averaged_state_for_the_saturating_square(self):
        # the fresh equilibrium draw of every LIMITING step averages F to Fbar,
        # a constant field here, so E x_N is the AVERAGED x_N; on the quadratic
        # spectrum the grid variance reaches 2.4, where a 12-node Gauss-Hermite
        # Fbar puts the AVERAGED value 33 standard errors off
        J = 16
        spec, gt, nl = quadratic_spectrum(J), GridTransform(J), saturating_square(1.0)
        x0 = np.zeros(J)
        x0[0] = 10.0
        cfg = RunConfig(T=1.0, N=16, eps=1.0, scheme=SchemeKind.LIMITING, x0=x0,
                        y0=np.zeros(J))
        phi = FunctionalSpec(kind=FunctionalKind.LINEAR, h=np.eye(J)[0])
        est = mc_estimate(cfg, phi, 10_000, 11, spec, nl, gt)
        averaged = oracle_weak_value(replace(cfg, scheme=SchemeKind.AVERAGED), phi, spec, nl, gt)
        assert abs(est.mean - averaged) <= 4 * est.stderr

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
            states = [x.copy() for x, _ in trajectory(cfg, spec, nl, gt, 3, 0, 1)]
        finite = [bool(np.isfinite(x).all()) for x in states]
        step = finite.index(False)
        assert "(master_seed, sample) = (3, 0)" in str(info.value)
        assert f"first non-finite at step {step} of 16" in str(info.value)
        assert 0 < step and all(finite[:step])

    @pytest.mark.parametrize("batch", [2048, 256])
    def test_replay_is_the_sampled_row_bit_for_bit(self, batch):
        # the pointwise square's collocation product rounds a row differently
        # with the number of rows, so a one-sample replay would not be the
        # sampled path; the replay reruns the sample's own span
        J, n, seed = 16, 600, 4
        spec, gt, nl = dirichlet_spectrum(J), GridTransform(J), PointwiseSquare(1.0)
        cfg = RunConfig(T=1.0, N=16, eps=1.0, scheme=SchemeKind.LIMITING, x0=np.ones(J),
                        y0=np.zeros(J))
        phi = FunctionalSpec(kind=FunctionalKind.LINEAR, h=np.ones(J))
        vals = _phi_samples(cfg, phi, n, seed, spec, nl, gt, 1, batch)
        batch_rows = run_trajectory_batch(cfg, spec, nl, gt, seed, 0, n)
        for sample in (0, 1, 255, 256, 300, 511, 512, 599):
            *_, (x, y) = _replay(cfg, spec, nl, gt, seed, sample, n, batch)
            assert y is None
            assert evaluate_functional(phi, x) == vals[sample]
            if batch > n:
                assert np.array_equal(x, batch_rows[sample])

    def test_overflowing_phi_of_finite_state_raises(self):
        cfg = RunConfig(T=0.1, N=1, eps=1.0, scheme=SchemeKind.LIMITING, x0=np.full(16, 1e170),
                        y0=np.zeros(16))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=r"\(7, 0\): its trajectory is finite"):
                mc_estimate(cfg, PHI_NORM, 4, 7, SPEC, LinearInY(c=0.0))

    @pytest.mark.parametrize("batch", [0, -3])
    def test_rejects_batch_below_one(self, batch):
        with pytest.raises(ValueError, match="batch"):
            mc_estimate(coupled_config(), PHI_NORM, 10, 0, SPEC, NL, batch=batch)

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

    def test_rejects_non_finite_step_size_by_name(self):
        # NaN passes the ladder's order check, and an infinite dt used to fail as
        # "N must be a positive integer"
        for dts, bad in (([0.5, math.nan, 0.25], "nan"), ([math.inf, 0.5, 0.25], "inf")):
            message = f"^argument 'dt' = {bad} must be positive and finite$"
            with pytest.raises(ValueError, match=message):
                weak_error_curve(coupled_config(T=1.0), dts, PHI_NORM, SPEC, NL)

    def test_rejects_non_decreasing_ladder(self):
        cfg = coupled_config(T=1.0)
        with pytest.raises(ValueError):
            weak_error_curve(cfg, [0.25, 0.25], PHI_NORM, SPEC, NL)

    def test_refined_reference_mode_consistency(self):
        # a pointwise coupling has no exact truth, so Monte Carlo measures it
        # against the refined reference; doubling the sample count moves each
        # point by < 3 combined stderr
        spec, gt, nl = dirichlet_spectrum(4), GridTransform(4), PointwiseSquare(c=1.0)
        cfg = RunConfig(T=0.25, N=4, eps=0.5, scheme=SchemeKind.COUPLED_MODIFIED,
                        x0=np.ones(4), y0=np.ones(4))
        dts = [2.0**-3, 2.0**-4]
        a = weak_error_curve(cfg, dts, PHI_EXP, spec, nl, gt, n_samples=2000, master_seed=0)
        b = weak_error_curve(cfg, dts, PHI_EXP, spec, nl, gt, n_samples=4000, master_seed=0)
        for pa, pb in zip(a, b):
            assert abs(pa.error - pb.error) < 3 * (pa.stderr + pb.stderr)
            assert pa.oracle_bias > 0.0  # the refinement-halving estimate

    @pytest.mark.parametrize("scheme", [SchemeKind.COUPLED_MODIFIED, SchemeKind.COUPLED_EXPO])
    def test_linear_in_y_monte_carlo_is_measured_against_the_continuous_law(self, scheme):
        # an exact truth exists, so no refined reference leg: |MC mean - truth|
        # with the plain stderr, within 4 stderr of the noise-free curve
        spec, nl = dirichlet_spectrum(4), LinearInY(c=1.0)
        cfg = RunConfig(T=0.25, N=4, eps=0.5, scheme=scheme, x0=np.ones(4), y0=np.ones(4))
        dts = [2.0**-2, 2.0**-3, 2.0**-4]
        truth = continuous_weak_value(cfg, PHI_EXP, spec, nl)
        mc = weak_error_curve(cfg, dts, PHI_EXP, spec, nl, n_samples=2000, master_seed=0)
        exact = weak_error_curve(cfg, dts, PHI_EXP, spec, nl)
        for p, q in zip(mc, exact):
            est = mc_estimate(replace(cfg, N=round(cfg.T / p.dt)), PHI_EXP, 2000, 0, spec, nl)
            assert p.error == abs(est.mean - truth)
            assert p.stderr == est.stderr and p.oracle_bias == 0.0
            assert abs(p.error - q.error) < 4 * p.stderr

    @pytest.mark.parametrize("scheme", [SchemeKind.LIMITING, SchemeKind.AVERAGED])
    def test_uncoupled_scheme_is_measured_against_the_averaged_solution(self, scheme):
        # no fast state, so no refined reference leg: |MC mean - phi(xbar(T))|
        spec, gt, nl = dirichlet_spectrum(4), GridTransform(4), PointwiseSquare(1.0)
        cfg = RunConfig(T=0.25, N=4, eps=1.0, scheme=scheme, x0=np.ones(4), y0=np.ones(4))
        phi = FunctionalSpec(kind=FunctionalKind.LINEAR, h=np.ones(4))
        truth = float(evaluate_functional(phi, solve_averaged_reference(spec, nl, cfg.x0, 0.25,
                                                                        gt)))
        (point,) = weak_error_curve(cfg, [0.0625], phi, spec, nl, gt, n_samples=500,
                                    master_seed=3)
        est = mc_estimate(cfg, phi, 500, 3, spec, nl, gt)
        if scheme == SchemeKind.AVERAGED:
            # draws no noise, so its side is exact at any n_samples: its 500
            # identical samples would only add rounding
            exact = oracle_weak_value(cfg, phi, spec, nl, gt)
            assert abs(est.mean - exact) <= 1e-15 and est.stderr <= 1e-15
            est = harness.McEstimate(mean=exact, stderr=0.0, n_samples=1)
        assert point.error == abs(est.mean - truth)
        assert point.stderr == est.stderr and point.oracle_bias == 0.0

    def test_refined_reference_stderr_is_paired(self, monkeypatch):
        # whatever the coupled scheme, the measured leg and the COUPLED_EXPO
        # reference draw the same field at steps 0..N-1 from one seed, so their
        # phi values correlate and the stderr of the per-sample differences is
        # below the independent-legs hypot; the error and the bias are
        # differences of plain MC means
        monkeypatch.setattr(harness, "REFERENCE_REFINEMENT", 4)
        spec, gt, nl = dirichlet_spectrum(4), GridTransform(4), PointwiseSquare(c=1.0)
        for scheme in (SchemeKind.COUPLED_EXPO, SchemeKind.COUPLED_MODIFIED):
            cfg = RunConfig(T=0.25, N=4, eps=0.5, scheme=scheme, x0=np.ones(4), y0=np.ones(4))
            (point,) = weak_error_curve(cfg, [0.0625], PHI_EXP, spec, nl, gt, n_samples=4000,
                                        master_seed=0)
            est = mc_estimate(cfg, PHI_EXP, 4000, 0, spec, nl, gt)
            ref_cfg = replace(cfg, scheme=SchemeKind.COUPLED_EXPO)
            ref = mc_estimate(replace(ref_cfg, N=16), PHI_EXP, 4000, 0, spec, nl, gt)
            half = mc_estimate(replace(ref_cfg, N=8), PHI_EXP, 4000, 0, spec, nl, gt)
            assert point.error == abs(est.mean - ref.mean)
            assert point.oracle_bias == abs(half.mean - ref.mean)
            assert 0.0 < point.stderr < math.hypot(est.stderr, ref.stderr)

    def test_one_sampled_reference_at_the_finest_step(self, monkeypatch):
        # a pointwise coupling in a coupled scheme samples one truth for the
        # whole ladder: the exact-transition scheme at the finest dt refined R
        # times, and again at R/2 for the bias, so K step sizes sample K + 2
        # configs, and every point shares the one bias estimate
        spec, gt, nl = dirichlet_spectrum(4), GridTransform(4), PointwiseSquare(c=1.0)
        cfg = RunConfig(T=0.25, N=4, eps=0.5, scheme=SchemeKind.COUPLED_MODIFIED,
                        x0=np.ones(4), y0=np.ones(4))
        dts, R, n, seed = [2.0**-2, 2.0**-3, 2.0**-4], 4, 1000, 7
        sampled = []

        def counting(config, *args, **kwargs):
            sampled.append(config)
            return _phi_samples(config, *args, **kwargs)

        monkeypatch.setattr(harness, "_phi_samples", counting)
        monkeypatch.setattr(harness, "REFERENCE_REFINEMENT", R)
        points = weak_error_curve(cfg, dts, PHI_EXP, spec, nl, gt, n_samples=n,
                                  master_seed=seed)
        monkeypatch.undo()
        assert len(sampled) == len(dts) + 2

        def samples(scheme, N):
            return _phi_samples(replace(cfg, scheme=scheme, N=N), PHI_EXP, n, seed, spec, nl, gt,
                                1)

        ref = samples(SchemeKind.COUPLED_EXPO, 4 * R)  # the finest dt has N = 4
        half = samples(SchemeKind.COUPLED_EXPO, 2 * R)
        for p in points:
            est = samples(SchemeKind.COUPLED_MODIFIED, round(cfg.T / p.dt))
            assert (p.error, p.stderr) == _gap(est, ref)
            assert p.oracle_bias == abs(np.mean(half) - np.mean(ref))

    @pytest.mark.parametrize("nl", [saturating_square(1.0), PointwiseSquare(1.0),
                                    PointwiseGeneral(f=lambda u, v: np.tanh(u) * v * v)],
                             ids=["saturating_square", "PointwiseSquare", "reads_u"])
    def test_averaged_scheme_is_exact_under_any_coupling(self, nl):
        # AVERAGED draws no noise, so at n_samples = 0 one run per step size is
        # exact; 600 identical samples span two collocation blocks, whose
        # products round differently from a one-row product and row by row,
        # so the errors agree to rounding of the truth, not bit for bit, and
        # the sampled stderr is rounding, not 0
        spec, gt = dirichlet_spectrum(4), GridTransform(4)
        cfg = RunConfig(T=0.25, N=4, eps=0.5, scheme=SchemeKind.AVERAGED,
                        x0=np.linspace(1.0, 2.0, 4), y0=np.ones(4))
        dts = [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6]
        xbar = solve_averaged_reference(spec, nl, cfg.x0, cfg.T, gt)
        scale = abs(float(evaluate_functional(PHI_EXP, xbar)))
        exact = weak_error_curve(cfg, dts, PHI_EXP, spec, nl, gt)
        sampled = weak_error_curve(cfg, dts, PHI_EXP, spec, nl, gt, n_samples=600)
        for p, q in zip(exact, sampled):
            assert abs(p.error - q.error) <= 1e-12 * scale
            assert p.stderr == p.oracle_bias == q.oracle_bias == 0.0
            assert q.stderr <= 1e-12 * scale

    def test_moment_oracle_gate_fires_before_the_averaged_solve(self, monkeypatch):
        # n_samples = 0 with a pointwise coupling: the ladder's moment oracle
        # refuses the coupling before the LIMITING truth's solve starts
        def solve(*args):
            raise AssertionError("the averaged solve ran")

        monkeypatch.setattr(harness, "solve_averaged_reference", solve)
        cfg = RunConfig(T=0.25, N=4, eps=0.5, scheme=SchemeKind.LIMITING, x0=np.ones(4),
                        y0=np.ones(4))
        with pytest.raises(ValueError, match="the moment oracle needs the linear-in-y coupling"):
            weak_error_curve(cfg, [0.125, 0.0625], PHI_EXP, dirichlet_spectrum(4),
                             saturating_square(1.0), GridTransform(4))


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

    def test_rejects_nonpositive_errors(self):
        with pytest.raises(ValueError, match="noise floor"):
            fit_rate([(0.5, 1.0), (0.25, 0.0), (0.125, 0.1)])
        with pytest.raises(ValueError):
            fit_rate([(0.5, 1.0), (0.25, 0.5)])

    def test_rejects_points_below_twice_their_stderr(self):
        pts = [WeakErrorPoint(dt=2.0**-k, error=e, stderr=0.01, oracle_bias=0.0)
               for k, e in ((2, 0.4), (3, 0.2), (4, 0.1), (5, 0.019))]
        with pytest.raises(ValueError, match=r"noise floor\) at dt = \[0\.03125\]"):
            fit_rate(pts)
        assert fit_rate(pts[:3]).slope == pytest.approx(1.0)
        # an exact point has stderr 0 and is never below the floor
        fit_rate([replace(p, error=1e-300, stderr=0.0) for p in pts])

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
        nl = PointwiseGeneral(f=lambda u, v: 0.8 * u)
        h = np.ones(16)
        phi = FunctionalSpec(kind=FunctionalKind.LINEAR, h=h)
        cfg = coupled_config(T=0.5, N=8)
        rows = ap_diagram(cfg, [1.0, 0.01], phi, SPEC, nl, GridTransform(16), n_samples=64,
                          master_seed=5)
        for _, gap, se in rows:
            assert gap == 0.0
            assert se == 0.0

    def test_stderr_of_paired_differences(self):
        # both sides run on the same draws, so the stderr is that of the
        # per-sample differences, not the hypot of the two stderrs
        cfg = coupled_config(T=0.5, N=8)
        n, seed = 400, 9
        rows = ap_diagram(cfg, [1.0, 0.01], PHI_NORM, SPEC, NL, n_samples=n, master_seed=seed)

        def phi_values(scheme, eps):
            x = run_trajectory_batch(replace(cfg, eps=eps, scheme=scheme), SPEC, NL, None, seed,
                                     0, n)
            return evaluate_functional(PHI_NORM, x)

        lim = phi_values(SchemeKind.LIMITING, 1.0)
        for eps, gap, se in rows:
            mod = phi_values(SchemeKind.COUPLED_MODIFIED, eps)
            assert gap == abs(np.mean(mod) - np.mean(lim))
            assert se == np.std(mod - lim, ddof=1) / math.sqrt(n)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_legs_share_their_draw(self, seed):
        # the modified leg draws the limiting leg's field at every step, so
        # its paired difference, and the stderr with it, vanishes as eps -> 0
        spec = dirichlet_spectrum(4)
        cfg = RunConfig(T=0.25, N=16, eps=1.0, scheme=SchemeKind.COUPLED_MODIFIED,
                        x0=np.ones(4), y0=np.ones(4))
        eps_list = [1.0, 1e-2, 1e-4]
        rows = ap_diagram(cfg, eps_list, PHI_EXP, spec, NL, n_samples=2000, master_seed=seed)
        exact = ap_diagram(cfg, eps_list, PHI_EXP, spec, NL)
        assert rows[-1][2] <= 1e-2 * rows[0][2]
        for (_, gap, se), (_, exact_gap, _) in zip(rows, exact):
            assert abs(gap - exact_gap) <= 4.0 * se

    def test_bad_eps_fails_before_any_leg_is_sampled(self, monkeypatch):
        # every leg's step is built first: at eps = 1e-320 tau*lam overflows,
        # and neither of the legs before it is sampled
        calls = []
        monkeypatch.setattr(harness, "run_trajectory_batch",
                            lambda *args: calls.append(args) or run_trajectory_batch(*args))
        with pytest.raises(ArgumentError, match="too small") as info:
            ap_diagram(coupled_config(), [1.0, 1e-320], PHI_EXP, SPEC, NL, n_samples=200)
        assert info.value.name == "eps" and calls == []

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
            averaging_curve([0.5, 0.25], cfg, PHI_NORM, SPEC, PointwiseSquare(1.0))


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

    def test_standard_at_unit_reads_the_transition(self, monkeypatch):
        # the residual 3a^2 - 1 at tau*lam = 1 comes from the step's a, not a constant:
        # a = 0.5 (1 + 1e-3) moves it from 0.25 to 0.2485
        class Perturbed(Transition):
            def __init__(self, *args):
                super().__init__(*args)
                self.a = self.a * (1.0 + 1e-3)

        monkeypatch.setattr(harness, "Transition", Perturbed)
        rep = invariant_measure_check(SPEC, [1.0])
        assert np.allclose(rep.standard_at_unit, 1.0 - 3.0 * (0.5 * (1.0 + 1e-3)) ** 2, rtol=1e-12)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            invariant_measure_check(SPEC, [1.0, -1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_tau_by_name(self, bad):
        # NaN passes `tau <= 0` and used to fail in Transition under the name 'eps'
        with pytest.raises(ValueError, match="^argument 'tau_list' = .* positive and finite"):
            invariant_measure_check(SPEC, [1.0, bad])


class TestUniformSweep:
    def test_small_sweep_shape_and_determinism(self):
        spec = quadratic_spectrum(8)
        nl = LinearInY(1.0)
        cfg = RunConfig(T=0.5, N=8, eps=1.0, scheme=SchemeKind.COUPLED_MODIFIED,
                        x0=1.0 / spec.lambdas, y0=np.ones(8))
        res = uniform_sweep(cfg, [1.0, 2.0**-4], [2.0**-3, 2.0**-4, 2.0**-5], PHI_NORM, spec, nl)
        assert res.errors.shape == (3, 2)
        assert np.all(res.max_errors >= res.errors.max(axis=1) - 1e-300)
        assert np.all(res.reference_bias >= 0.0)
        res2 = uniform_sweep(cfg, [1.0, 2.0**-4], [2.0**-3, 2.0**-4, 2.0**-5], PHI_NORM, spec, nl)
        assert np.array_equal(res.errors, res2.errors)

    def test_rejects_bad_dt(self):
        cfg = coupled_config(T=1.0)
        with pytest.raises(ValueError):
            uniform_sweep(cfg, [1.0], [0.3], PHI_NORM, SPEC, NL)


class TestOracleWeakValues:
    @settings(max_examples=100, deadline=None, database=None)
    @given(J=st.integers(1, 8), T=st.floats(0.1, 4.0), c=st.floats(-2.0, 2.0),
           steps=st.lists(st.sampled_from([1, 2, 3, 4, 5, 7, 16, 100, 1024]), min_size=1,
                          max_size=4, unique=True),
           log_eps=st.lists(st.floats(-8.0, 1.0), min_size=1, max_size=3),
           schemes=st.lists(st.sampled_from(list(SchemeKind)), min_size=1, max_size=4,
                            unique=True),
           kind=st.sampled_from(list(FunctionalKind)), seed=st.integers(0, 2**32))
    def test_equals_one_config_at_a_time(self, J, T, c, steps, log_eps, schemes, kind, seed):
        # a dt ladder T/N times an eps list times the schemes, shuffled, so that
        # groups of one N mix schemes, eps and their position in the list;
        # N <= 3 is where matrix_power multiplies out instead of squaring
        draw = np.random.default_rng(seed)
        spec = SpectrumSpec(J, np.sort(draw.uniform(1.0, 400.0, J)))
        phi = FunctionalSpec(kind=kind, h=draw.standard_normal(J))
        configs = [RunConfig(T=T, N=N, eps=10.0**e, scheme=scheme,
                             x0=draw.standard_normal(J), y0=draw.standard_normal(J))
                   for N in steps for e in log_eps for scheme in schemes]
        configs = [configs[i] for i in draw.permutation(len(configs))]
        nl = LinearInY(c=c)
        single = [oracle_weak_value(cfg, phi, spec, nl) for cfg in configs]
        assert oracle_weak_values(configs, phi, spec, nl) == single

    def test_callers_equal_one_config_at_a_time(self):
        # the sweep, the averaging curve, the AP diagram and the weak-error curve
        # batch their configs; every value stays that of its own oracle call
        cfg = coupled_config(T=0.5, N=8)
        epss, dts = [1.0, 2.0**-4, 2.0**-8], [2.0**-3, 2.0**-4, 2.0**-5]
        res = uniform_sweep(cfg, epss, dts, PHI_EXP, SPEC, NL)
        for k, eps in enumerate(epss):
            truth = continuous_weak_value(replace(cfg, eps=eps), PHI_EXP, SPEC, NL)
            for i, dt in enumerate(dts):
                cell = replace(cfg, eps=eps, N=round(0.5 / dt))
                ref = oracle_weak_value(replace(cell, scheme=SchemeKind.COUPLED_EXPO,
                                                N=cell.N * SWEEP_REFINEMENT), PHI_EXP, SPEC, NL)
                assert res.errors[i, k] == abs(oracle_weak_value(cell, PHI_EXP, SPEC, NL) - ref)
                assert res.reference_bias[i, k] == abs(ref - truth)

        target = float(evaluate_functional(PHI_EXP, solve_averaged_reference(SPEC, NL, cfg.x0,
                                                                             cfg.T)))
        for eps, gap in averaging_curve(epss, cfg, PHI_EXP, SPEC, NL):
            exact = oracle_weak_value(replace(cfg, N=AVERAGING_STEPS, eps=eps,
                                              scheme=SchemeKind.COUPLED_EXPO), PHI_EXP, SPEC, NL)
            assert gap == abs(exact - target)

        lim = oracle_weak_value(replace(cfg, eps=1.0, scheme=SchemeKind.LIMITING), PHI_EXP,
                                SPEC, NL)
        for eps, gap, se in ap_diagram(cfg, epss, PHI_EXP, SPEC, NL):
            exact = oracle_weak_value(replace(cfg, eps=eps), PHI_EXP, SPEC, NL)
            assert (gap, se) == (abs(exact - lim), 0.0)

        truth = continuous_weak_value(cfg, PHI_EXP, SPEC, NL)
        for p in weak_error_curve(cfg, dts, PHI_EXP, SPEC, NL):
            exact = oracle_weak_value(replace(cfg, N=round(0.5 / p.dt)), PHI_EXP, SPEC, NL)
            assert p.error == abs(exact - truth)


class TestContinuousWeakValue:
    def test_closed_form_agrees_with_ode_oracle(self):
        # the closed-form value against the Radau oracle's moments
        cfg = coupled_config(N=32, eps=0.5)
        a = continuous_weak_value(cfg, PHI_NORM, SPEC, NL)
        mom = ode_moments(SPEC.lambdas, NL.c, cfg.eps, cfg.T,
                          ModeMoments(mean_x=cfg.x0, mean_y=cfg.y0))
        b = gaussian_expectation(PHI_NORM, mom.mean_x, mom.var_x)
        assert a == pytest.approx(b, abs=1e-8)


def same(a, b) -> bool:
    """a == b throughout: dataclasses field by field, arrays by array_equal, floats by ==."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return a == b


SWEEP_EPS = [1.0, 0.25, 0.0625]


def sweep_dts(cfg):
    return [cfg.T / 2, cfg.T / 4, cfg.T / 8]


# each noise-free sweep, and the config fields it does not read: those it sets itself
SWEEPS = {
    "uniform_sweep": (lambda cfg, *args: uniform_sweep(cfg, SWEEP_EPS, sweep_dts(cfg), *args),
                      ("N", "eps", "scheme")),
    "ap_diagram": (lambda cfg, *args: ap_diagram(cfg, SWEEP_EPS, *args), ("eps", "scheme")),
    "averaging_curve": (lambda cfg, *args: averaging_curve(SWEEP_EPS, cfg, *args),
                        ("N", "eps", "scheme")),
    "continuous_weak_value": (continuous_weak_value, ("N", "scheme")),
    "weak_error_curve": (lambda cfg, *args: weak_error_curve(cfg, sweep_dts(cfg), *args), ("N",)),
    # the AVERAGED row under a pointwise coupling: one noise-free run per step size
    "averaged_pointwise_curve": (
        lambda cfg, phi, spec, nl: weak_error_curve(
            replace(cfg, scheme=SchemeKind.AVERAGED), sweep_dts(cfg), phi, spec,
            PointwiseSquare(nl.c), GridTransform(spec.J)),
        ("N", "eps", "y0")),
}


class TestUnreadFields:
    @pytest.mark.parametrize("name", sorted(SWEEPS))
    @settings(max_examples=40, deadline=None, database=None)
    @given(J=st.integers(1, 4), quadratic=st.booleans(),
           c=st.floats(0.25, 2.0), T=st.sampled_from([0.25, 0.5, 1.0]),
           kind=st.sampled_from(list(FunctionalKind)),
           schemes=st.lists(st.sampled_from(list(SchemeKind)), min_size=2, max_size=2),
           Ns=st.lists(st.integers(1, 64), min_size=2, max_size=2),
           log_eps=st.lists(st.floats(-4.0, 0.0), min_size=2, max_size=2),
           seed=st.integers(0, 2**32))
    def test_changing_an_unread_field_leaves_the_result_equal(self, name, J, quadratic, c, T,
                                                              kind, schemes, Ns, log_eps, seed):
        # the moment-oracle path; weak_error_curve also leaves eps and y0 unread
        # under the schemes without a fast state
        draw = np.random.default_rng(seed)
        spec = (quadratic_spectrum if quadratic else dirichlet_spectrum)(J)
        phi = FunctionalSpec(kind=kind, h=draw.uniform(0.5, 1.5, J))
        base = RunConfig(T=T, N=Ns[0], eps=10.0**log_eps[0], scheme=schemes[0],
                         x0=draw.uniform(0.5, 1.5, J), y0=draw.uniform(-1.0, 1.0, J))
        other = {"N": Ns[1], "eps": 10.0**log_eps[1], "scheme": schemes[1],
                 "y0": draw.uniform(-1.0, 1.0, J)}
        sweep, unread = SWEEPS[name]
        if name == "weak_error_curve" and not base.scheme.coupled:
            unread += ("eps", "y0")
        result = sweep(base, phi, spec, LinearInY(c))
        for field in unread:
            changed = replace(base, **{field: other[field]})
            assert same(sweep(changed, phi, spec, LinearInY(c)), result), field


class TestArgumentRule:
    # each call fails its argument check before any work, naming the argument
    # (fit_rate lists its dt values)
    @pytest.mark.parametrize("call, message", [
        (lambda: fit_rate([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]),
         r"^argument 'dt' = \[0\.0, 1\.0, 2\.0\] must be positive and finite$"),
        (lambda: fit_rate([(0.5, 1.0), (0.5, 2.0), (0.5, 3.0)]), r"dt = \[0\.5, 0\.5, 0\.5\]$"),
        (lambda: weak_error_curve(coupled_config(T=1.0), [1e10, 0.5, 0.25], PHI_NORM, SPEC, NL),
         r"^argument 'dt' = 10000000000\.0 does not divide T = 1\.0"),
        (lambda: invariant_measure_check(SPEC, []),
         r"^argument 'tau_list' = \[\] must be positive and finite$"),
        (lambda: uniform_sweep(coupled_config(T=1.0), [], [0.5, 0.25, 0.125], PHI_NORM, SPEC, NL),
         r"^argument 'eps_list' = \[\] must be positive and finite$"),
        *[(lambda eps=eps, scheme=scheme: coupled_config(eps=eps, scheme=scheme),
           rf"^argument 'eps' = {eps!r} must be positive and finite$")
          for scheme in (SchemeKind.LIMITING, SchemeKind.AVERAGED) for eps in (0.0, -3.0)],
    ], ids=["fit_rate_zero_dt", "fit_rate_one_dt", "weak_error_curve_dt_past_T",
            "invariant_measure_check_no_tau", "uniform_sweep_no_eps",
            "limiting_zero_eps", "limiting_negative_eps", "averaged_zero_eps",
            "averaged_negative_eps"])
    def test_rejects_by_name(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    # one case per raise site of an ArgumentError, with the argument it names and its message
    # (the exact-or-Monte-Carlo sample count's is test_sample_count_fails_before_any_run)
    @pytest.mark.parametrize("call, name, message", [
        (lambda: check_positive("tau", -1.0), "tau", r"^argument 'tau' = -1\.0 must be positive"),
        (lambda: SpectrumSpec(J=2, lambdas=np.array([1.0])), "lambdas",
         r"^expected 2 eigenvalues, got shape \(1,\)$"),
        (lambda: SpectrumSpec(J=2, lambdas=np.array([2.0, 1.0])), "lambdas",
         r"^eigenvalues must be non-decreasing$"),
        # 1/1e-310 overflows: the variance 1/lambda of the slowest mode would be inf
        (lambda: SpectrumSpec(J=2, lambdas=np.array([1e-310, 1.0])), "lambdas",
         r"^eigenvalues must have a finite reciprocal, got 1e-310$"),
        (lambda: GridTransform(2, M=7), "M", r"^need M >= 4\*J = 8 collocation points, got 7$"),
        (lambda: Transition(SchemeKind.COUPLED_MODIFIED, SPEC.lambdas, 0.5, 1e-320), "eps",
         r"^argument 'eps' = 1e-320 is too small: tau\*lam = dt\*lam/eps is not finite$"),
        (lambda: continuous_second_moment(SPEC.lambdas, 1.0, 1e-320, 1.0, ModeMoments()), "eps",
         r"^argument 'eps' = 1e-320 is too small: lam/eps is not finite$"),
        (lambda: harness._ladder(coupled_config(T=1.0), [0.25, 0.5]), "dt_list",
         r"^dt_list must be strictly decreasing$"),
        (lambda: harness._config_at_dt(coupled_config(T=1.0), 0.3), "dt",
         r"^argument 'dt' = 0\.3 does not divide T = 1\.0 into whole steps$"),
        (lambda: invariant_measure_check(SPEC, [1e308]), "tau_list", r"^tau\*lam = 1e\+308 \* "),
        (lambda: oracle_weak_values([coupled_config()], PHI_NORM, SPEC, PointwiseSquare(1.0),
                                    GridTransform(16)), "nl",
         r"^the moment oracle needs the linear-in-y coupling under COUPLED_MODIFIED, "
         r"got PointwiseSquare$"),
        (lambda: continuous_weak_value(coupled_config(), PHI_NORM, SPEC, PointwiseSquare(1.0)),
         "nl", r"^no continuous law covers the PointwiseSquare coupling$"),
        (lambda: coupled_config(N=2.5), "N", r"^argument 'N' = 2\.5 must be an integer >= 1$"),
        (lambda: mc_estimate(coupled_config(), PHI_NORM, 1, 0, SPEC, NL), "n_samples",
         r"^need n_samples >= 2 for Monte Carlo, got 1$"),
        (lambda: mc_estimate(coupled_config(), PHI_NORM, 10, 0, SPEC, NL, batch=0), "batch",
         r"^need batch >= 1, got 0$"),
        # a string kind used to pass: "LINEAR" without its h, evaluated as BOUNDED_EXP
        (lambda: FunctionalSpec(kind="LINEAR"), "kind",
         r"^argument 'kind' = 'LINEAR' is not a FunctionalKind$"),
    ], ids=["check_positive", "spectrum_shape", "spectrum_order", "spectrum_reciprocal",
            "collocation_points",
            "transition_eps", "continuous_law_eps", "ladder_order", "dt_divides_T",
            "tau_lambda_overflow", "moment_oracle_coupling", "continuous_law_coupling",
            "run_step_count", "mc_sample_count", "mc_batch", "functional_kind"])
    def test_error_names_its_argument(self, call, name, message):
        with pytest.raises(ArgumentError, match=message) as info:
            call()
        assert isinstance(info.value, ValueError) and info.value.name == name

    @pytest.mark.parametrize("call", [
        lambda n: weak_error_curve(coupled_config(T=1.0, scheme=SchemeKind.AVERAGED),
                                   [0.5, 0.25, 0.125], PHI_NORM, SPEC, NL, n_samples=n),
        lambda n: ap_diagram(coupled_config(), [1.0, 0.1], PHI_EXP, SPEC, NL, n_samples=n),
    ], ids=["averaged_weak_error_curve", "ap_diagram"])
    @pytest.mark.parametrize("n_samples", [1, -2])
    def test_sample_count_fails_before_any_run(self, monkeypatch, call, n_samples):
        # 0 is exact and at least 2 is Monte Carlo; the noise-free AVERAGED curve used
        # to take n_samples = 1 as exact, and ap_diagram failed naming no argument
        calls = []
        monkeypatch.setattr(harness, "run_trajectory_batch",
                            lambda *args: calls.append(args) or run_trajectory_batch(*args))
        message = rf"^argument 'n_samples' = {n_samples} must be 0 \(exact\) or at least 2 "
        with pytest.raises(ArgumentError, match=message) as info:
            call(n_samples)
        assert info.value.name == "n_samples" and calls == []
