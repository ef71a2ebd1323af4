import numpy as np
import pytest
from covariance_mpmath import mp_second_moments
from covariance_ode import ode_moments
from hypothesis import example, given, settings
from hypothesis import strategies as st
from moment_loop import loop_moments
from scipy.integrate import quad

from slowfast import (
    LinearInY,
    ModeMoments,
    RunConfig,
    SchemeKind,
    Transition,
    continuous_mean,
    continuous_second_moment,
    dirichlet_spectrum,
    fit_rate,
    run_trajectory_batch,
    second_moment_recursion,
    second_moment_recursions,
)

rng = np.random.default_rng(90210)

LAM = np.pi**2


class TestContinuousMean:
    def test_uncoupled_decay(self):
        lam = np.array([1.0, 4.0])
        out = continuous_mean(lam, 0.0, 0.3, 2.0, np.array([1.0, 2.0]), np.array([5.0, 5.0]))
        assert np.allclose(out, np.exp(-lam * 2.0) * [1.0, 2.0], rtol=1e-14)

    def test_unit_eps_removable_singularity(self):
        # T e^(-lam T) branch: lam = pi^2, T = 0.1, c = 1, x0 = 0, y0 = 1
        val = continuous_mean(np.array([LAM]), 1.0, 1.0, 0.1, 0.0, 1.0)[0]
        assert val == pytest.approx(0.1 * np.exp(-0.1 * LAM), rel=1e-12)

    def test_quadrature_oracle(self):
        # mild-solution integral c*y0*int e^(-lam(T-s)) e^(-lam s/eps) ds,
        # computed independently by adaptive quadrature
        for eps in (0.25, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 3.0):
            lam, c, T, x0, y0 = 7.3, -1.7, 0.8, 0.4, 2.1
            integral, err = quad(lambda s: np.exp(-lam * (T - s)) * np.exp(-lam * s / eps), 0, T)
            assert err < 1e-10
            expected = np.exp(-lam * T) * x0 + c * y0 * integral
            got = continuous_mean(np.array([lam]), c, eps, T, x0, y0)[0]
            assert got == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("eps, lam, y0", [(2.0, 1500.0, 1.0), (100.0, 1000.0, 1e6)])
    def test_slower_fast_variable_against_ode(self, eps, lam, y0):
        # eps > 1 with lam*T*(1 - 1/eps) past the overflow point of exp (about 709)
        lam, c, T = np.array([lam]), 1.3, 1.0
        got = continuous_mean(lam, c, eps, T, 0.5, y0)[0]
        ode = ode_moments(lam, c, eps, T, ModeMoments(mean_x=0.5, mean_y=y0)).mean_x[0]
        assert np.isfinite(got)
        assert got == pytest.approx(ode, rel=1e-8, abs=1e-13)

    def test_fast_transient_vanishes(self):
        lam = np.array([2.0])
        base = continuous_mean(lam, 1.0, 1e-12, 1.0, 1.0, 5.0)[0]
        assert base == pytest.approx(np.exp(-2.0), rel=1e-10)

    # NaN passes `eps <= 0` and `T < 0`; eps and T must also be finite
    @pytest.mark.parametrize("eps, T", [(0.0, 1.0), (-0.5, 1.0), (0.5, -1.0), (np.nan, 1.0),
                                        (np.inf, 1.0), (0.5, np.nan), (0.5, np.inf)])
    def test_rejects_nonpositive_eps_or_negative_T(self, eps, T):
        with pytest.raises(ValueError, match="need eps > 0 and T >= 0"):
            continuous_mean(np.array([2.0]), 1.0, eps, T, 1.0, 1.0)


def mean_x(kind, lam, c, eps, dt, N, x0, y0):
    """E X_N of the scheme with F = c*y: the mean part of the moment recursion."""
    start = ModeMoments(mean_x=x0, mean_y=y0)
    return second_moment_recursion(kind, lam, c, eps, dt, N, start).mean_x


class TestSchemeMeanRecursion:
    def test_uncoupled_geometric(self):
        lam = np.array([3.0, 11.0])
        dt, N = 0.05, 37
        out = mean_x(SchemeKind.COUPLED_MODIFIED, lam, 0.0, 0.7, dt, N, 2.0, 9.0)
        assert np.allclose(out, 2.0 / (1.0 + dt * lam) ** N, rtol=1e-12)

    def test_one_step_expo(self):
        lam, c, eps, dt = np.array([4.0]), 1.5, 0.3, 0.02
        out = mean_x(SchemeKind.COUPLED_EXPO, lam, c, eps, dt, 1, 1.0, 2.0)
        expected = (1.0 + dt * c * np.exp(-dt * 4.0 / eps) * 2.0) / (1.0 + dt * 4.0)
        assert out[0] == pytest.approx(expected, rel=1e-14)

    def test_limiting_mean_is_pure_decay(self):
        lam = np.array([2.0, 6.0])
        dt, N = 0.1, 12
        out = mean_x(SchemeKind.LIMITING, lam, 5.0, 1.0, dt, N, 3.0, 0.0)
        assert np.allclose(out, 3.0 / (1.0 + dt * lam) ** N, rtol=1e-12)


class TestStepFactors:
    def test_modified_fixed_point_any_tau(self):
        lam = dirichlet_spectrum(16).lambdas
        for tau in (1e-4, 1e-2, 1.0, 1e2, 1e4):
            tr = Transition(SchemeKind.COUPLED_MODIFIED, lam, tau, 1.0)
            a, s2 = tr.a, tr.s2
            residual = np.abs((a * a / lam + s2) * lam - 1.0)
            assert np.max(residual) < 1e-12

    def test_expo_fixed_point(self):
        lam = dirichlet_spectrum(16).lambdas
        tr = Transition(SchemeKind.COUPLED_EXPO, lam, 0.3, 1.0)
        a, s2 = tr.a, tr.s2
        assert np.max(np.abs((a * a / lam + s2) * lam - 1.0)) < 1e-12

    def test_expo_half_life_example(self):
        tr = Transition(SchemeKind.COUPLED_EXPO, np.array([1.0]), np.log(2.0), 1.0)
        a, s2 = tr.a, tr.s2
        assert a[0] == pytest.approx(0.5, rel=1e-14)
        assert s2[0] == pytest.approx(0.75, rel=1e-14)

    def test_stationary_limit_of_modified_noise(self):
        # as tau -> infinity the one-step noise variance approaches 1/lam
        lam = dirichlet_spectrum(8).lambdas
        s2 = Transition(SchemeKind.COUPLED_MODIFIED, lam, 1e8, 1.0).s2
        assert np.max(np.abs(s2 * lam - 1.0)) < 1e-7


class TestSecondMomentRecursion:
    def test_rejects_negative_step_count(self):
        with pytest.raises(ValueError, match="N must be nonnegative"):
            second_moment_recursion(SchemeKind.COUPLED_MODIFIED, np.array([5.0]), 1.0, 1.0, 0.1,
                                    -1, ModeMoments())

    def test_uncoupled_variance_decay(self):
        lam = np.array([5.0])
        dt, N = 0.02, 25
        start = ModeMoments(var_x=0.7)
        out = second_moment_recursion(SchemeKind.COUPLED_MODIFIED, lam, 0.0, 1.0, dt, N, start)
        assert out.var_x[0] == pytest.approx(0.7 / (1.0 + dt * 5.0) ** (2 * N), rel=1e-12)

    def test_stationary_variance_is_fixed_point(self):
        lam = dirichlet_spectrum(8).lambdas
        for tau_scale in (1e-3, 1.0, 1e3):
            dt = tau_scale
            start = ModeMoments(var_y=1.0 / lam)
            out = second_moment_recursion(SchemeKind.COUPLED_MODIFIED, lam, 0.0, 1.0, dt, 50, start)
            assert np.max(np.abs(out.var_y * lam - 1.0)) < 1e-12

    @settings(max_examples=100, deadline=None, database=None)
    @given(scheme=st.sampled_from(list(SchemeKind)), J=st.integers(1, 16),
           log_lam_scale=st.floats(-1.0, 2.0), c=st.floats(-3.0, 3.0),
           log_eps=st.floats(-6.0, 1.0), log_dt=st.floats(-5.0, 0.0), N=st.integers(1, 2000),
           seed=st.integers(0, 2**32))
    # cov_xy = 1.8e-4 on mode 1, against its Cauchy-Schwarz scale 0.53: the power
    # misses the loop by 2.4e-15 absolute, 1.3e-11 relative
    @example(scheme=SchemeKind.COUPLED_MODIFIED, J=3, log_lam_scale=-0.890625, c=-2.0,
             log_eps=-0.875, log_dt=-4.0, N=937, seed=26070970)
    def test_power_path_matches_loop(self, scheme, J, log_lam_scale, c, log_eps, log_dt, N, seed):
        # the matrix power must reproduce the literal map iterated N times in
        # all five moments; mean_x may cancel to near zero (absolute floor),
        # cov_xy is a sum of terms up to sqrt(var_x*var_y) and may cancel far
        # below it (absolute floor at that scale), and the others may
        # underflow to subnormals (floor 1e-300)
        lam = dirichlet_spectrum(J).lambdas * 10.0**log_lam_scale
        eps, dt = 10.0**log_eps, 10.0**log_dt
        draw = np.random.default_rng(seed)
        var_x, var_y = draw.uniform(0, 1, J), draw.uniform(0, 1, J)
        start = ModeMoments(mean_x=draw.uniform(-1, 1, J), mean_y=draw.uniform(-1, 1, J),
                            var_x=var_x, var_y=var_y,
                            cov_xy=draw.uniform(-1, 1, J) * np.sqrt(var_x * var_y))
        power = second_moment_recursion(scheme, lam, c, eps, dt, N, start)
        loop = loop_moments(scheme, lam, c, eps, dt, N, start)
        floors = {"mean_x": 1e-15, "cov_xy": 1e-300 + 1e-11 * np.sqrt(loop.var_x * loop.var_y)}
        for name in ("mean_x", "mean_y", "var_y", "cov_xy", "var_x"):
            atol = floors.get(name, 1e-300)
            assert np.allclose(getattr(power, name), getattr(loop, name), rtol=1e-11, atol=atol), name

    @settings(max_examples=50, deadline=None, database=None)
    @given(runs=st.lists(st.tuples(st.sampled_from(list(SchemeKind)), st.floats(-6.0, 1.0),
                                   st.floats(-5.0, 0.0)), min_size=1, max_size=5),
           J=st.integers(1, 6), N=st.integers(0, 300), c=st.floats(-3.0, 3.0),
           seed=st.integers(0, 2**32))
    def test_stack_equals_each_transition_alone(self, runs, J, N, c, seed):
        # schemes, eps, dt and starts differ from row to row of one stacked power
        draw = np.random.default_rng(seed)
        lam = np.sort(draw.uniform(1.0, 100.0, J))
        transitions = [Transition(scheme, lam, 10.0**log_dt, 10.0**log_eps)
                       for scheme, log_eps, log_dt in runs]
        var_x, var_y = draw.uniform(0, 1, (2, len(runs), J))
        start = ModeMoments(mean_x=draw.uniform(-1, 1, var_x.shape),
                            mean_y=draw.uniform(-1, 1, var_x.shape), var_x=var_x, var_y=var_y,
                            cov_xy=draw.uniform(-1, 1, var_x.shape) * np.sqrt(var_x * var_y))
        stacked = second_moment_recursions(transitions, c, N, start)
        for k, ((scheme, log_eps, log_dt), tr) in enumerate(zip(runs, transitions)):
            row = ModeMoments(**{name: getattr(start, name)[k] for name in
                                 ("mean_x", "mean_y", "var_x", "var_y", "cov_xy")})
            alone = second_moment_recursion(scheme, lam, c, 10.0**log_eps, tr.dt, N, row)
            for name in ("mean_x", "mean_y", "var_y", "cov_xy", "var_x"):
                assert np.array_equal(getattr(stacked, name)[k], getattr(alone, name)), name

    def test_matches_continuous_at_small_dt(self):
        lam = np.array([LAM])
        c, eps, T = 1.0, 1.0, 0.25
        start = ModeMoments(mean_y=1.0)
        truth = continuous_second_moment(lam, c, eps, T, start)
        gaps = []
        for N in (256, 512):
            mom = second_moment_recursion(SchemeKind.COUPLED_MODIFIED, lam, c, eps, T / N, N, start)
            gaps.append(abs(mom.var_x[0] - truth.var_x[0]))
        # first-order in dt: halving the step roughly halves the gap
        assert gaps[1] < 0.75 * gaps[0]

    def test_moment_validation(self):
        with pytest.raises(ValueError):
            ModeMoments(var_x=-1.0)
        with pytest.raises(ValueError):
            ModeMoments(var_x=1.0, var_y=1.0, cov_xy=2.0)


class TestContinuousSecondMoment:
    # NaN passes `eps <= 0` and `T < 0`; eps and T must also be finite
    @pytest.mark.parametrize("eps, T", [(0.0, 1.0), (-0.5, 1.0), (0.5, -1.0), (np.nan, 1.0),
                                        (np.inf, 1.0), (0.5, np.nan), (0.5, np.inf)])
    def test_rejects_nonpositive_eps_or_negative_T(self, eps, T):
        with pytest.raises(ValueError, match="need eps > 0 and T >= 0"):
            continuous_second_moment(np.array([2.0]), 1.0, eps, T, ModeMoments())

    def test_stationary_fast_variance(self):
        lam = np.array([3.0, 30.0])
        start = ModeMoments(var_y=1.0 / lam)
        for T in (0.1, 1.0, 10.0):
            out = continuous_second_moment(lam, 0.0, 0.5, T, start)
            assert np.allclose(out.var_y * lam, 1.0, rtol=1e-12)

    def test_uncoupled_slow_decay(self):
        lam = np.array([2.0])
        out = continuous_second_moment(lam, 0.0, 1.0, 0.7, ModeMoments(var_x=1.3))
        assert out.var_x[0] == pytest.approx(1.3 * np.exp(-2 * 2.0 * 0.7), rel=1e-10)

    def test_golden_value_from_ode_oracle(self):
        # lam = pi^2, c = 1, eps = 0.5, T = 0.25, zero initial moments;
        # frozen from the step-control integrator at rtol 1e-10, verified
        # here at half tolerance and against the closed form
        lam = np.array([LAM])
        golden = {"var_x": 0.000333396989998927, "cov_xy": 0.003414176675187465,
                  "var_y": 0.10131594298788839}
        ode = ode_moments(lam, 1.0, 0.5, 0.25, ModeMoments())
        assert ode.var_x[0] == pytest.approx(golden["var_x"], rel=5e-9)
        assert ode.cov_xy[0] == pytest.approx(golden["cov_xy"], rel=5e-9)
        assert ode.var_y[0] == pytest.approx(golden["var_y"], rel=5e-9)
        ex = continuous_second_moment(lam, 1.0, 0.5, 0.25, ModeMoments())
        assert ex.var_x[0] == pytest.approx(golden["var_x"], rel=1e-10)

    def test_closed_form_agrees_with_ode_oracle(self):
        for _ in range(8):
            lam = np.array([10 ** rng.uniform(0, 2.5)])
            c = rng.uniform(-2, 2)
            eps = float(rng.choice([1.0, 0.5, 2.0**-4]))
            T = rng.uniform(0.05, 1.0)
            start = ModeMoments(var_x=rng.uniform(0, 1), var_y=rng.uniform(0, 1))
            a = continuous_second_moment(lam, c, eps, T, start)
            b = ode_moments(lam, c, eps, T, start)
            for f in ("var_x", "cov_xy", "var_y"):
                assert abs(getattr(a, f)[0] - getattr(b, f)[0]) < 1e-9

    def test_against_mpmath(self):
        # 3,000 seeded draws against divided differences summed in mpmath at
        # 60+ digits.  Each of var_x, cov_xy, var_y is held to 1e-12 of the
        # sum of its terms' magnitudes (its own magnitude for a zero start,
        # where nothing cancels; a correlated start can cancel terms, and no
        # double evaluation beats that scale), with a floor for underflow.
        # The draws cycle through eps = 1 exactly, 1 + 1e-9, 1 - 1e-9,
        # |eps - 1| < 1e-3, lam/eps in [1e9, 1e12] and log-uniform eps, and
        # through T in [1e-12, 1e-6], lam*T in [0.03, 5] (where the series
        # hands over to the recurrence) and T in [1e-6, 10].
        draw = np.random.default_rng(20090)
        fields = ("var_x", "cov_xy", "var_y")
        for k in range(3000):
            lam = 10.0 ** draw.uniform(-2.0, 4.0)
            eps = [1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + draw.uniform(-1e-3, 1e-3),
                   lam / 10.0 ** draw.uniform(9.0, 12.0), 10.0 ** draw.uniform(-9.0, 2.0)][k % 6]
            T = [10.0 ** draw.uniform(-12.0, -6.0), 10.0 ** draw.uniform(-1.5, 0.7) / lam,
                 10.0 ** draw.uniform(-6.0, 1.0)][(k // 6) % 3]
            c = draw.uniform(-3.0, 3.0)
            var_x, var_y = draw.uniform(0.0, 2.0, 2)
            cov_xy = draw.uniform(-1.0, 1.0) * np.sqrt(var_x * var_y)
            if (k // 18) % 2:
                var_x = cov_xy = var_y = 0.0
            got = continuous_second_moment(np.array([lam]), c, eps, T,
                                           ModeMoments(var_x=var_x, cov_xy=cov_xy, var_y=var_y))
            exact, scales = mp_second_moments(lam, c, eps, T, var_x, cov_xy, var_y)
            for f, x, scale in zip(fields, exact, scales):
                err = abs(getattr(got, f)[0] - x)
                assert err <= 1e-12 * scale + 1e-300, (f, lam, c, eps, T, var_x, cov_xy, var_y)

    @pytest.mark.parametrize("eps, expected", [
        (1.0 + 1e-9, (0.0007337485393196707, 0.00645662511512429, 0.11363637036301388)),
        (1.0 - 1e-9, (0.0007337485385857598, 0.006456625108667406, 0.11363637036301366)),
    ])
    def test_near_unit_eps_pinned(self, eps, expected):
        # lam = 8.8, c = 1, T = 0.93; the values are covariance_mpmath's.  SciPy's
        # expm of the generator missed them by 5.7e-9 (eps = 1 + 1e-9) and
        # 1.1e-9 (eps = 1 - 1e-9) relative in var_x and cov_xy
        out = continuous_second_moment(np.array([8.8]), 1.0, eps, 0.93,
                                       ModeMoments(var_x=0.3, cov_xy=0.1, var_y=0.2))
        for f, x in zip(("var_x", "cov_xy", "var_y"), expected):
            assert getattr(out, f)[0] == pytest.approx(x, rel=2e-15)

    @settings(max_examples=100, deadline=None, database=None)
    @given(J=st.integers(1, 32), log_lam_scale=st.floats(-3.0, 3.0), c=st.floats(-3.0, 3.0),
           eps=st.one_of(st.sampled_from([1.0, 1.0 + 1e-9, 1.0 - 1e-9]),
                         st.floats(-9.0, 2.0).map(lambda e: 10.0**e)),
           log_T=st.floats(-12.0, 1.0), seed=st.integers(0, 2**32))
    def test_batch_invariance(self, J, log_lam_scale, c, eps, log_T, seed):
        # the reproducibility contract: moments over a vector of modes equal,
        # bit for bit, one call per mode (the modes may straddle the series
        # and the recurrence)
        lam = dirichlet_spectrum(J).lambdas * 10.0**log_lam_scale
        T = 10.0**log_T
        draw = np.random.default_rng(seed)
        var_x, var_y = draw.uniform(0, 1, J), draw.uniform(0, 1, J)
        start = ModeMoments(mean_x=draw.uniform(-1, 1, J), mean_y=draw.uniform(-1, 1, J),
                            var_x=var_x, var_y=var_y,
                            cov_xy=draw.uniform(-1, 1, J) * np.sqrt(var_x * var_y))
        fields = ("mean_x", "mean_y", "var_x", "cov_xy", "var_y")
        whole = continuous_second_moment(lam, c, eps, T, start)
        ones = [continuous_second_moment(lam[j], c, eps, T,
                                         ModeMoments(**{f: getattr(start, f)[j] for f in fields}))
                for j in range(J)]
        for f in fields:
            assert np.array_equal(np.concatenate([getattr(o, f) for o in ones]),
                                  getattr(whole, f)), f


class TestAgainstMonteCarlo:
    """Sampled moments of the real integrators validate the recursions."""

    N_SAMPLES = 40_000

    @pytest.mark.parametrize("scheme", [SchemeKind.COUPLED_MODIFIED, SchemeKind.COUPLED_EXPO,
                                        SchemeKind.LIMITING])
    def test_recursion_matches_sampled_moments(self, scheme):
        spec = dirichlet_spectrum(8)
        nl = LinearInY(c=1.4)
        x0 = 1.0 / spec.lambdas
        y0 = np.ones(8) * 0.5
        cfg = RunConfig(T=0.25, N=8, eps=0.5, scheme=scheme, x0=x0, y0=y0)
        xs = run_trajectory_batch(cfg, spec, nl, None, 654, 0, self.N_SAMPLES)
        mom = second_moment_recursion(
            scheme, spec.lambdas, nl.c, cfg.eps, cfg.dt, cfg.N,
            ModeMoments(mean_x=x0, mean_y=y0, var_x=np.zeros(8), var_y=np.zeros(8),
                        cov_xy=np.zeros(8)))
        se_mean = np.std(xs, axis=0, ddof=1) / np.sqrt(self.N_SAMPLES)
        assert np.all(np.abs(np.mean(xs, axis=0) - mom.mean_x) <= 4 * se_mean + 1e-14)
        centered_sq = (xs - np.mean(xs, axis=0)) ** 2
        se_var = np.std(centered_sq, axis=0, ddof=1) / np.sqrt(self.N_SAMPLES)
        assert np.all(np.abs(np.var(xs, axis=0) - mom.var_x) <= 4 * se_var + 1e-14)


class TestWeakErrorShapes:
    def test_measurement_is_noise_free(self):
        lam = dirichlet_spectrum(16).lambdas
        start = ModeMoments(mean_x=1.0 / lam, mean_y=np.ones(16))

        def measure():
            mom = second_moment_recursion(SchemeKind.COUPLED_MODIFIED, lam, 1.0, 0.5, 2.0**-6,
                                          2**6, start)
            truth = continuous_second_moment(lam, 1.0, 0.5, 1.0, start)
            return float(np.sum(mom.var_x + mom.mean_x**2) - np.sum(truth.var_x + truth.mean_x**2))

        assert measure() == measure()

    def test_expo_mean_error_is_first_order(self):
        lam = dirichlet_spectrum(16).lambdas
        c, eps, T = 1.0, 1.0, 0.5
        x0 = 1.0 / lam
        y0 = 1.0 / lam
        truth = continuous_mean(lam, c, eps, T, x0, y0)
        pts = []
        for k in range(4, 13):
            dt = 2.0**-k
            N = int(round(T / dt))
            m = mean_x(SchemeKind.COUPLED_EXPO, lam, c, eps, dt, N, x0, y0)
            pts.append((dt, abs(float(np.sum(m - truth)))))
        fit = fit_rate(pts)
        assert 0.8 <= fit.slope <= 1.2
        assert fit.r_squared > 0.99

    def test_quadratic_functional_envelope_in_eps(self):
        # at fixed dt the second-moment error grows like (dt/eps)^(1/2) as
        # eps shrinks: slope of log error against log eps is about -1/2
        lam = dirichlet_spectrum(16).lambdas
        dt = 2.0**-6
        N = int(round(0.5 / dt))
        start = ModeMoments(mean_x=np.zeros(16), mean_y=np.ones(16))
        errs = []
        eps_list = [1.0, 0.25, 2.0**-4, 2.0**-6]
        for eps in eps_list:
            mom = second_moment_recursion(SchemeKind.COUPLED_MODIFIED, lam, 1.0, eps, dt, N, start)
            truth = continuous_second_moment(lam, 1.0, eps, 0.5, start)
            errs.append(abs(float(np.sum(mom.var_x + mom.mean_x**2)
                                  - np.sum(truth.var_x + truth.mean_x**2))))
        fit = fit_rate(list(zip(eps_list, errs)))
        assert -0.65 <= fit.slope <= -0.35

    def test_monotone_decrease_in_dt(self):
        lam = dirichlet_spectrum(16).lambdas
        start = ModeMoments(mean_x=1.0 / lam, mean_y=1.0 / lam)
        truth = continuous_second_moment(lam, 1.0, 1.0, 0.5, start)
        target = float(np.sum(truth.var_x + truth.mean_x**2))
        errs = []
        for k in range(4, 13):
            dt = 2.0**-k
            mom = second_moment_recursion(SchemeKind.COUPLED_MODIFIED, lam, 1.0, 1.0, dt,
                                          int(round(0.5 / dt)), start)
            errs.append(abs(float(np.sum(mom.var_x + mom.mean_x**2)) - target))
        assert all(a > b for a, b in zip(errs, errs[1:]))
