import ast
from pathlib import Path

import numpy as np
import pytest

import slowfast.spectral
from slowfast import (
    LinearInY,
    RunConfig,
    SchemeKind,
    SpectrumSpec,
    Transition,
    dirichlet_spectrum,
    eigenvalue_error_bounds,
    log_ratio_constant,
    quadratic_spectrum,
    run_trajectory_batch,
    solve_averaged_reference,
)
from slowfast.spectral import check_positive

rng = np.random.default_rng(20240517)

TAUS = [1e-4, 1e-2, 1.0, 1e2, 1e4]


def random_spectrum(J=8):
    lam = np.sort(10 ** rng.uniform(-1, 3, J))
    return SpectrumSpec(J, lam)


class TestSpectrumSpec:
    def test_dirichlet_values(self):
        spec = dirichlet_spectrum(3)
        assert np.allclose(spec.lambdas, [np.pi**2, 4 * np.pi**2, 9 * np.pi**2], rtol=1e-15)

    def test_dirichlet_single_mode(self):
        assert dirichlet_spectrum(1).lambdas[0] == pytest.approx(9.8696044010893586, rel=1e-14)

    def test_quadratic_growth_exact(self):
        for J in (2, 5, 17, 64):
            spec = dirichlet_spectrum(J)
            assert spec.lambdas[-1] / spec.lambdas[0] == pytest.approx(J**2, rel=1e-13)

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            dirichlet_spectrum(0)
        with pytest.raises(ValueError):
            quadratic_spectrum(0)

    def test_rejects_bad_eigenvalues(self):
        with pytest.raises(ValueError):
            SpectrumSpec(3, np.array([1.0, 0.5, 2.0]))  # decreasing
        with pytest.raises(ValueError):
            SpectrumSpec(2, np.array([0.0, 1.0]))  # not strictly positive
        with pytest.raises(ValueError):
            SpectrumSpec(3, np.array([1.0, 2.0]))  # wrong length
        with pytest.raises(ValueError):
            SpectrumSpec(2, np.array([1.0, np.inf]))  # not finite


# The resolvent and the semigroup have no helpers of their own: every
# Transition's slow update divides by 1 + dt*lam, and the averaged solver
# multiplies by exp(-T*lam).  These tests read them there.


def one_step_without_force(lam, dt, x):
    """x' of one AVERAGED step with Fbar = 0: the resolvent (I + dt*Lambda)^(-1) x."""
    return Transition(SchemeKind.AVERAGED, lam, dt, 1.0).step(x, None, None, lambda x, y: 0.0)[0]


def semigroup(spec, t, x):
    """e^(-t*Lambda) x: the averaged equation's solution when Fbar = 0."""
    return solve_averaged_reference(spec, LinearInY(1.0), x, t)


def modified(lam, tau):
    """The modified-scheme transition at tau = dt/eps (eps = 1)."""
    return Transition(SchemeKind.COUPLED_MODIFIED, lam, tau, 1.0)


def paper_noise_operators(tr):
    """(B1, B2) of the paper's modified update, sqrt(2 tau) (B1 Gamma1 + B2 Gamma2)."""
    return tr.a / np.sqrt(2.0), np.sqrt(0.5 * tr.a)


class TestResolvent:
    def test_scalar_examples(self):
        assert one_step_without_force(np.array([1.0]), 1.0, np.array([1.0]))[0] == 0.5
        assert one_step_without_force(np.array([3.0]), 1.0, np.array([2.0]))[0] == 0.5

    def test_identity_limit(self):
        spec = random_spectrum()
        x = rng.standard_normal(spec.J)
        out = one_step_without_force(spec.lambdas, 1e-14, x)
        assert np.allclose(out, x, rtol=1e-10)

    def test_contraction(self):
        spec = random_spectrum()
        for _ in range(20):
            x = rng.standard_normal(spec.J)
            dt = 10 ** rng.uniform(-4, 2)
            assert np.linalg.norm(one_step_without_force(spec.lambdas, dt, x)) <= np.linalg.norm(x)

    def test_rejects_nonpositive_dt(self):
        spec = random_spectrum()
        x = np.ones(spec.J)
        for dt in (0.0, -1.0):
            with pytest.raises(ValueError):
                one_step_without_force(spec.lambdas, dt, x)

    def test_rejects_wrong_length(self):
        # the sampler checks the initial field against the spectrum before its first step
        cfg = RunConfig(T=0.1, N=1, eps=1.0, scheme=SchemeKind.AVERAGED, x0=np.ones(5), y0=np.zeros(5))
        with pytest.raises(ValueError, match="5 modes"):
            run_trajectory_batch(cfg, dirichlet_spectrum(4), LinearInY(1.0), None, 0, 0, 1)


class TestSemigroup:
    def test_time_zero_identity(self):
        spec = random_spectrum()
        x = rng.standard_normal(spec.J)
        assert np.array_equal(semigroup(spec, 0.0, x), x)

    def test_half_life(self):
        spec = SpectrumSpec(1, np.array([1.0]))
        assert semigroup(spec, np.log(2.0), np.array([1.0]))[0] == pytest.approx(0.5, rel=1e-15)

    def test_semigroup_law(self):
        spec = random_spectrum()
        x = rng.standard_normal(spec.J)
        for _ in range(10):
            t1, t2 = 10 ** rng.uniform(-3, 0, 2)
            a = semigroup(spec, t1, semigroup(spec, t2, x))
            b = semigroup(spec, t1 + t2, x)
            assert np.allclose(a, b, rtol=1e-12, atol=1e-300)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            semigroup(random_spectrum(), -0.1, np.ones(8))

    def test_smoothing_bound(self):
        # |Lambda^a e^(-t Lambda) x| <= (a/e)^a t^(-a) |x|; per-mode maximum of
        # lambda^a exp(-t lambda) over lambda > 0 is attained at lambda = a/t
        spec = dirichlet_spectrum(32)
        for alpha in (0.1, 0.5, 0.9, 1.0):
            c_alpha = (alpha / np.e) ** alpha
            for t in (1e-4, 1e-2, 0.5):
                x = rng.standard_normal(32)
                lhs = np.linalg.norm(spec.lambdas**alpha * semigroup(spec, t, x))
                assert lhs <= c_alpha * t ** (-alpha) * np.linalg.norm(x) * (1 + 1e-12)


class TestModifiedOperators:
    """a_tau and s2 as the modified transition holds them, against the paper's noise operators
    B1 = a/sqrt(2) and B2 = sqrt(a/2); lambda_tau and q_tau through their gaps."""

    def test_lambda_tau_unit_example(self):
        # lambda_tau = log(1 + tau*lam)/tau = 1 and q_tau = 1/(e-1) at lam = e-1, tau = 1
        rep = eigenvalue_error_bounds(SpectrumSpec(1, np.array([np.e - 1.0])), 1.0, 0.5)
        assert rep.lambda_gap[0] == pytest.approx(np.e - 2.0, rel=1e-14)
        assert rep.q_gap[0] == pytest.approx(1.0 - 1.0 / (np.e - 1.0), rel=1e-14)

    def test_combined_noise_at_unit_taulambda(self):
        # B1^2 + B2^2 = (2+z)/(2 (1+z)^2) at z = 1 evaluates to 3/8
        tr = modified(np.array([2.0]), 0.5)
        b1, b2 = paper_noise_operators(tr)
        assert b1[0] ** 2 + b2[0] ** 2 == pytest.approx(0.375, rel=1e-14)

    @pytest.mark.parametrize("tau", TAUS)
    def test_noise_splitting_identity(self, tau):
        tr = modified(dirichlet_spectrum(64).lambdas, tau)
        b1, b2 = paper_noise_operators(tr)
        lhs = b1**2 + b2**2
        rhs = 0.5 * (tr.a**2 + tr.a)
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12
        # the one-step variance the sampler and the moment recursions read is 2*tau*(B1^2 + B2^2)
        assert np.max(np.abs(tr.s2 - 2.0 * tau * rhs) / tr.s2) < 1e-12

    @pytest.mark.parametrize("tau", TAUS)
    def test_exponential_interpretation(self, tau):
        # a_tau = exp(-tau*lambda_tau) with tau*lambda_tau = log(1 + tau*lam)
        lam = dirichlet_spectrum(64).lambdas
        tr = modified(lam, tau)
        with np.errstate(under="ignore"):
            expo = np.exp(-np.log1p(tau * lam))
        assert np.max(np.abs(tr.a - expo) / tr.a) < 1e-12

    def test_eigenvalue_ranges(self):
        # 0 < lambda_tau < lambda and 0 < q_tau < 1
        spec = random_spectrum()
        for tau in TAUS:
            rep = eigenvalue_error_bounds(spec, tau, 0.5)
            assert np.all(rep.lambda_gap > 0) and np.all(rep.lambda_gap < spec.lambdas)
            assert np.all(rep.q_gap > 0) and np.all(rep.q_gap < 1)

    def test_monotonicity_in_tau(self):
        # lambda_tau and q_tau decrease in tau, so their gaps increase
        spec = random_spectrum()
        reps = [eigenvalue_error_bounds(spec, t, 0.5) for t in np.logspace(-4, 4, 30)]
        assert np.all(np.diff([r.lambda_gap for r in reps], axis=0) > 0)
        assert np.all(np.diff([r.q_gap for r in reps], axis=0) > 0)

    def test_rejects_nonpositive_tau(self):
        for tau in (0.0, -2.0):
            with pytest.raises(ValueError):
                eigenvalue_error_bounds(dirichlet_spectrum(2), tau, 0.5)
            with pytest.raises(ValueError):
                modified(dirichlet_spectrum(2).lambdas, tau)


class TestEigenvalueBounds:
    def test_gaps_vanish_as_tau_to_zero(self):
        spec = dirichlet_spectrum(8)
        gap = [eigenvalue_error_bounds(spec, tau, 0.5).lambda_gap.max() for tau in (1e-2, 1e-5, 1e-9)]
        assert gap[0] > gap[1] > gap[2]
        # gap ~ tau*lambda^2/2 for small tau
        assert gap[2] < 1.01 * 1e-9 * spec.lambdas[-1] ** 2 / 2

    def test_alpha_zero_constant_is_one(self):
        c0 = float(log_ratio_constant(0.0)[0])
        assert c0 == 1.0
        z = 10 ** rng.uniform(-6, 6, 1000)
        defect = 1.0 - np.log1p(z) / z
        assert np.all(defect >= 0.0) and np.all(defect < 1.0)

    def test_constant_dominates_grid_oracle(self):
        # brute-force grid maximization must never beat the refined constant;
        # below z = 1e-6 the direct formula cancels badly, so check the series
        # regime separately (defect = z/2 - z^2/3 + ...)
        z = np.logspace(-6, 12, 20001)
        defect = 1.0 - np.log1p(z) / z
        z_small = np.logspace(-12, -6, 201)
        defect_small = z_small / 2 - z_small**2 / 3
        for alpha in (0.0, 0.05, 0.3, 0.7, 1.0):
            c = float(log_ratio_constant(alpha)[0])
            assert np.max(z ** (-alpha) * defect) <= c * (1 + 1e-9)
            assert np.max(z_small ** (-alpha) * defect_small) <= c * (1 + 1e-9)

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, [0.5, 2.0], np.nan, [0.5, np.nan]])
    def test_constant_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
            log_ratio_constant(alpha)

    def test_alpha_one_constant_is_half(self):
        # z^(-1) (1 - log(1+z)/z) increases to 1/2 as z -> 0
        assert float(log_ratio_constant(1.0)[0]) == pytest.approx(0.5, abs=1e-9)

    def test_strict_inequality_and_bounds(self):
        spec = random_spectrum()
        for _ in range(25):
            tau = 10 ** rng.uniform(-5, 4)
            alpha = rng.uniform(0, 1)
            rep = eigenvalue_error_bounds(spec, tau, alpha)
            assert np.all(rep.lambda_gap > 0)
            assert np.all(rep.lambda_gap <= rep.lambda_bound * (1 + 1e-9))
            assert np.all(rep.q_gap <= rep.q_bound * (1 + 1e-9))

    def test_rejects_bad_arguments(self):
        spec = dirichlet_spectrum(2)
        with pytest.raises(ValueError):
            eigenvalue_error_bounds(spec, -1.0, 0.5)
        with pytest.raises(ValueError):
            eigenvalue_error_bounds(spec, 1.0, 1.5)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_rejects_non_finite_tau_by_name(self, tau):
        # NaN and infinity pass `tau <= 0` and used to fail later as a violated bound
        with pytest.raises(ValueError, match="^argument 'tau' = .* must be positive and finite"):
            eigenvalue_error_bounds(dirichlet_spectrum(2), tau, 0.5)

    def test_violated_bound_raises(self, monkeypatch):
        # an explicit raise, so the check also runs under python -O
        monkeypatch.setattr(slowfast.spectral, "log_ratio_constant",
                            lambda alpha: np.array([1e-30]))
        with pytest.raises(AssertionError, match="gap bounds violated"):
            eigenvalue_error_bounds(dirichlet_spectrum(4), 1e-2, 0.5)

    def test_constant_raises_without_convergence(self, monkeypatch):
        # log_ratio_constant imports the minimizer when called, from SciPy's module
        import scipy.optimize.elementwise as elementwise

        find_minimum = elementwise.find_minimum
        monkeypatch.setattr(elementwise, "find_minimum",
                            lambda *args, **kw: find_minimum(*args, **kw, maxiter=1))
        with pytest.raises(RuntimeError, match="did not converge"):
            log_ratio_constant(np.array([0.0, 0.3]))

    @pytest.mark.parametrize("tau", [1e-17, 1e17])
    def test_holds_at_extreme_tau(self, tau):
        # at tau*lam ~ 1e-16 log(1+z)/z rounds to 1 although the series gap
        # is positive; at tau*lam ~ 1e18 the gap eta rounds to 1 although
        # q_tau = log(1+z)/z is still positive
        rep = eigenvalue_error_bounds(dirichlet_spectrum(4), tau, 0.5)
        assert np.all(rep.lambda_gap > 0) and np.all(rep.q_gap <= 1.0)


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one vanishes
    src = Path(slowfast.spectral.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


class TestCheckPositive:
    @pytest.mark.parametrize("value", [1e-300, 3, np.float64(2.0), [1.0, 2.0], np.ones((2, 2))])
    def test_returns_its_argument(self, value):
        assert check_positive("x", value) is value

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, [], [1.0, np.nan],
                                       np.array([1.0, -0.0]), [np.inf]])
    def test_rejects_by_name(self, value):
        with pytest.raises(ValueError, match=r"^argument 'x' = .* must be positive and finite$"):
            check_positive("x", value)

    def test_zero_passes_where_allowed(self):
        assert check_positive("T", 0.0, allow_zero=True) == 0.0
        assert check_positive("T", [0.0, 1.0], allow_zero=True) == [0.0, 1.0]
        for value in (-1e-300, np.nan, [], [0.0, np.inf]):
            with pytest.raises(ValueError, match="^argument 'T' = .* must be nonnegative and finite$"):
                check_positive("T", value, allow_zero=True)
