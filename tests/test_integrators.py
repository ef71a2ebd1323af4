from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from moment_loop import loop_moments
from step_loop import loop_states

import slowfast.integrators as integrators
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
    Transition,
    averaged_force,
    dirichlet_spectrum,
    eval_F,
    mc_estimate,
    run_trajectory_batch,
    sample_cylindrical_batch,
    saturating_square,
    second_moment_recursion,
    solve_averaged_reference,
    trajectory,
)

rng = np.random.default_rng(31415)

SPEC = dirichlet_spectrum(8)
ZERO_F = LinearInY(c=0.0)


def one_step(scheme, spec, dt, eps, nl, x, y, g):
    """(x', y') of one step of the scheme's Transition from the draw g, F evaluated by eval_F.

    The step works in place, so it is given copies: the caller's arrays stay as they were."""
    tr = Transition(scheme, spec.lambdas, dt, eps)
    x, y, g = (None if v is None else np.array(v, dtype=float) for v in (x, y, g))
    return tr.step(x, y, g, lambda x, y: eval_F(nl, None, x, y))


def paper_noise_operators(tr):
    """(B1, B2) of the paper's modified update, sqrt(2 tau) (B1 Gamma1 + B2 Gamma2)."""
    return tr.a / np.sqrt(2.0), np.sqrt(0.5 * tr.a)


def final_state(scheme, nl, x0, dt, N, gt=None, seed=0):
    """x_N of one sample through run_trajectory_batch."""
    cfg = RunConfig(T=dt * N, N=N, eps=1.0, scheme=scheme, x0=x0, y0=np.zeros(8))
    return run_trajectory_batch(cfg, SPEC, nl, gt, seed, 0, 1)[0]


class TestCoupledModifiedStep:
    def test_pure_resolvent_when_uncoupled(self):
        spec = dirichlet_spectrum(1)
        x, _ = one_step(SchemeKind.COUPLED_MODIFIED, spec, 1.0, 1.0, ZERO_F, np.array([1.0]),
                        np.array([0.0]), np.zeros(1))
        assert x[0] == pytest.approx(1.0 / (1.0 + spec.lambdas[0]), rel=1e-15)

    def test_zero_noise_keeps_zero_fast_state(self):
        _, y = one_step(SchemeKind.COUPLED_MODIFIED, SPEC, 0.1, 0.2, ZERO_F,
                        rng.standard_normal(8), np.zeros(8), np.zeros(8))
        assert np.all(y == 0.0)

    def test_one_step_variance_at_stationarity(self):
        # sampled one-step variance of y stays at 1/lambda
        n = 200_000
        dt, eps = 0.1, 0.07
        # y0 and g at two steps: one seed and step address one field
        y0 = sample_cylindrical_batch(SPEC, 5, 1, 0, n) / np.sqrt(SPEC.lambdas)
        g = sample_cylindrical_batch(SPEC, 5, 0, 0, n)
        _, y = one_step(SchemeKind.COUPLED_MODIFIED, SPEC, dt, eps, ZERO_F, np.zeros((n, 8)), y0, g)
        v = np.var(y, axis=0)
        # chi-square concentration: relative 4-sigma band is 4*sqrt(2/n)
        assert np.max(np.abs(v * SPEC.lambdas - 1.0)) < 4 * np.sqrt(2.0 / n)

    @pytest.mark.parametrize("tau", [0.5, 5.0])
    def test_multi_step_variance_from_rest(self, tau):
        # n sampler steps from y0 = 0: var y_n = (1 - a^(2n))/lambda, a = 1/(1 + tau*lambda)
        count, n = 50_000, 4
        cfg = RunConfig(T=n * tau, N=n, eps=1.0, scheme=SchemeKind.COUPLED_MODIFIED,
                        x0=np.zeros(8), y0=np.zeros(8))
        for _, y in trajectory(cfg, SPEC, ZERO_F, None, 4, 0, count):
            pass
        a = 1.0 / (1.0 + tau * SPEC.lambdas)
        exact = (1.0 - a ** (2 * n)) / SPEC.lambdas
        # the mean is exactly 0, so mean(y^2) is a chi-square variance estimate
        assert np.max(np.abs(np.mean(y * y, axis=0) / exact - 1.0)) < 4 * np.sqrt(2.0 / count)

    def test_combined_noise_variance_identity(self):
        # the paper's two noise operators combine to the closed-form variance
        # B1^2 + B2^2 = (2+z)/(2 (1+z)^2), z = tau*lam, tau = dt/eps
        tr = Transition(SchemeKind.COUPLED_MODIFIED, SPEC.lambdas, 3.7, 1.0)
        z = 3.7 * SPEC.lambdas
        b1, b2 = paper_noise_operators(tr)
        lhs = b1**2 + b2**2
        assert np.max(np.abs(lhs - (2.0 + z) / (2.0 * (1.0 + z) ** 2)) / lhs) < 1e-12

    @pytest.mark.parametrize("tau", [3.7, 1e200, 1e300])
    def test_noise_variance_is_that_of_the_draws_at_any_tau(self, tau):
        # s2 = 2 tau (B1^2 + B2^2) stays finite as tau*lam passes 1e154, tending to 1/lam
        tr = Transition(SchemeKind.COUPLED_MODIFIED, SPEC.lambdas, tau, 1.0)
        b1, b2 = paper_noise_operators(tr)
        assert np.allclose(tr.s2, 2.0 * tau * (b1**2 + b2**2), rtol=1e-14, atol=0.0)
        if tau > 1e100:
            assert np.allclose(tr.s2 * SPEC.lambdas, 1.0, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("eps", [0.07, 1e-300])
    def test_fast_update_is_one_gaussian_draw(self, eps):
        # y' = a*y + sqrt(s2)*g: the law of the paper's two-field increment from one field
        tr = Transition(SchemeKind.COUPLED_MODIFIED, SPEC.lambdas, 0.1, eps)
        y, g = rng.standard_normal((2, 3, 8))
        _, out = tr.step(np.zeros((3, 8)), y.copy(), g.copy(), lambda x, y: 0.0)
        assert np.array_equal(out, tr.a * y + np.sqrt(tr.s2) * g)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            Transition(SchemeKind.COUPLED_MODIFIED, SPEC.lambdas, -0.1, 1.0)
        with pytest.raises(ValueError):
            Transition(SchemeKind.COUPLED_MODIFIED, SPEC.lambdas, 0.1, 0.0)

    @pytest.mark.parametrize("scheme", [SchemeKind.COUPLED_MODIFIED, SchemeKind.COUPLED_EXPO])
    @pytest.mark.parametrize("name, dt, eps", [
        ("dt", np.nan, 1.0), ("dt", np.inf, 1.0), ("eps", 0.1, np.nan), ("eps", 0.1, np.inf),
    ])
    def test_rejects_non_finite_arguments_by_name(self, scheme, name, dt, eps):
        # NaN passes a `<= 0` check; each check must fail it and name its argument
        with pytest.raises(ValueError, match=f"^argument '{name}' = .* must be positive and finite"):
            Transition(scheme, SPEC.lambdas, dt, eps)


class TestCoupledExpoStep:
    def test_decay_and_noise_scale(self):
        # lam = 1, dt/eps = ln 2: decay 1/2, noise variance (1 - 1/4)/1 = 3/4
        spec = dirichlet_spectrum(1)
        spec = type(spec)(J=1, lambdas=np.array([1.0]))
        args = (SchemeKind.COUPLED_EXPO, spec, np.log(2.0), 1.0, ZERO_F, np.zeros(1), np.array([2.0]))
        _, y0 = one_step(*args, np.zeros(1))
        assert y0[0] == pytest.approx(1.0, rel=1e-14)
        _, y1 = one_step(*args, np.ones(1))
        sd = y1[0] - y0[0]
        assert sd**2 == pytest.approx(0.75, rel=1e-13)

    def test_stationary_variance_in_stiff_limit(self):
        _, y = one_step(SchemeKind.COUPLED_EXPO, SPEC, 1.0, 1e-12, ZERO_F, np.zeros(8), np.ones(8),
                        np.ones(8))
        assert np.allclose(y**2 * SPEC.lambdas, 1.0, rtol=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_rate_is_the_stiff_limit(self):
        # dt*lam/eps = inf: a fresh equilibrium draw, a = 0 and s2 = 1/lam, without a warning
        tr = Transition(SchemeKind.COUPLED_EXPO, SPEC.lambdas, 0.25, 1e-320)
        assert np.all(tr.a == 0.0)
        assert np.array_equal(tr.s2, 1.0 / SPEC.lambdas)

    def test_identity_in_smooth_limit(self):
        # deterministic part tends to the identity and the noise scale to 0
        y = rng.standard_normal(8)
        args = (SchemeKind.COUPLED_EXPO, SPEC, 1e-16, 1.0, ZERO_F, np.zeros(8), y)
        _, quiet = one_step(*args, np.zeros(8))
        assert np.allclose(quiet, y, rtol=1e-12)
        _, noisy = one_step(*args, np.ones(8))
        assert np.max(np.abs(noisy - quiet)) < np.sqrt(2e-16) * 1.01


class TestLimitingAndAveragedSteps:
    def test_limiting_without_coupling_is_resolvent(self):
        x = rng.standard_normal(8)
        out, y = one_step(SchemeKind.LIMITING, SPEC, 0.25, 1.0, ZERO_F, x, None,
                          rng.standard_normal(8))
        assert np.allclose(out, x / (1.0 + 0.25 * SPEC.lambdas), rtol=1e-15)
        assert y is None  # the fresh draw is not carried to the next step

    def test_limiting_mean_is_centered(self):
        n = 100_000
        x = np.broadcast_to(1.0 / SPEC.lambdas, (n, 8))
        g = sample_cylindrical_batch(SPEC, 77, 0, 0, n)
        out, _ = one_step(SchemeKind.LIMITING, SPEC, 0.1, 1.0, LinearInY(c=2.0), x, None, g)
        target = (1.0 / SPEC.lambdas) / (1.0 + 0.1 * SPEC.lambdas)
        se = np.std(out, axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(np.mean(out, axis=0) - target) <= 4 * se)

    def test_limiting_equals_averaged_when_y_ignored(self):
        # a coupling that reads only x: F = Fbar, up to the rounding of the
        # Gauss-Hermite weights, which sum to sqrt(pi)
        gt = GridTransform(8)
        nl = PointwiseGeneral(f=lambda u, v: 0.8 * u)
        x = rng.standard_normal(8)
        lim = final_state(SchemeKind.LIMITING, nl, x, 0.3, 3, gt, seed=11)
        avg = final_state(SchemeKind.AVERAGED, nl, x, 0.3, 3, gt)
        assert np.max(np.abs(lim - avg)) <= 1e-13 * np.max(np.abs(avg))

    def test_averaged_resolvent_when_fbar_zero(self):
        x = rng.standard_normal(8)
        out = final_state(SchemeKind.AVERAGED, LinearInY(c=3.0), x, 0.5, 1)
        assert np.allclose(out, x / (1.0 + 0.5 * SPEC.lambdas), rtol=1e-15)

    def test_averaged_constant_forcing_closed_form(self):
        gt = GridTransform(8)
        nl = PointwiseSquare(c=1.0)
        g = averaged_force(nl, gt, SPEC)(np.zeros(8))
        dt, N = 0.05, 100
        x = rng.standard_normal(8)
        cur = final_state(SchemeKind.AVERAGED, nl, x, dt, N, gt)
        r = 1.0 / (1.0 + dt * SPEC.lambdas)
        closed = r**N * x + g * (1.0 - r**N) / SPEC.lambdas
        assert np.allclose(cur, closed, rtol=1e-12)

    def test_averaged_converges_to_equilibrium(self):
        gt = GridTransform(8)
        nl = PointwiseSquare(c=2.0)
        g = averaged_force(nl, gt, SPEC)(np.zeros(8))
        cur = final_state(SchemeKind.AVERAGED, nl, np.zeros(8), 0.1, 5000, gt)
        assert np.allclose(cur, g / SPEC.lambdas, rtol=1e-10)


class TestRunTrajectory:
    def test_single_step_equals_direct_call(self):
        cfg = RunConfig(T=0.125, N=1, eps=0.5, scheme=SchemeKind.COUPLED_MODIFIED,
                        x0=np.ones(8), y0=np.ones(8))
        *_, (out_x, out_y) = trajectory(cfg, SPEC, LinearInY(1.0), None, 3, 2, 1)
        # the modified step's one draw is sample 2's field at step 0
        g = sample_cylindrical_batch(SPEC, 3, 0, 2, 1)[0]
        x, y = one_step(cfg.scheme, SPEC, cfg.dt, cfg.eps, LinearInY(1.0), np.ones(8), np.ones(8), g)
        assert np.array_equal(out_x[0], x)
        assert np.array_equal(out_y[0], y)
        assert np.array_equal(run_trajectory_batch(cfg, SPEC, LinearInY(1.0), None, 3, 2, 1), out_x)

    def test_one_shared_field_per_step(self, monkeypatch):
        # from y0 = 0 one step leaves y = sd*g: both coupled schemes read the one field
        # the sampler addresses by (seed, step 0, sample); every scheme but AVERAGED draws it
        g = sample_cylindrical_batch(SPEC, 9, 0, 3, 5)
        calls = []

        def spy(*args):
            calls.append(args)
            return sample_cylindrical_batch(*args)

        monkeypatch.setattr(integrators, "sample_cylindrical_batch", spy)
        for scheme in SchemeKind:
            calls.clear()
            cfg = RunConfig(T=0.1, N=1, eps=0.3, scheme=scheme, x0=np.ones(8), y0=np.zeros(8))
            *_, (_, y) = trajectory(cfg, SPEC, ZERO_F, None, 9, 3, 5)
            assert len(calls) == (scheme != SchemeKind.AVERAGED)
            if scheme.coupled:
                sd = Transition(scheme, SPEC.lambdas, cfg.dt, cfg.eps).sd
                assert np.allclose(y / sd, g, rtol=1e-15, atol=0.0)

    def test_averaged_is_seed_independent(self):
        cfg = RunConfig(T=0.5, N=16, eps=1.0, scheme=SchemeKind.AVERAGED,
                        x0=np.ones(8), y0=np.zeros(8))
        a = run_trajectory_batch(cfg, SPEC, LinearInY(1.0), None, 1, 0, 1)
        b = run_trajectory_batch(cfg, SPEC, LinearInY(1.0), None, 999, 0, 1)
        assert np.array_equal(a, b)

    def test_uncoupled_slow_geometric_decay(self):
        cfg = RunConfig(T=0.5, N=32, eps=0.25, scheme=SchemeKind.COUPLED_MODIFIED,
                        x0=np.ones(8), y0=np.ones(8))
        out = run_trajectory_batch(cfg, SPEC, ZERO_F, None, 5, 0, 1)
        closed = 1.0 / (1.0 + cfg.dt * SPEC.lambdas) ** cfg.N
        assert np.allclose(out[0], closed, rtol=1e-12)

    def test_mean_recursion_bit_for_bit(self):
        # zero noise draws turn the coupled scheme into its own mean
        # recursion: the sampler matches the literal moment loop to the last
        # bit, and the matrix-power oracle matches it to rounding
        nl = LinearInY(c=1.7)
        dt, eps, N = 0.0625, 0.4, 12
        x, y = np.ones(8), np.full(8, 0.3)
        zero = np.zeros(8)
        for _ in range(N):
            x, y = one_step(SchemeKind.COUPLED_MODIFIED, SPEC, dt, eps, nl, x, y, zero)
        start = ModeMoments(mean_x=np.ones(8), mean_y=np.full(8, 0.3))
        loop = loop_moments(SchemeKind.COUPLED_MODIFIED, SPEC.lambdas, nl.c, eps, dt, N, start).mean_x
        assert np.array_equal(x, loop)
        oracle = second_moment_recursion(SchemeKind.COUPLED_MODIFIED, SPEC.lambdas, nl.c, eps,
                                         dt, N, start).mean_x
        assert np.allclose(oracle, loop, rtol=1e-14, atol=0.0)

    def test_batch_matches_singles(self):
        cfg = RunConfig(T=0.25, N=4, eps=0.3, scheme=SchemeKind.COUPLED_EXPO,
                        x0=np.zeros(8), y0=np.ones(8))
        batch = run_trajectory_batch(cfg, SPEC, LinearInY(1.0), None, 17, 0, 6)
        for i in range(6):
            single = run_trajectory_batch(cfg, SPEC, LinearInY(1.0), None, 17, i, 1)
            assert np.array_equal(batch[i], single[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(T=1.0, N=0, eps=1.0, scheme=SchemeKind.AVERAGED, x0=np.ones(8), y0=np.ones(8))
        with pytest.raises(ValueError):
            RunConfig(T=-1.0, N=4, eps=1.0, scheme=SchemeKind.AVERAGED, x0=np.ones(8), y0=np.ones(8))
        with pytest.raises(ValueError):
            RunConfig(T=1.0, N=4, eps=0.0, scheme=SchemeKind.COUPLED_EXPO, x0=np.ones(8), y0=np.ones(8))

    @pytest.mark.parametrize("name, T, eps", [
        ("T", np.nan, 1.0), ("T", np.inf, 1.0), ("eps", 1.0, np.nan), ("eps", 1.0, np.inf),
    ])
    def test_validation_rejects_non_finite_by_name(self, name, T, eps):
        with pytest.raises(ValueError, match=f"^argument '{name}' = .* must be positive and finite"):
            RunConfig(T=T, N=4, eps=eps, scheme=SchemeKind.COUPLED_MODIFIED, x0=np.ones(8),
                      y0=np.ones(8))


# Couplings evaluated without collocation, which keep the contract for any
# partition.
COUPLINGS = [LinearInY(c=1.3)]
# Couplings evaluated on the collocation grid.  OpenBLAS rounds a row of a
# small product differently depending on how many rows it has, so they keep
# the contract when every part has more than one block of rows
# (GridTransform.rows_per_block); the strategies below draw only such parts.
POINTWISE = [PointwiseSquare(c=0.7), saturating_square(1.5),
             PointwiseGeneral(f=lambda u, v: np.sin(u) + 0.5 * u * v)]


class TestReproducibilityContract:
    """Any partition of the sample range into batches or threads gives the same bits."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(scheme=st.sampled_from(list(SchemeKind)), nl=st.sampled_from(COUPLINGS),
           J=st.integers(1, 64), count=st.integers(2, 40), split=st.integers(1, 39),
           seed=st.integers(0, 2**32))
    def test_batch_split_is_bit_identical(self, scheme, nl, J, count, split, seed):
        split = min(split, count - 1)
        spec = dirichlet_spectrum(J)
        cfg = RunConfig(T=0.25, N=3, eps=0.1, scheme=scheme, x0=np.ones(J), y0=np.ones(J))

        def final(first, n):
            # the last (x, y) of the trajectory, with y for the coupled schemes
            *_, (x, y) = trajectory(cfg, spec, nl, None, seed, first, n)
            return x if y is None else np.hstack([x, y])

        whole, head, tail = final(0, count), final(0, split), final(split, count - split)
        assert np.array_equal(whole, np.concatenate([head, tail]))
        assert np.array_equal(run_trajectory_batch(cfg, spec, nl, None, seed, 0, count),
                              whole[:, :J])

    @settings(max_examples=30, deadline=None, database=None)
    @given(scheme=st.sampled_from(list(SchemeKind)), nl=st.sampled_from(COUPLINGS),
           kind=st.sampled_from(list(FunctionalKind)), J=st.integers(1, 64),
           n=st.integers(2, 60), batch=st.integers(1, 25), seed=st.integers(0, 2**32))
    def test_mc_estimate_thread_and_batch_invariant(self, scheme, nl, kind, J, n, batch, seed):
        spec = dirichlet_spectrum(J)
        cfg = RunConfig(T=0.25, N=2, eps=0.1, scheme=scheme, x0=np.ones(J), y0=np.ones(J))
        h = np.random.default_rng(seed).standard_normal(J)
        phi = FunctionalSpec(kind=kind, h=h if kind == FunctionalKind.LINEAR else None)
        args = (cfg, phi, n, seed, spec, nl, None)
        first = mc_estimate(*args, n_threads=1, batch=n)
        assert mc_estimate(*args, n_threads=2, batch=batch) == first
        assert mc_estimate(*args, n_threads=1, batch=batch) == first

    @settings(max_examples=15, deadline=None, database=None)
    @given(scheme=st.sampled_from(list(SchemeKind)), nl=st.sampled_from(POINTWISE),
           J=st.integers(1, 64), extra=st.integers(0, 40), cut=st.integers(0, 40),
           seed=st.integers(0, 2**32))
    def test_pointwise_split_above_one_block_is_bit_identical(self, scheme, nl, J, extra, cut,
                                                              seed):
        spec = dirichlet_spectrum(J)
        gt = GridTransform(J)
        rows = gt.rows_per_block
        count = 2 * rows + 2 + extra
        split = rows + 1 + min(cut, extra)  # both parts have more than `rows` rows
        cfg = RunConfig(T=0.25, N=2, eps=0.1, scheme=scheme, x0=np.ones(J), y0=np.ones(J))

        def final(first, n):
            *_, (x, y) = trajectory(cfg, spec, nl, gt, seed, first, n)
            return x if y is None else np.hstack([x, y])

        whole = final(0, count)
        assert np.array_equal(whole, np.concatenate([final(0, split), final(split, count - split)]))

    @settings(max_examples=10, deadline=None, database=None)
    @given(scheme=st.sampled_from(list(SchemeKind)), nl=st.sampled_from(POINTWISE),
           J=st.integers(1, 64), extra=st.integers(0, 100), seed=st.integers(0, 2**32))
    def test_pointwise_mc_estimate_thread_and_batch_invariant(self, scheme, nl, J, extra, seed):
        spec = dirichlet_spectrum(J)
        gt = GridTransform(J)
        batch = gt.rows_per_block + 1 + extra
        n = 2 * batch + gt.rows_per_block + 1  # the last span has more than one block too
        cfg = RunConfig(T=0.25, N=2, eps=0.1, scheme=scheme, x0=np.ones(J), y0=np.ones(J))
        phi = FunctionalSpec(kind=FunctionalKind.BOUNDED_EXP)
        args = (cfg, phi, n, seed, spec, nl, gt)
        first = mc_estimate(*args, n_threads=1, batch=n)
        assert mc_estimate(*args, n_threads=2, batch=batch) == first
        assert mc_estimate(*args, n_threads=1, batch=batch) == first


class TestReferenceWeakValue:
    """The refined reference: mc_estimate on the exact-transition scheme, grid refined R times."""

    @staticmethod
    def reference(cfg, R, h, n_samples):
        phi = FunctionalSpec(kind=FunctionalKind.LINEAR, h=h)
        ref = replace(cfg, scheme=SchemeKind.COUPLED_EXPO, N=cfg.N * R)
        return mc_estimate(ref, phi, n_samples, 0, SPEC, ZERO_F)

    def test_uncoupled_linear_functional_bound(self):
        # deterministic path: reference equals the resolvent power, which is
        # within the scalar gap of the semigroup value
        h = np.zeros(8)
        h[0] = 1.0
        cfg = RunConfig(T=0.5, N=8, eps=0.5, scheme=SchemeKind.COUPLED_MODIFIED,
                        x0=np.ones(8), y0=np.ones(8))
        R = 64
        est = self.reference(cfg, R, h, 50)
        assert est.stderr == 0.0
        lam = SPEC.lambdas[0]
        n_fine = cfg.N * R
        gap = abs((1.0 + cfg.T / n_fine * lam) ** (-n_fine) - np.exp(-cfg.T * lam))
        assert abs(est.mean - np.exp(-cfg.T * lam)) <= gap * (1 + 1e-12)

    def test_refinement_doubling_consistency(self):
        # first-order bias: doubling the refinement about halves the gap
        h = np.ones(8)
        cfg = RunConfig(T=0.5, N=4, eps=0.5, scheme=SchemeKind.COUPLED_MODIFIED,
                        x0=np.ones(8), y0=np.zeros(8))
        truth = float(np.sum(np.exp(-cfg.T * SPEC.lambdas)))
        gaps = [abs(self.reference(cfg, R, h, 10).mean - truth) for R in (16, 32)]
        assert 1.7 <= gaps[0] / gaps[1] <= 2.3


class TestAveragedReference:
    def test_semigroup_half_life(self):
        spec = type(SPEC)(J=1, lambdas=np.array([1.0]))
        out = solve_averaged_reference(spec, LinearInY(2.0), np.array([1.0]), np.log(2.0))
        assert out[0] == pytest.approx(0.5, rel=1e-14)

    def test_constant_forcing_equilibrium(self):
        gt = GridTransform(8)
        nl = PointwiseSquare(c=1.5)
        g = averaged_force(nl, gt, SPEC)(np.zeros(8))
        out = solve_averaged_reference(SPEC, nl, np.zeros(8), 100.0, gt)
        assert np.allclose(out, g / SPEC.lambdas, rtol=1e-12)

    def test_variation_of_constants(self):
        gt = GridTransform(8)
        nl = PointwiseSquare(c=1.0)
        g = averaged_force(nl, gt, SPEC)(np.zeros(8))
        x0 = rng.standard_normal(8)
        T = 0.3
        out = solve_averaged_reference(SPEC, nl, x0, T, gt)
        decay = np.exp(-T * SPEC.lambdas)
        assert np.allclose(out, decay * x0 + (1 - decay) * g / SPEC.lambdas, rtol=1e-13)

    @pytest.mark.parametrize("T", [np.nan, np.inf, -1.0])
    def test_rejects_bad_horizon_by_name(self, T):
        with pytest.raises(ValueError, match="^argument 'T' = .* must be nonnegative and finite"):
            solve_averaged_reference(SPEC, LinearInY(1.0), np.ones(8), T)

    def test_general_solver_matches_variation_of_constants(self):
        # f(u, v) = v^2/(1 + v^2) does not depend on u, so Fbar is the constant
        # field g and the ODE solve must reproduce the closed form
        gt = GridTransform(8)
        nl = saturating_square(1.0)
        g = averaged_force(nl, gt, SPEC)(np.zeros(8))
        x0 = 1.0 / SPEC.lambdas
        T = 0.5
        out = solve_averaged_reference(SPEC, nl, x0, T, gt)
        decay = np.exp(-T * SPEC.lambdas)
        assert np.max(np.abs(out - (decay * x0 + (1 - decay) * g / SPEC.lambdas))) <= 1e-9


class TestInPlaceSampler:
    """The sampler steps its own buffers in place, with the bits of the out-of-place algebra."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(scheme=st.sampled_from(list(SchemeKind)),
           nl=st.sampled_from([LinearInY(c=1.3), PointwiseSquare(c=0.7), saturating_square(1.5)]),
           J=st.integers(1, 9), count=st.integers(1, 1100), N=st.integers(1, 6),
           first=st.sampled_from([0, 1, 511, 4097, 2**40 + 3]), seed=st.integers(0, 2**32))
    def test_states_match_the_out_of_place_loop(self, scheme, nl, J, count, N, first, seed):
        # count falls on both sides of GridTransform.rows_per_block, 512 for J <= 9
        spec = dirichlet_spectrum(J)
        gt = None if isinstance(nl, LinearInY) else GridTransform(J)
        x0 = np.linspace(-1.0, 2.0, J)
        cfg = RunConfig(T=0.3, N=N, eps=0.2, scheme=scheme, x0=x0, y0=np.cos(x0))
        expected = loop_states(cfg, spec, nl, gt, seed, first, count)
        states, buffers = [], set()
        for x, y in trajectory(cfg, spec, nl, gt, seed, first, count):
            states.append((x.copy(), None if y is None else y.copy()))
            buffers.add((id(x), id(y)))
        assert len(buffers) == 1  # one x and one y object at every step
        assert len(states) == N + 1
        for (x, y), (ex, ey) in zip(states, expected):
            assert np.array_equal(x, ex)
            assert (y is None) == (ey is None) == (not scheme.coupled)
            assert y is None or np.array_equal(y, ey)
        assert np.array_equal(run_trajectory_batch(cfg, spec, nl, gt, seed, first, count),
                              expected[-1][0])
