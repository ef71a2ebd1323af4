"""Acceptance suite: one test per headline claim, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
and timings.  The Monte Carlo criteria (3, 8, 9) take a few minutes combined;
everything else is seconds.
"""

import json
import time

import numpy as np

from slowfast import (
    FunctionalKind,
    FunctionalSpec,
    LinearInY,
    GridTransform,
    PointwiseSquare,
    RunConfig,
    SchemeKind,
    Transition,
    ap_diagram,
    averaging_curve,
    dirichlet_spectrum,
    eigenvalue_error_bounds,
    evaluate_functional,
    fit_rate,
    gaussian_expectation,
    invariant_measure_check,
    log_ratio_constant,
    mc_estimate,
    quadratic_spectrum,
    run_trajectory_batch,
    second_moment_recursion,
    solve_averaged_reference,
    uniform_sweep,
    weak_error_curve,
)
from slowfast.moments import ModeMoments

PHI_NORM = FunctionalSpec(kind=FunctionalKind.NORM_SQUARED)
TAU_LADDER = [1e-4, 1e-2, 1.0, 1e2, 1e4]


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_invariant_measure_exactness():
    t0 = time.time()
    spec = dirichlet_spectrum(64)
    rep = invariant_measure_check(spec, TAU_LADDER)
    worst = float(rep.residual_modified.max())
    standard_min = float(rep.standard_at_unit.min())
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and standard_min > 1e-3 and elapsed < 1.0
    report(1, "invariant measure exactness", ok,
           f"modified residual {worst:.2e} <= 1e-12, standard residual at unit "
           f"tau*lambda {standard_min:.2e} > 1e-3, {elapsed:.2f}s")


def test_02_operator_identities_and_eigenvalue_bounds():
    t0 = time.time()
    spec = dirichlet_spectrum(64)
    worst_split = 0.0
    worst_expo = 0.0
    for tau in TAU_LADDER:
        # the modified transition at tau = dt/eps; tau*lambda_tau = log(1 + tau*lambda)
        tr = Transition(SchemeKind.COUPLED_MODIFIED, spec.lambdas, tau, 1.0)
        rhs = 0.5 * (tr.a**2 + tr.a)
        worst_split = max(worst_split, float(np.max(np.abs(tr.b1**2 + tr.b2**2 - rhs) / rhs)))
        with np.errstate(under="ignore"):
            expo = np.exp(-np.log1p(tau * spec.lambdas))
        worst_expo = max(worst_expo, float(np.max(np.abs(tr.a - expo) / tr.a)))

    rng = np.random.default_rng(202407)
    n = 10_000
    tau = 10 ** rng.uniform(-6, 6, n)
    lam = 10 ** rng.uniform(-2, 6, n)
    alpha = rng.uniform(0, 1, n)
    z = tau * lam
    small = z < 1e-4
    zs = np.where(small, 1.0, z)
    defect = np.where(small, z / 2 - z * z / 3 + z**3 / 4, 1.0 - np.log1p(zs) / zs)
    lam_gap = lam * defect
    q_gap = defect
    c_alpha = log_ratio_constant(alpha)
    slack = 1 + 1e-9
    bounds_ok = bool(
        np.all(lam_gap >= 0)
        and np.all(q_gap >= 0)
        and np.all(lam_gap <= c_alpha * tau**alpha * lam ** (1 + alpha) * slack)
        and np.all(q_gap <= c_alpha * tau**alpha * lam**alpha * slack)
    )
    # exercise the per-call report path on a subsample
    for i in range(0, n, 400):
        eigenvalue_error_bounds(dirichlet_spectrum(4), tau[i], alpha[i])
    elapsed = time.time() - t0
    ok = worst_split < 1e-12 and worst_expo < 1e-12 and bounds_ok and elapsed < 5.0
    report(2, "operator identities + eigenvalue bounds", ok,
           f"splitting {worst_split:.2e}, exponential {worst_expo:.2e}, "
           f"{n} random triples bounded, {elapsed:.2f}s")


def test_03_limiting_scheme_weak_order_one():
    # quadratic-growth spectrum (lambda_j = j^2) keeps the whole dt ladder in
    # the asymptotic regime of the implicit Euler error at T = 1
    t0 = time.time()
    spec = quadratic_spectrum(16)
    gt = GridTransform(16)
    nl = PointwiseSquare(c=1.0)
    x0 = np.zeros(16)
    x0[0] = 10.0
    h = np.zeros(16)
    h[0] = 1.0
    phi = FunctionalSpec(kind=FunctionalKind.LINEAR, h=h)
    target = float(evaluate_functional(phi, solve_averaged_reference(spec, nl, x0, 1.0, gt)))
    points = []
    for k in range(4, 10):
        dt = 2.0**-k
        N = int(round(1.0 / dt))
        cfg = RunConfig(T=1.0, N=N, eps=1.0, scheme=SchemeKind.LIMITING, x0=x0, y0=np.zeros(16))
        est = mc_estimate(cfg, phi, 200_000, 777, spec, nl, gt, n_threads=4)
        points.append((dt, abs(est.mean - target)))
    fit = fit_rate(points)
    elapsed = time.time() - t0
    ok = 0.85 <= fit.slope <= 1.15 and fit.r_squared >= 0.98
    report(3, "limiting scheme weak order 1", ok,
           f"slope {fit.slope:.3f} in [0.85, 1.15], r2 {fit.r_squared:.4f} >= 0.98, "
           f"n=2e5, {elapsed:.0f}s")


def test_04_fixed_eps_order_at_least_half():
    t0 = time.time()
    spec = dirichlet_spectrum(16)
    nl = LinearInY(c=1.0)
    x0 = 1.0 / spec.lambdas
    y0 = 1.0 / spec.lambdas
    cfg = RunConfig(T=0.5, N=8, eps=1.0, scheme=SchemeKind.COUPLED_MODIFIED, x0=x0, y0=y0)
    dts = [2.0**-k for k in range(4, 13)]
    points = weak_error_curve(cfg, dts, PHI_NORM, spec, nl)
    fit = fit_rate(points)
    elapsed = time.time() - t0
    ok = fit.slope >= 0.45 and fit.r_squared >= 0.99 and elapsed < 10.0
    report(4, "fixed-eps weak order >= 1/2", ok,
           f"slope {fit.slope:.3f} >= 0.45, r2 {fit.r_squared:.4f} >= 0.99, "
           f"noise-free, {elapsed:.1f}s")


def test_05_ap_diagram_commutes():
    t0 = time.time()
    spec = dirichlet_spectrum(16)
    nl = LinearInY(c=1.0)
    cfg = RunConfig(T=1.0, N=64, eps=1.0, scheme=SchemeKind.COUPLED_MODIFIED,
                    x0=1.0 / spec.lambdas, y0=np.ones(16))
    rows = ap_diagram(cfg, [1.0, 1e-1, 1e-2, 1e-3, 1e-4], PHI_NORM, spec, nl)
    gap_first, gap_last = rows[0][1], rows[-1][1]
    ratio = gap_first / gap_last
    elapsed = time.time() - t0
    ok = ratio >= 10.0 and elapsed < 10.0
    report(5, "AP diagram gap collapse", ok,
           f"gap(eps=1) {gap_first:.3e} / gap(eps=1e-4) {gap_last:.3e} = {ratio:.0f}x >= 10x, "
           f"{elapsed:.1f}s")


def test_06_uniform_sweep_exponent():
    t0 = time.time()
    spec = dirichlet_spectrum(16)
    nl = LinearInY(c=1.0)
    cfg = RunConfig(T=1.0, N=16, eps=1.0, scheme=SchemeKind.COUPLED_MODIFIED,
                    x0=1.0 / spec.lambdas, y0=np.ones(16))
    eps_list = [4.0**-k for k in range(0, 7)]      # 2^0 .. 2^-12
    dt_list = [2.0**-k for k in range(4, 11)]      # 2^-4 .. 2^-10
    res = uniform_sweep(cfg, eps_list, dt_list, PHI_NORM, spec, nl, refinement=512)
    # reference bias at the points that define the max-over-eps curve
    arg = np.argmax(res.errors, axis=1)
    bias_at_curve = res.reference_bias[np.arange(len(dt_list)), arg]
    bias_ratio = float(bias_at_curve.max() / res.max_errors.min())
    elapsed = time.time() - t0
    ok = res.fit.slope >= 0.30 and bias_ratio <= 0.10
    report(6, "uniform-in-eps sweep", ok,
           f"max-over-eps slope {res.fit.slope:.3f} >= 0.30 (r2 {res.fit.r_squared:.4f}), "
           f"reference bias/min error {bias_ratio:.3f} <= 0.10 at refinement 512, {elapsed:.0f}s")


def test_07_averaging_rate_in_eps():
    t0 = time.time()
    spec = dirichlet_spectrum(16)
    nl = LinearInY(c=1.0)
    cfg = RunConfig(T=0.5, N=2**12, eps=1.0, scheme=SchemeKind.COUPLED_EXPO,
                    x0=np.zeros(16), y0=np.ones(16))
    rows = averaging_curve([2.0**-k for k in range(2, 11)], cfg, PHI_NORM, spec, nl)
    fit = fit_rate(rows)
    elapsed = time.time() - t0
    ok = fit.slope >= 0.85 and elapsed < 60.0
    report(7, "averaging rate in eps", ok,
           f"slope {fit.slope:.3f} >= 0.85 over eps in 2^-2..2^-10 at N=2^12, {elapsed:.0f}s")


def test_08_oracle_cross_validation():
    t0 = time.time()
    spec = dirichlet_spectrum(16)
    rng = np.random.default_rng(20240808)
    n_samples = 100_000
    worst_dev = 0.0
    for trial in range(20):
        c = float(rng.choice([-1, 1]) * rng.uniform(0.25, 2.0))
        eps = float(2.0 ** rng.uniform(-6, 0))
        T = float(rng.choice([0.25, 0.5]))
        N = int(rng.choice([8, 16, 32]))
        scheme = SchemeKind.COUPLED_MODIFIED if trial % 2 == 0 else SchemeKind.COUPLED_EXPO
        p = rng.uniform(0.5, 2.0)
        x0 = rng.uniform(-1, 1) * np.arange(1, 17, dtype=float) ** (-p)
        y0 = rng.uniform(-1, 1) * np.arange(1, 17, dtype=float) ** (-p)
        nl = LinearInY(c=c)
        cfg = RunConfig(T=T, N=N, eps=eps, scheme=scheme, x0=x0, y0=y0)
        xs = run_trajectory_batch(cfg, spec, nl, None, 1000 + trial, 0, n_samples)
        mom = second_moment_recursion(
            scheme, spec.lambdas, c, eps, cfg.dt, N,
            ModeMoments(mean_x=x0, mean_y=y0, var_x=np.zeros(16), var_y=np.zeros(16),
                        cov_xy=np.zeros(16)))
        for phi in (FunctionalSpec(FunctionalKind.LINEAR, h=np.ones(16)), PHI_NORM):
            vals = evaluate_functional(phi, xs)
            se = float(np.std(vals, ddof=1) / np.sqrt(n_samples))
            exact = gaussian_expectation(phi, mom.mean_x, mom.var_x)
            dev = abs(float(np.mean(vals)) - exact) / se
            worst_dev = max(worst_dev, dev)
    # truncation of the equilibrium pointwise variance: sup error halves
    # (within 25%) each time J doubles
    xi = np.linspace(0, 1, 2001)[1:-1]
    sup = {}
    for J in (8, 16, 32, 64):
        j = np.arange(1, J + 1)[:, None]
        s = (2 * np.sin(j * np.pi * xi) ** 2 / (j * np.pi) ** 2).sum(axis=0)
        sup[J] = float(np.max(np.abs(s - xi * (1 - xi))))
    ratios = [sup[2 * J] / sup[J] for J in (8, 16, 32)]
    halving_ok = all(0.375 <= r <= 0.625 for r in ratios)
    elapsed = time.time() - t0
    ok = worst_dev <= 4.0 and halving_ok and elapsed < 120.0
    report(8, "oracle cross-validation", ok,
           f"worst MC deviation {worst_dev:.2f} sigma <= 4 over 20 configs x 2 functionals, "
           f"sup-error halving ratios {[f'{r:.3f}' for r in ratios]}, {elapsed:.0f}s")


def test_09_reproducibility_across_threads(tmp_path):
    from slowfast import run_cli

    t0 = time.time()
    cfg = {
        "spectrum": {"kind": "dirichlet", "J": 16},
        "nonlinearity": {"variant": "LINEAR_IN_Y", "params": {"c": 1.0}},
        "T": 1.0, "N": 64,
        "x0": {"preset": "decay", "p": 2.0},
        "y0": {"preset": "ones"},
        "phi": {"kind": "BOUNDED_EXP"},
        "eps_list": [1.0, 0.01, 0.0001],
        "n_samples": 20000,
        "master_seed": 31337,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for run, threads in (("a", "1"), ("b", "8"), ("c", "1")):
        out = tmp_path / run
        rc = run_cli(["ap-test", "--config", str(cfg_path), "--output-dir", str(out),
                      "--threads", threads])
        assert rc == 0
        outputs.append((out / "ap_gaps.csv").read_bytes())
    elapsed = time.time() - t0
    ok = outputs[0] == outputs[1] == outputs[2]
    report(9, "byte-identical reproducibility", ok,
           f"ap-test CSV identical across 1-thread, 8-thread and repeat runs "
           f"({len(outputs[0])} bytes, {elapsed:.0f}s)")
