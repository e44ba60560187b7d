"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured quantities before asserting at its stated tolerance."""

import time

import numpy as np

from rflsmooth import cli
from rflsmooth import covariance
from rflsmooth.covariance import delta_sweep
from rflsmooth.delay import pade_coefficients, pade_delay
from rflsmooth.example import REFERENCE, phase_estimation_compact, reference_scaling_point
from rflsmooth.model import UncertainPlant, augment_with_delay, build_compact
from rflsmooth.numkernel import _lyapunov_stack, expm, solve_care
from rflsmooth.reproduce import matrix_check
from rflsmooth.sim import SimConfig, monte_carlo, sample_linear_loop
from rflsmooth.synthesis import ScalingPoint, compute_gains, feasible, minimize_bound

from conftest import random_hurwitz
from test_numkernel import care_eig_oracle, lyap_kron_oracle, random_lqr_problem
from test_synthesis import printed_constraints


def emit(num, name, passed, detail):
    print(f"\nACCEPTANCE {num} [{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return passed


def test_criterion_1_gain_reproduction():
    t0 = time.perf_counter()
    compact = phase_estimation_compact(realization="paper")
    point = reference_scaling_point()
    sol = compute_gains(compact, point)
    elapsed = time.perf_counter() - t0

    results = [matrix_check(n, getattr(sol, n), REFERENCE[n])
               for n in ("Ac", "Bc_tilde", "Cc_tilde")]
    certificates = (
        sol.residual_y <= 1e-8 * (1 + np.linalg.norm(sol.Y) ** 2)
        and sol.residual_x <= 1e-8 * (1 + np.linalg.norm(sol.X) ** 2)
        and np.linalg.eigvalsh(sol.Y).min() > 0
        and np.linalg.eigvalsh(sol.X).min() >= -1e-12
        and sol.rho_yx < point.tau
        and delta_sweep(compact, sol, [0.0])[0].hurwitz
    )
    matched = all(r["passed"] for r in results)
    detail = "; ".join(f"{r['name']} worst rel {r['worst_rel']:.2e}" if r["worst_rel"] is not None
                       else f"{r['name']} {r['detail']}" for r in results)
    passed = (matched or certificates) and elapsed < 1.0
    emit(1, "gain reproduction",
         passed, f"{detail}; certificates={certificates}; runtime {elapsed:.3f}s")
    assert matched, detail
    assert certificates
    assert elapsed < 1.0


def test_criterion_2_cost_bound_optimization():
    compact = phase_estimation_compact(realization="paper")
    t0 = time.perf_counter()
    result = minimize_bound(compact, n_starts=8, seed=0)
    elapsed = time.perf_counter() - t0
    passed = result.vtau <= 0.16 and elapsed < 60.0
    emit(2, "cost bound",
         passed, f"V* = {result.vtau:.4f} (<= 0.16, reference 0.15), "
                 f"tau* = {result.point.tau:.3e}, runtime {elapsed:.1f}s")
    assert result.vtau <= 0.16
    assert elapsed < 60.0


def test_criterion_3_feasibility_region():
    compact = phase_estimation_compact(realization="paper")
    values = np.linspace(0.05, 1.25, 10)
    disagreements = 0
    total = 0
    for l1 in values:
        for l2 in values:
            for l3 in values:
                for l4 in values:
                    lam = np.array([l1, l2, l3, l4])
                    ok, _ = feasible(compact, ScalingPoint(lam=lam, tau=1.0))
                    total += 1
                    if ok != printed_constraints(lam):
                        disagreements += 1
    passed = disagreements == 0
    emit(3, "feasibility region",
         passed, f"{disagreements} disagreements over {total} grid points")
    assert disagreements == 0


def test_criterion_4_sweep_properties():
    compact = phase_estimation_compact(realization="paper")
    sol = compute_gains(compact, reference_scaling_point())
    rows = delta_sweep(compact, sol, np.linspace(-1.0, 0.0, 21))
    psa = np.array([r.psa for r in rows])
    pf = np.array([r.pf for r in rows])
    monotone = bool(np.all(np.diff(psa) <= 1e-12) and np.all(np.diff(pf) <= 1e-12))
    dominated = bool(np.all(psa <= pf))
    stable_at_worst = rows[0].hurwitz and rows[0].delta2 == -1.0
    passed = monotone and dominated and stable_at_worst
    emit(4, "uncertainty sweep",
         passed, f"monotone={monotone}, Psa<=Pf={dominated}, "
                 f"Hurwitz at -1={stable_at_worst}; "
                 f"Psa range [{psa.min():.4f}, {psa.max():.4f}], "
                 f"Pf range [{pf.min():.4f}, {pf.max():.4f}]")
    assert monotone and dominated and stable_at_worst


def test_criterion_5_monte_carlo_levels():
    compact = phase_estimation_compact(realization="paper")
    sol = compute_gains(compact, reference_scaling_point())
    base = SimConfig(runs=2000, master_seed=42)
    smo = monte_carlo(base, compact, sol)
    ngcf = smo.readouts["filter"]          # same runs, same pass

    ref_s, ref_f = REFERENCE["mc_smoother"], REFERENCE["mc_ngcf"]
    dev_s = abs(smo.error_covariance - ref_s) / smo.standard_error
    dev_f = abs(ngcf.error_covariance - ref_f) / ngcf.standard_error
    ratio = ngcf.error_covariance / smo.error_covariance
    ok_s = dev_s <= 4.0 and smo.healthy
    ok_f = dev_f <= 4.0 and ngcf.healthy
    ok_ratio = 1.15 <= ratio <= 2.0
    passed = ok_s and ok_f and ok_ratio
    emit(5, "Monte Carlo levels",
         passed,
         f"smoother {smo.error_covariance:.4f}+-{smo.standard_error:.4f} "
         f"vs {ref_s} ({dev_s:.1f} SE); "
         f"ngcf {ngcf.error_covariance:.4f}+-{ngcf.standard_error:.4f} "
         f"vs {ref_f} ({dev_f:.1f} SE); ratio {ratio:.2f} in [1.15, 2.0]={ok_ratio}; "
         f"divergent {smo.runs_diverged}+{ngcf.runs_diverged}")
    assert ok_ratio, f"ratio {ratio:.3f} outside [1.15, 2.0]"
    assert ok_s, (f"smoother covariance {smo.error_covariance:.4f} is "
                  f"{dev_s:.1f} SE from {ref_s}")
    assert ok_f, (f"ngcf covariance {ngcf.error_covariance:.4f} is "
                  f"{dev_f:.1f} SE from {ref_f}")


def test_criterion_6_kernel_oracles():
    rng = np.random.default_rng(123)
    worst_care = 0.0
    for _ in range(50):
        prob = random_lqr_problem(rng, 4)
        got = solve_care(prob).x
        oracle = care_eig_oracle(prob.a, prob.s, prob.q)
        worst_care = max(worst_care,
                         np.linalg.norm(got - oracle) / (1 + np.linalg.norm(oracle)))
    worst_lyap = 0.0
    for _ in range(50):
        a = random_hurwitz(rng, 5)
        g = rng.standard_normal((5, 2))
        w = g @ g.T
        p = _lyapunov_stack(a[None], w)[1][0]
        oracle = lyap_kron_oracle(a, w)
        worst_lyap = max(worst_lyap,
                         np.linalg.norm(p - oracle) / (1 + np.linalg.norm(oracle)))
    worst_expm = 0.0
    for _ in range(50):
        a = rng.standard_normal((4, 4))
        t1, t2 = rng.uniform(0.1, 0.6, size=2)
        lhs = expm(a, t1 + t2)
        rhs = expm(a, t1) @ expm(a, t2)
        worst_expm = max(worst_expm,
                         np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))
    passed = worst_care <= 1e-8 and worst_lyap <= 1e-10 and worst_expm <= 1e-8
    emit(6, "numerical kernel oracles",
         passed, f"CARE {worst_care:.2e} (<=1e-8), Lyapunov {worst_lyap:.2e} "
                 f"(<=1e-10), expm semigroup {worst_expm:.2e} (<=1e-8), 50 each")
    assert worst_care <= 1e-8
    assert worst_lyap <= 1e-10
    assert worst_expm <= 1e-8


def test_criterion_7_pade_correctness():
    delta = 3.1e-6
    num, den = pade_coefficients(2, delta)
    coeff_err = max(
        abs(den[1] - 6.0 / delta) / (6.0 / delta),
        abs(den[2] - 12.0 / delta ** 2) / (12.0 / delta ** 2),
        abs(num[1] + 6.0 / delta) / (6.0 / delta),
        abs(num[2] - 12.0 / delta ** 2) / (12.0 / delta ** 2),
    )
    model = pade_delay(2, delta)
    omega = np.linspace(0.0, 4.0 / delta, 600)
    allpass_err = float(np.abs(
        np.abs(model.frequency_response(omega)[:, 0, 0]) - 1.0).max())
    dc_err = float(abs(model.dc_gain()[0, 0] - 1.0))
    passed = coeff_err <= 1e-10 and allpass_err <= 1e-8 and dc_err <= 1e-12
    emit(7, "Pade delay correctness",
         passed, f"coefficients {coeff_err:.2e} (<=1e-10), "
                 f"all-pass {allpass_err:.2e} (<=1e-8), DC {dc_err:.2e} (<=1e-12)")
    assert coeff_err <= 1e-10
    assert allpass_err <= 1e-8
    assert dc_err <= 1e-12


def test_criterion_8_analytic_vs_empirical():
    plant = UncertainPlant(A=[[-1.0]], B1=[[1.0, 0.0]], C0=[[1.0]],
                           C2=[[1.0]], D21=[[0.0, 0.4]])
    lag = 0.4
    aug = augment_with_delay(plant, pade_delay(1, lag))
    compact = build_compact(aug)
    sol = compute_gains(compact, ScalingPoint(lam=np.zeros(0), tau=20.0))
    abold, bbold, _ = covariance._loops(compact, sol, 0.0, np.zeros(1))
    analytic = delta_sweep(compact, sol, [0.0])[0].psa

    n = compact.n
    sel_est = np.hstack([np.zeros((1, n)), compact.aug.Ca])[0]
    sel_tgt = np.hstack([compact.aug.Cp0, np.zeros((1, n))])[0]
    mc = sample_linear_loop(abold[0], bbold, sel_est, sel_tgt,
                            dt=2e-3, horizon=10.0, lag=lag,
                            runs=10000, master_seed=2024)
    dev = abs(mc.error_covariance - analytic) / mc.standard_error
    passed = dev <= 3.0
    emit(8, "analytic vs empirical covariance",
         passed, f"analytic {analytic:.5f}, empirical {mc.error_covariance:.5f} "
                 f"+- {mc.standard_error:.5f} ({dev:.2f} SE over {mc.runs_completed} runs)")
    assert dev <= 3.0


def test_criterion_9_reproduction_determinism(tmp_path):
    artifacts = ("reproduction.json", "synthesis.json", "sweep.csv")
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli.main(["reproduce-paper", "--out-dir", str(out), "--seed", "0"])
        assert code == 0
        outs.append(out)
    identical = all((outs[0] / a).read_bytes() == (outs[1] / a).read_bytes()
                    for a in artifacts)
    emit(9, "reproduction determinism",
         identical, f"byte-identical artifacts: {artifacts}")
    assert identical
