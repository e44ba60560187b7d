import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla

from rflsmooth import cli, covariance, numkernel, reproduce
from rflsmooth.covariance import SweepRow, delta_sweep, write_sweep_csv
from rflsmooth.delay import pade_delay
from rflsmooth.errors import StationarityError, ToolkitError
from rflsmooth.example import phase_estimation_compact
from rflsmooth.model import UncertainPlant, augment_with_delay, build_compact
from rflsmooth.sim import sample_linear_loop
from rflsmooth.synthesis import ScalingPoint, compute_gains

from test_numkernel import lyap_kron_oracle
from test_synthesis import generated_case, into_lmi_set, realization_case, stable_case


@pytest.fixture(scope="module")
def nominal_loop(paper_compact, paper_solution):
    """Abold and Bbold of the loop closed at delta1 = delta2 = 0."""
    abold, bbold, _ = covariance._loops(paper_compact, paper_solution, 0.0, np.zeros(1))
    return abold[0], bbold


def test_zero_delta_block_structure(paper_compact, paper_solution, nominal_loop):
    n = paper_compact.n
    a = nominal_loop[0]
    np.testing.assert_allclose(a[:n, :n], paper_compact.aug.Ap)
    np.testing.assert_allclose(a[:n, n:], 0.0, atol=1e-15)
    np.testing.assert_allclose(a[n:, :n], paper_solution.Bc_tilde @ paper_compact.Ct2)
    np.testing.assert_allclose(a[n:, n:], paper_solution.Ac)


def test_noise_block(paper_compact, paper_solution, nominal_loop):
    n = paper_compact.n
    np.testing.assert_allclose(nominal_loop[1][:n], paper_compact.Bp1w)
    np.testing.assert_allclose(nominal_loop[1][n:],
                               paper_solution.Bc_tilde @ paper_compact.Db21)


def test_delta_out_of_unit_ball(paper_compact, paper_solution):
    with pytest.raises(ValueError, match=r"\|delta1\| <= 1, got -1.5"):
        delta_sweep(paper_compact, paper_solution, [0.0], delta1=-1.5)
    with pytest.raises(ValueError, match=r"\|delta2\| <= 1, got -1.5"):
        covariance._loops(paper_compact, paper_solution, 0.0, np.array([-1.5]))


def test_worst_case_hurwitz(paper_compact, paper_solution):
    assert delta_sweep(paper_compact, paper_solution, [-1.0])[0].hurwitz


def test_structural_zero_top_right_block(paper_compact, paper_solution):
    """Bt1 Delta Dt12 Cc vanishes for any Delta here because the populated
    column of Bt1 multiplies only zero rows of Dt12."""
    n = paper_compact.n
    abold = covariance._loops(paper_compact, paper_solution, 0.0, np.array([-0.7]))[0]
    np.testing.assert_allclose(abold[0, :n, n:], 0.0, atol=1e-15)


def test_covariance_psd_and_scalar(paper_compact, paper_solution, nominal_loop):
    abscissa, p, _, psa, pf = covariance._covariances(
        paper_compact, paper_solution, nominal_loop[0][None], nominal_loop[1],
        paper_compact.aug.delay.delta)
    assert abscissa[0] < 0
    assert np.linalg.eigvalsh(p[0]).min() >= -1e-10 * np.linalg.norm(p[0])
    assert psa.shape == pf.shape == (1, 1, 1)
    assert psa[0, 0, 0] >= 0
    assert pf[0, 0, 0] >= 0
    row = delta_sweep(paper_compact, paper_solution, [0.0])[0]
    assert (row.psa, row.pf) == (psa[0, 0, 0], pf[0, 0, 0])


def test_zero_lag_collapses_to_static_form(paper_compact, paper_solution, nominal_loop):
    """P and Phi cover the solved states [x; x^]: nbar + n of them."""
    _, p, phi, psa, _ = covariance._covariances(
        paper_compact, paper_solution, nominal_loop[0][None], nominal_loop[1], lag=0.0)
    nbar, n = paper_compact.plant.nbar, paper_compact.n
    cw = np.hstack([paper_compact.plant.C0, np.zeros((1, n))])
    ca = np.hstack([np.zeros((1, nbar)), paper_compact.aug.Ca])
    direct = (cw - ca) @ p[0] @ (cw - ca).T
    np.testing.assert_allclose(psa[0], direct, rtol=1e-10)
    np.testing.assert_allclose(phi[0], np.eye(nbar + n), atol=1e-12)


def test_unstable_loop_raises(monkeypatch, paper_solution):
    """Gains whose loop is not Hurwitz leave no stationary covariance:
    reproduce-paper ends with a StationarityError, not with NaN levels."""
    broken = dataclasses.replace(paper_solution, Ac=-paper_solution.Ac)
    monkeypatch.setattr(reproduce, "compute_gains", lambda *args: broken)
    with pytest.raises(StationarityError, match="closed loop is not Hurwitz"):
        reproduce.run_reproduction()


@pytest.fixture(scope="module")
def rows(paper_compact, paper_solution):
    return delta_sweep(paper_compact, paper_solution, np.linspace(-1, 0, 21))


class TestSweep:
    def test_monotone_and_dominated(self, rows):
        psa = np.array([r.psa for r in rows])
        pf = np.array([r.pf for r in rows])
        assert all(r.hurwitz for r in rows)
        assert np.all(np.diff(psa) <= 1e-12)      # decreasing toward delta2 = 0
        assert np.all(np.diff(pf) <= 1e-12)
        assert np.all(psa <= pf)

    def test_continuity(self, rows):
        psa = np.array([r.psa for r in rows])
        steps = np.abs(np.diff(psa))
        assert steps.max() <= 10 * np.median(steps) + 1e-12

    def test_reversed_grid_identical(self, paper_compact, paper_solution, rows):
        rev = delta_sweep(paper_compact, paper_solution,
                          np.linspace(-1, 0, 21)[::-1])
        assert [(r.delta2, r.psa, r.pf) for r in rev] == \
               [(r.delta2, r.psa, r.pf) for r in rows]

    def test_single_point(self, paper_compact, paper_solution):
        rows = delta_sweep(paper_compact, paper_solution, [0.0])
        assert len(rows) == 1 and rows[0].delta2 == 0.0

    def test_grid_range_checked(self, paper_compact, paper_solution):
        with pytest.raises(ValueError):
            delta_sweep(paper_compact, paper_solution, [0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_rejected(self, paper_compact, paper_solution, bad):
        with pytest.raises(ValueError, match=r"delta2 grid must lie within \[-1, 0\]"):
            delta_sweep(paper_compact, paper_solution, [-0.5, bad])

    def test_empty_grid(self, paper_compact, paper_solution):
        assert delta_sweep(paper_compact, paper_solution, []) == []

    def test_unstable_rows_flagged_not_filled(self, paper_compact, paper_solution):
        import dataclasses
        broken = dataclasses.replace(paper_solution, Ac=-paper_solution.Ac)
        rows = delta_sweep(paper_compact, broken, [0.0, -1.0])
        assert all(not r.hurwitz for r in rows)
        assert all(np.isnan(r.psa) and np.isnan(r.pf) for r in rows)

    def test_csv_deterministic(self, rows, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(rows, p1)
        write_sweep_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()
        assert header[1] == "delta2,psa,pf,hurwitz"


@pytest.mark.parametrize("order", range(1, 7))
def test_lyapunov_matches_kronecker_oracle_on_closed_loops(params, reference_point, order):
    """Loop sizes 4-14 in the balanced realization, across the sweep range."""
    compact = phase_estimation_compact(params, order=order, realization="balanced")
    sol = compute_gains(compact, reference_point)
    abold, bbold, _ = covariance._loops(compact, sol, 0.0, np.array([-1.0, -0.5, 0.0]))
    w = bbold @ bbold.T
    abscissa, p = numkernel._lyapunov_stack(abold, w)
    assert np.all(abscissa < 0)
    for a, pj, d2 in zip(abold, p, (-1.0, -0.5, 0.0)):
        oracle = lyap_kron_oracle(a, w)
        assert np.linalg.norm(pj - oracle) <= 1e-10 * np.linalg.norm(oracle), (order, d2)


def test_sweep_point_is_one_schur_form(monkeypatch, paper_solution):
    """Each sweep point decides stability and solves its Lyapunov equation
    from one real Schur form, one more Schur form, taken once per delay
    model, gives Fa's share of every point's flag, and one expm call serves
    the whole sweep; no eigenvalue call is made and SciPy's schur wrapper is
    not used.  `gees` workspace queries, made once per size, are not counted."""
    compact = phase_estimation_compact(realization="paper")    # a delay model of its own
    calls = {"_gees": 0, "expm": 0, "schur": 0, "eigvals": 0}
    for module, name, key in ((numkernel, "_gees", "_gees"), (covariance, "expm", "expm"),
                              (sla, "schur", "schur"), (np.linalg, "eigvals", "eigvals"),
                              (numkernel, "_eigvals", "eigvals")):
        fn = getattr(module, name)

        def counted(*args, _name=key, _fn=fn, **kwargs):
            calls[_name] += kwargs.get("lwork") != -1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    rows = delta_sweep(compact, paper_solution, np.linspace(-1, 0, 7))
    assert all(r.hurwitz for r in rows)
    assert calls == {"_gees": 7 + 1, "expm": 1, "schur": 0, "eigvals": 0}
    delta_sweep(compact, paper_solution, [0.0])
    assert calls == {"_gees": 7 + 1 + 1, "expm": 2, "schur": 0, "eigvals": 0}


@pytest.mark.parametrize("realization", ["paper", "balanced"])
def test_reproduction_reads_its_own_sweep(monkeypatch, realization):
    """reproduce-paper takes both loop flags and the nominal levels from its
    one sweep: one Lyapunov stack, one expm call and one loop stack (a second
    sweep would add to these), and one eigenvalue call, rho(YX)'s."""
    calls = {"eigvals": 0, "_lyapunov_stack": 0, "expm": 0, "_loops": 0}
    for module, name, key in ((numkernel, "_eigvals", "eigvals"),
                              (covariance, "_lyapunov_stack", "_lyapunov_stack"),
                              (covariance, "expm", "expm"), (covariance, "_loops", "_loops")):
        fn = getattr(module, name)

        def counted(*args, _name=key, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    report = reproduce.run_reproduction(realization=realization)
    assert report["passed"]
    assert calls == {"eigvals": 1, "_lyapunov_stack": 1, "expm": 1, "_loops": 1}
    nominal = report["sweep"][-1]
    assert nominal.delta2 == 0.0 and report["sweep"][0].delta2 == -1.0
    assert (report["nominal_Psa"], report["nominal_Pf"]) == (nominal.psa, nominal.pf)


def test_unstable_nominal_loop_writes_no_report(monkeypatch, tmp_path):
    """A sweep whose delta2 = 0 row is not Hurwitz ends reproduce-paper with a
    StationarityError, the exit status of an unstable loop, and no artifact
    with NaN levels."""
    sweep = reproduce.delta_sweep

    def unstable_nominal(*args):
        rows = sweep(*args)
        return rows[:-1] + [SweepRow(0.0, float("nan"), float("nan"), 0.5)]

    monkeypatch.setattr(reproduce, "delta_sweep", unstable_nominal)
    with pytest.raises(StationarityError, match="max Re eig = 0.5"):
        reproduce.run_reproduction()
    out = tmp_path / "rep"
    assert cli.main(["reproduce-paper", "--out-dir", str(out)]) == cli.EXIT_UNSTABLE
    assert not (out / "reproduction.json").exists()


def test_solve_covers_plant_and_estimator_states_only(monkeypatch, params, reference_point):
    """At balanced Pade order 6 the loop has 2n = 14 states, but the plant's
    delay states are not solved for: each Lyapunov entry is 8 x 8."""
    compact = phase_estimation_compact(params, order=6, realization="balanced")
    sol = compute_gains(compact, reference_point)
    shapes, stack = [], covariance._lyapunov_stack

    def recorded(a, *args):
        shapes.append(a.shape)
        return stack(a, *args)

    monkeypatch.setattr(covariance, "_lyapunov_stack", recorded)
    rows = delta_sweep(compact, sol, np.linspace(-1.0, 0.0, 5))
    abold, bbold, _ = covariance._loops(compact, sol, 0.0, np.zeros(1))
    _, p, phi, _, _ = covariance._covariances(compact, sol, abold, bbold, compact.aug.delay.delta)
    assert all(r.hurwitz for r in rows) and shapes == [(5, 8, 8), (1, 8, 8)]
    assert p.shape == phi.shape == (1, 8, 8)


def test_unstable_delay_model_flags_every_row(paper_compact, paper_solution):
    """A delay model with an eigenvalue of Fa in the right half plane makes
    every loop non-Hurwitz, although the plant and estimator block, which is
    the one solved, is that of its stable twin."""
    dly = paper_compact.aug.delay
    unstable = dataclasses.replace(dly, fa=-dly.fa)
    assert np.linalg.eigvals(unstable.fa).real.max() > 0
    compact = build_compact(augment_with_delay(paper_compact.plant, unstable))
    rows = delta_sweep(compact, paper_solution, np.linspace(-1.0, 0.0, 5))
    assert not any(r.hurwitz for r in rows)
    assert all(np.isnan(r.psa) and np.isnan(r.pf) for r in rows)
    abold = covariance._loops(compact, paper_solution, 0.0, np.linspace(-1.0, 0.0, 5))[0]
    assert np.all(np.linalg.eigvals(abold).real.max(axis=1) > 0)


def _oracle_levels(compact, sol, abold, bbold):
    """(Psa, Pf) of the loop dX = Abold X dt + Bbold dW from SciPy's own Lyapunov
    solver and expm, with the size of the terms they are formed from."""
    p = sla.solve_continuous_lyapunov(abold, -bbold @ bbold.T)
    phi = sla.expm(abold * compact.aug.delay.delta)
    n, m = compact.n, compact.m
    cw = np.hstack([compact.aug.Cp0, np.zeros((m, n))])
    ca = np.hstack([np.zeros((m, n)), compact.aug.Ca])
    cf = cw - np.hstack([np.zeros((m, n)), sol.Cc])
    terms = [(c1 @ x @ c2.T)[0, 0] for c1, x, c2 in
             ((cw, p, cw), (ca, phi @ p, cw), (ca, p, ca), (cf, p, cf))]
    return terms[0] - 2 * terms[1] + terms[2], terms[3], np.abs(terms).sum()


def _lag_loops(compact, sol, grid):
    """A t for each loop whose lag transition e^(A t) a sweep takes."""
    with mock.patch.object(covariance, "expm", wraps=numkernel.expm) as spy:
        delta_sweep(compact, sol, grid)
    a, t = spy.call_args.args
    return a * t


def test_lag_transition_against_40_digits(reference_point):
    """The sweep's e^(A t) over [x; x^] against mpmath's 40-digit exponential,
    the error taken relative in the Frobenius norm.  On the bundled example
    (balanced Pade orders 1-6 and the paper realization, delta2 = -1, -0.5
    and 0) each loop's error is at most twice SciPy's expm's, or 4e-16.  On
    generated plants behind 0.1-1 s delays of orders 0-6 its median is at
    most SciPy's, and it is within three times SciPy's, or 4e-16, at each
    loop: there the ratio is rounding error amplified by up to four
    squarings, which can favour either side by more than a factor two."""
    mpmath = pytest.importorskip("mpmath")

    def errors(loops):
        ours, scipys = numkernel.expm(loops), sla.expm(loops)
        out = []
        for a, x, y in zip(loops, ours, scipys):
            with mpmath.workdps(40):
                e = mpmath.expm(mpmath.matrix(a.tolist()))
                ref = np.array(e.tolist(), dtype=float)
            out.append([np.linalg.norm(z - ref) / np.linalg.norm(ref) for z in (x, y)])
        return np.array(out).T

    grid = [-1.0, -0.5, 0.0]
    bundled = []
    for order, realization in [(k, "balanced") for k in range(1, 7)] + [(2, "paper")]:
        compact = phase_estimation_compact(order=order, realization=realization)
        bundled.append(_lag_loops(compact, compute_gains(compact, reference_point), grid))
    for loops in bundled:
        ours, scipys = errors(loops)
        assert len(loops) == 3 and np.all(ours <= np.maximum(2.0 * scipys, 4e-16)), (ours, scipys)
    generated = []
    for seed in range(60):
        compact, lam = stable_case(seed)
        for tau in (1.0, 100.0):
            try:
                sol = compute_gains(compact, ScalingPoint(lam=lam, tau=tau))
            except ToolkitError:
                continue
            generated += list(_lag_loops(compact, sol, grid))
    sizes = {len(a) for a in generated}
    assert len(generated) > 50 and sizes == set(range(4, 10)), sizes
    ours, scipys = np.concatenate([errors(np.array([a])) for a in generated], axis=1)
    assert np.median(ours) <= np.median(scipys)
    assert np.all(ours <= np.maximum(3.0 * scipys, 4e-16)), (ours / scipys).max()


def test_stacking_does_not_change_a_rows_bits():
    """On generated plants of every (k, g) class behind every delay order,
    each row of a stacked sweep has the bits of a one-point sweep, its delta2
    included (also where g = 0 and Delta holds no entry of it), its abscissa
    and flag agree with the eigenvalues, and a stable row agrees with SciPy's
    Lyapunov solver and expm.
    `stable_case`'s (1, 0) and (0, 1) plants have a square feedthrough D, so
    no filter noise and no certified point; those classes come from plants
    with a two-wide uncertainty channel or with no physical measurement."""
    grid = np.linspace(-1.0, 0.0, 6)
    classes, orders, unstable = set(), set(), 0
    cases = [stable_case(seed) for seed in range(400)]
    cases += [stable_case(seed, (1, 0), width=2) for seed in range(10)]
    cases += [stable_case(seed, (0, 1), l=0) for seed in range(10)]
    for seed, (compact, lam) in enumerate(cases):
        for tau in (1.0, 100.0):
            try:
                sol = compute_gains(compact, ScalingPoint(lam=lam, tau=tau))
            except ToolkitError:
                continue
            classes.add((compact.k, compact.g))
            orders.add(compact.aug.delay.na)
            for d1 in (0.0, -0.6):
                for row in delta_sweep(compact, sol, grid, delta1=d1):
                    assert repr(delta_sweep(compact, sol, [row.delta2], delta1=d1)) == repr([row])
                    abold, bbold, _ = covariance._loops(compact, sol, d1, np.array([row.delta2]))
                    eigs = np.linalg.eigvals(abold[0])
                    eig = eigs.real.max()
                    assert abs(row.abscissa - eig) <= 1e-12 * max(1.0, np.abs(eigs).max())
                    if abs(eig) > 1e-12:
                        assert row.hurwitz == (eig < 0), (seed, tau, d1, row)
                    if not row.hurwitz:
                        unstable += 1
                        continue
                    psa, pf, scale = _oracle_levels(compact, sol, abold[0], bbold)
                    assert abs(row.psa - psa) <= 1e-8 * scale, (seed, tau, d1, row)
                    assert abs(row.pf - pf) <= 1e-8 * scale, (seed, tau, d1, row)
    assert len(classes) == 9 and orders == set(range(7)) and unstable > 0


def test_realization_changes_neither_bound_nor_sweep():
    """On generated plants of every (k, g) class, wherever synthesis succeeds
    in both the paper and the balanced realization of the delay, V and every
    sweep row agree within 1e-8 of the size of the terms they are formed from
    (V's are of one sign).  The (1, 0) and (0, 1) classes come from plants
    with a two-wide uncertainty channel or with no physical measurement, as
    in `test_stacking_does_not_change_a_rows_bits`."""
    grid = np.linspace(-1.0, 0.0, 6)
    draws = [(seed, None, {}) for seed in range(300)]
    draws += [(seed, (1, 0), {"width": 2}) for seed in range(10)]
    draws += [(seed, (0, 1), {"l": 0}) for seed in range(10)]
    draws += [(seed, (2, 2), {}) for seed in range(30)]
    classes, pairs = set(), 0
    for seed, kg, shape in draws:
        found = []
        for realization in ("paper", "balanced"):
            compact, lam = realization_case(seed, realization, kg, **shape)
            for tau in (1.0, 100.0):
                try:
                    sol = compute_gains(compact, ScalingPoint(lam=lam, tau=tau))
                except ToolkitError:
                    found.append(None)
                    continue
                rows = delta_sweep(compact, sol, grid)
                abold, bbold, _ = covariance._loops(compact, sol, 0.0, grid)
                scales = [_oracle_levels(compact, sol, a, bbold)[2] if r.hurwitz else np.nan
                          for a, r in zip(abold, rows)]
                found.append((sol.Vtau, rows, scales))
        for paper, balanced in zip(found[:2], found[2:]):
            if paper is None or balanced is None:
                continue
            pairs += 1
            classes.add((compact.k, compact.g))
            assert abs(paper[0] - balanced[0]) <= 1e-8 * abs(balanced[0]), seed
            for p, b, scale in zip(paper[1], balanced[1], balanced[2]):
                assert p.hurwitz == b.hurwitz, (seed, b)
                if b.hurwitz:
                    assert abs(p.psa - b.psa) <= 1e-8 * scale, (seed, b)
                    assert abs(p.pf - b.pf) <= 1e-8 * scale, (seed, b)
    assert len(classes) == 9 and pairs > 100, (classes, pairs)


def test_rectangular_uncertainty_channel():
    """A channel with r_s = 2 inputs and h_s = 1 output closes with
    Delta = delta1 I(2, 1), of norm |delta1|, and its rows agree with a
    one-point sweep and with SciPy's Lyapunov solver and expm.  Delta's last
    entry is 0, and the one-point row still gives the delta2 it was closed at."""
    compact, _ = generated_case(np.random.default_rng(0), 1, 0, (), width=2, height=1)
    assert (compact.r, compact.h) == (2, 1)
    sol = compute_gains(compact, ScalingPoint(lam=into_lmi_set(compact, np.ones(1)), tau=1.0))
    rows = delta_sweep(compact, sol, np.linspace(-1.0, 0.0, 3), delta1=-0.6)
    assert all(row.hurwitz for row in rows)
    for row in rows:
        abold, bbold, delta = covariance._loops(compact, sol, -0.6, np.array([row.delta2]))
        assert np.array_equal(delta[0], [[-0.6], [0.0]])
        assert repr(delta_sweep(compact, sol, [row.delta2], delta1=-0.6)) == repr([row])
        psa, pf, scale = _oracle_levels(compact, sol, abold[0], bbold)
        assert abs(row.psa - psa) <= 1e-8 * scale and abs(row.pf - pf) <= 1e-8 * scale


def test_analytic_matches_linear_monte_carlo():
    """Small loop: Lyapunov-based smoothed covariance vs an empirical estimate
    from simulated sample paths (3 standard errors)."""
    plant = UncertainPlant(A=[[-1.0]], B1=[[1.0, 0.0]], C0=[[1.0]],
                           C2=[[1.0]], D21=[[0.0, 0.4]])
    aug = augment_with_delay(plant, pade_delay(1, 0.4))
    compact = build_compact(aug)
    sol = compute_gains(compact, ScalingPoint(lam=np.zeros(0), tau=20.0))
    abold, bbold, _ = covariance._loops(compact, sol, 0.0, np.zeros(1))
    analytic = delta_sweep(compact, sol, [0.0])[0].psa

    n = compact.n
    sel_est = np.hstack([np.zeros((1, n)), compact.aug.Ca])[0]
    sel_tgt = np.hstack([compact.aug.Cp0, np.zeros((1, n))])[0]
    mc = sample_linear_loop(
        abold[0], bbold, sel_est, sel_tgt,
        dt=2e-3, horizon=10.0, lag=0.4, runs=3000, master_seed=11,
    )
    assert abs(mc.error_covariance - analytic) <= 3 * mc.standard_error
