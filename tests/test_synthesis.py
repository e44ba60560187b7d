import dataclasses

import numpy as np
import pytest

from rflsmooth import synthesis
from rflsmooth.delay import identity_delay
from rflsmooth.errors import CouplingError, InfeasibleError
from rflsmooth.example import REFERENCE
from rflsmooth.model import UncertainPlant, augment_with_delay, build_compact
from rflsmooth.numkernel import RiccatiProblem, solve_care
from rflsmooth.reproduce import matrix_check
from rflsmooth.synthesis import (
    ScalingPoint,
    assemble_multipliers,
    compute_gains,
    control_riccati,
    cost_bound,
    cost_weights,
    feasible,
    filter_riccati,
    minimize_bound,
)


def printed_constraints(lam):
    """Closed-form admissibility conditions for the bundled example."""
    l1, l2, l3, l4 = lam
    return (l1 > 0 and l2 > 0 and l3 > 0 and l4 > 0
            and l1 <= 1 and l2 + l3 <= 1 and l2 + l4 <= 1
            and (1 - l2 - l3) * (1 - l2 - l4) - l2 ** 2 >= 0)


def scalar_plant(a0=1.0, w=1.4, c=1.0, sigma=0.5, c0=1.0):
    """Nominal scalar plant with uncorrelated process/measurement noise."""
    return UncertainPlant(
        A=[[-a0]], B1=[[w, 0.0]], C0=[[c0]], C2=[[c]], D21=[[0.0, sigma]],
    )


def scalar_compact(**kwargs):
    plant = scalar_plant(**kwargs)
    return build_compact(augment_with_delay(plant, identity_delay(1)))


class TestMultipliers:
    def test_printed_structure(self, paper_compact):
        lam = np.array([0.7, 0.3, 0.2, 0.1])
        mult = assemble_multipliers(paper_compact, lam)
        l1, l2, l3, l4 = lam
        expected = np.array([
            [l1, 0.0, 0.0],
            [0.0, l2 + l3, -l2],
            [0.0, -l2, l2 + l4],
        ])
        np.testing.assert_allclose(mult.M, expected, atol=1e-15)
        np.testing.assert_allclose(mult.N, expected, atol=1e-15)  # beta = 1

    def test_printed_reference_point(self, paper_compact, reference_point):
        mult = assemble_multipliers(paper_compact, reference_point.lam)
        np.testing.assert_allclose(mult.M, REFERENCE["M"], atol=1e-12)

    def test_inverse_closed_form(self, paper_compact):
        lam = np.array([0.9, 0.45, 0.02, 0.03])
        l1, l2, l3, l4 = lam
        mult = assemble_multipliers(paper_compact, lam)
        den = l3 * l4 + l2 * (l3 + l4)
        expected = np.array([
            [1.0 / l1, 0.0, 0.0],
            [0.0, (l2 + l4) / den, l2 / den],
            [0.0, l2 / den, (l2 + l3) / den],
        ])
        np.testing.assert_allclose(np.linalg.inv(mult.M), expected, rtol=1e-12)

    def test_one_hot_linearity(self, paper_compact):
        for j in range(paper_compact.ktilde):
            lam = np.zeros(paper_compact.ktilde)
            lam[j] = 1.0
            mult = assemble_multipliers(paper_compact, lam)
            np.testing.assert_allclose(mult.M, mult.M_terms[j], atol=1e-15)
            np.testing.assert_allclose(mult.N, mult.N_terms[j], atol=1e-15)

    def test_stacks_match_loop_sum_bit_for_bit(self):
        """Two nonlinearities with beta != 1 and a two-input uncertainty
        channel: the stacked sum equals the term-by-term loop exactly."""
        b1, d21 = np.array([[1.0, 0.2], [0.3, 0.8]]), np.array([[0.1, 0.5]])
        plant = UncertainPlant(
            A=[[-2.0, 0.3], [0.1, -1.5]], B1=b1, C0=[[1.0, 0.3]], C2=[[0.8, -0.2]],
            D21=d21, B1_nl=([[0.2], [0.1]], [[-0.1], [0.3]]),
            C1_nl=([[0.4, 0.1]], [[-0.2, 0.5]]), D21_nl=([[0.05]], [[0.02]]),
            B1_unc=(b1,), C1_unc=([[0.3, 0.2]],), D21_unc=(d21,), beta=(0.7, 1.3),
            S0=([[1.0]],),
        )
        compact = build_compact(augment_with_delay(plant, identity_delay(1)))
        r, h, g = 2, 1, 2
        lam = np.random.default_rng(4).uniform(0.1, 1.0, compact.ktilde)

        def rank_one(size, coeffs):
            v = np.zeros(size)
            for idx, c in coeffs:
                v[idx] = c
            return np.outer(v, v)

        m_terms = [np.diag([1.0, 1.0, 0, 0, 0, 0])]
        n_terms = [np.diag([1.0, 0, 0, 0, 0])]
        for kind in range(3):
            for i, b in enumerate(plant.beta):
                pairs = [(i, 1.0), (g + i, -1.0)] if kind == 0 else [((kind - 1) * g + i, 1.0)]
                m_terms.append(rank_one(r + 2 * g, [(r + j, c) for j, c in pairs]))
                n_terms.append(rank_one(h + 2 * g, [(h + j, b * c) for j, c in pairs]))
        mult = assemble_multipliers(compact, lam)
        assert np.array_equal(mult.M, sum(w * t for w, t in zip(lam, m_terms)))
        assert np.array_equal(mult.N, sum(w * t for w, t in zip(lam, n_terms)))

    def test_length_mismatch(self, paper_compact):
        with pytest.raises(ValueError):
            assemble_multipliers(paper_compact, np.ones(3))


class TestFeasibility:
    def test_reference_point_feasible(self, paper_compact, reference_point):
        ok, margin = feasible(paper_compact, reference_point)
        assert ok and margin > 0

    def test_all_ones_infeasible(self, paper_compact):
        ok, _ = feasible(paper_compact, ScalingPoint(lam=np.ones(4), tau=1e-6))
        assert not ok

    def test_singular_multiplier_infeasible(self, paper_compact):
        ok, margin = feasible(
            paper_compact, ScalingPoint(lam=np.array([0.5, 0.0, 0.0, 0.0]), tau=1e-6))
        assert not ok and margin == -np.inf

    def test_matches_closed_form_on_grid(self, paper_compact):
        values = np.linspace(0.08, 1.2, 5)
        for l1 in values:
            for l2 in values:
                for l3 in values:
                    for l4 in values:
                        lam = np.array([l1, l2, l3, l4])
                        ok, _ = feasible(paper_compact, ScalingPoint(lam=lam, tau=1.0))
                        assert ok == printed_constraints(lam), lam

    def test_no_uncertainty_always_feasible(self):
        compact = scalar_compact()
        ok, margin = feasible(compact, ScalingPoint(lam=np.zeros(0), tau=1.0))
        assert ok and margin == np.inf


class TestRiccatis:
    def test_filter_scalar_quadratic_oracle(self):
        a0, w, c, sigma = 1.0, 1.4, 1.0, 0.5
        compact = scalar_compact(a0=a0, w=w, c=c, sigma=sigma)
        tau = 5.0
        point = ScalingPoint(lam=np.zeros(0), tau=tau)
        y, res = filter_riccati(compact, point)
        s_y = -(c ** 2 / sigma ** 2 - 1.0 / tau)        # R = C0'C0 = 1
        roots = np.roots([s_y, -2 * a0, w ** 2])
        oracle = roots[roots > 0].min()
        np.testing.assert_allclose(y[0, 0], oracle, rtol=1e-10)
        assert res <= 1e-8

    def test_filter_no_cost_weight_reduces_to_kalman(self):
        a0, w, c, sigma = 1.0, 1.4, 1.0, 0.5
        compact = scalar_compact(a0=a0, w=w, c=c, sigma=sigma, c0=0.0)
        point = ScalingPoint(lam=np.zeros(0), tau=3.0)
        y, _ = filter_riccati(compact, point)
        pure = solve_care(RiccatiProblem(
            a=[[-a0]], q=[[w ** 2]], s=[[-c ** 2 / sigma ** 2]])).x
        np.testing.assert_allclose(y, pure, rtol=1e-10)

    def test_control_rank_one_oracle(self, paper_compact, reference_point):
        """The cost Riccati of the example closes exactly on the (1,1) entry."""
        x, res = control_riccati(paper_compact, reference_point)
        tau = reference_point.tau
        mult = assemble_multipliers(paper_compact, reference_point.lam)
        r, gm, gam = cost_weights(paper_compact, reference_point, mult)
        q11 = (r - gam @ np.linalg.solve(gm, gam.T))[0, 0]
        b11 = (paper_compact.Bt1 @ np.linalg.solve(mult.M, paper_compact.Bt1.T))[0, 0]
        a11 = paper_compact.aug.Ap[0, 0]
        roots = np.roots([-b11 / tau, 2 * a11, q11])
        oracle = roots[roots > 0].min()
        np.testing.assert_allclose(x[0, 0], oracle, rtol=1e-8)
        np.testing.assert_allclose(x, x[0, 0] * np.outer([1, 0, 0], [1, 0, 0]),
                                   atol=1e-12 * abs(x[0, 0]))
        assert res <= 1e-8

    def test_control_zero_cost_gives_zero(self):
        compact = scalar_compact()      # no uncertainty: R - Gam G^-1 Gam' = 0
        x, _ = control_riccati(compact, ScalingPoint(lam=np.zeros(0), tau=1.0))
        np.testing.assert_allclose(x, 0.0, atol=1e-14)

    def test_positive_quadratic_variant_has_no_solution(self, paper_compact, reference_point):
        """Flipping the cost-Riccati quadratic term to +(1/tau) X W X makes the
        published scaling point infeasible; kept as a regression anchor for
        the sign convention."""
        tau = reference_point.tau
        mult = assemble_multipliers(paper_compact, reference_point.lam)
        r, gm, gam = cost_weights(paper_compact, reference_point, mult)
        q = r - gam @ np.linalg.solve(gm, gam.T)
        wxx = paper_compact.Bt1 @ np.linalg.solve(mult.M, paper_compact.Bt1.T)
        with pytest.raises(InfeasibleError):
            solve_care(RiccatiProblem(a=paper_compact.aug.Ap,
                                      q=0.5 * (q + q.T), s=wxx / tau))

    def test_infeasible_point_rejected(self, paper_compact):
        with pytest.raises(InfeasibleError):
            filter_riccati(paper_compact, ScalingPoint(lam=np.ones(4), tau=1e-6))


class TestGains:
    def test_reference_gains_match(self, paper_solution):
        for name, attr in (("Ac", "Ac"), ("Bc_tilde", "Bc_tilde"),
                           ("Cc_tilde", "Cc_tilde")):
            result = matrix_check(name, getattr(paper_solution, name), REFERENCE[name])
            assert result["passed"], result["detail"]

    def test_invariants(self, paper_solution, reference_point):
        assert paper_solution.rho_yx < reference_point.tau
        assert np.linalg.eigvalsh(paper_solution.Y).min() > 0
        assert np.linalg.eigvalsh(paper_solution.X).min() >= -1e-15

    def test_gain_partition(self, paper_compact, paper_solution):
        nbar = paper_compact.plant.nbar
        na = paper_compact.aug.na
        assert paper_solution.Bc_tilde.shape == (nbar + na, 2)
        assert paper_solution.Bc.shape == (3, 1)      # measurement gain column
        assert paper_solution.Gc.shape == (3, 1)      # copy gain column
        assert paper_solution.Cc.shape == (1, 3)
        assert paper_solution.Kc.shape == (1, 3)

    def test_bc_recompute_redundancy(self, paper_compact, paper_solution, reference_point):
        mult = assemble_multipliers(paper_compact, reference_point.lam)
        minv = np.linalg.inv(mult.M)
        e = paper_compact.Dt21 @ minv @ paper_compact.Dt21.T
        wxy = paper_compact.Bt1 @ minv @ paper_compact.Dt21.T
        bc = (paper_solution.Y @ paper_compact.Ct2.T + wxy) @ np.linalg.inv(e)
        assert np.abs(bc - paper_solution.Bc_tilde).max() <= 1e-10 * np.abs(bc).max()

    def test_coupling_violation_detected(self, paper_compact, paper_solution, reference_point):
        tiny_tau = paper_solution.rho_yx * 0.5
        with pytest.raises(CouplingError):
            cost_bound(paper_compact, ScalingPoint(lam=reference_point.lam, tau=tiny_tau),
                       paper_solution.Y, paper_solution.X)


class TestCostBound:
    def test_reference_value_region(self, paper_solution):
        # published bound is 0.15; the computed value at the published point
        assert 0.10 <= paper_solution.Vtau <= 0.16

    def test_zero_noise_limit_vanishes(self, paper_compact, reference_point, paper_solution):
        v = cost_bound(paper_compact, reference_point,
                       np.zeros((3, 3)), paper_solution.X)
        assert v == 0.0

    def test_similarity_invariance(self, paper_compact, reference_point, paper_solution):
        rng = np.random.default_rng(2)
        t = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        tinv = np.linalg.inv(t)
        aug2 = dataclasses.replace(
            paper_compact.aug,
            Ap=tinv @ paper_compact.aug.Ap @ t,
            Cp0=paper_compact.aug.Cp0 @ t,
            Ca=paper_compact.aug.Ca @ t,
        )
        compact2 = dataclasses.replace(
            paper_compact, aug=aug2,
            Bt1=tinv @ paper_compact.Bt1,
            Ct1=paper_compact.Ct1 @ t,
            Ct2=paper_compact.Ct2 @ t,
            Bp1w=tinv @ paper_compact.Bp1w,
        )
        sol2 = compute_gains(compact2, reference_point)
        assert abs(sol2.Vtau - paper_solution.Vtau) <= 1e-6 * paper_solution.Vtau

    def test_balanced_realization_invariant(self, paper_solution, balanced_solution):
        assert abs(balanced_solution.Vtau - paper_solution.Vtau) <= 1e-6 * paper_solution.Vtau
        assert abs(balanced_solution.rho_yx - paper_solution.rho_yx) <= 1e-6 * paper_solution.rho_yx

    def test_noise_monotonicity(self, params, reference_point, paper_solution):
        from rflsmooth.delay import pade_delay
        from rflsmooth.example import phase_estimation_plant
        plant = phase_estimation_plant(params)
        scale = 1.01
        bumped = dataclasses.replace(plant, B1=plant.B1 * scale)
        aug = augment_with_delay(bumped, pade_delay(2, params.delta, realization="paper"))
        compact = build_compact(aug)
        sol = compute_gains(compact, reference_point)
        assert sol.Vtau >= paper_solution.Vtau


class TestEvaluationPath:
    """One scaling point is evaluated once: its multipliers are assembled at
    most once per compute_gains, and each Riccati equation is solved once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"assemble_multipliers": 0, "solve_care": 0}
        for name in calls:
            fn = getattr(synthesis, name)

            def counted(*args, _name=name, _fn=fn, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(synthesis, name, counted)
        return calls

    def test_one_assembly_two_riccati_solves(self, counts, paper_compact, reference_point):
        compute_gains(paper_compact, reference_point)
        assert counts["assemble_multipliers"] <= 1
        assert counts["solve_care"] == 2

    def test_infeasible_point_rejected_before_any_solve(self, counts, paper_compact):
        with pytest.raises(InfeasibleError):
            compute_gains(paper_compact, ScalingPoint(lam=np.ones(4), tau=1e-6))
        assert counts["solve_care"] == 0

    def test_cost_bound_matches_gains_exactly(self, paper_compact, reference_point,
                                              paper_solution):
        v = cost_bound(paper_compact, reference_point, paper_solution.Y, paper_solution.X)
        assert v == paper_solution.Vtau


def test_delayed_target_variant(paper_compact, reference_point, paper_solution):
    """Swapping the cost target to the delayed readout moves the output row
    onto the delay states, unlike the published gains; kept as evidence for
    the default undelayed-target reading."""
    sol = compute_gains(paper_compact, reference_point, delayed_target=True)
    assert abs(sol.Cc[0, 1]) > 100.0          # delay-state extraction
    assert abs(paper_solution.Cc[0, 1]) < 1e-6
    assert sol.rho_yx < reference_point.tau


class TestMinimizeBound:
    def test_reaches_reference_region(self, paper_compact):
        result = minimize_bound(paper_compact, n_starts=2, seed=1,
                                tau_bounds=(1e-7, 1e-5))
        assert result.vtau <= 0.16
        assert result.trace

    def test_fixed_point_restart(self, paper_compact):
        first = minimize_bound(paper_compact, n_starts=2, seed=1,
                               tau_bounds=(1e-7, 1e-5))
        again = minimize_bound(paper_compact, starts=[first.point.lam],
                               tau_bounds=(1e-7, 1e-5))
        assert again.vtau <= first.vtau * (1 + 1e-6) + 1e-12

    def test_determinism(self, paper_compact):
        a = minimize_bound(paper_compact, n_starts=1, seed=3, tau_bounds=(1e-7, 1e-5))
        b = minimize_bound(paper_compact, n_starts=1, seed=3, tau_bounds=(1e-7, 1e-5))
        assert a.vtau == b.vtau
        np.testing.assert_array_equal(a.point.lam, b.point.lam)

    def test_degenerate_tau_only(self):
        compact = scalar_compact()
        result = minimize_bound(compact, tau_bounds=(1e-2, 1e2))
        assert result.point.lam.size == 0
        assert np.isfinite(result.vtau)
