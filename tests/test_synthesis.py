import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_hurwitz
from test_numkernel import assert_schurs_bits, ordered_schur_calls
from rflsmooth import synthesis
from rflsmooth.config import bundled_example_path, compact_from_config, load_config
from rflsmooth.covariance import delta_sweep
from rflsmooth.delay import identity_delay, pade_delay
from rflsmooth.errors import CouplingError, InfeasibleError, ToolkitError
from rflsmooth.example import REFERENCE, phase_estimation_compact
from rflsmooth.model import UncertainPlant, augment_with_delay, build_compact
from rflsmooth.numkernel import RiccatiProblem, solve_care
from rflsmooth.reproduce import matrix_check
from rflsmooth.synthesis import (
    ScalingPoint,
    assemble_multipliers,
    compute_gains,
    cost_weights,
    feasible,
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
            np.testing.assert_allclose(mult.M, paper_compact.M_stack[j], atol=1e-15)
            np.testing.assert_allclose(mult.N, paper_compact.N_stack[j], atol=1e-15)

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


def generated_case(rng, k, g, beta, a=((-1.0, 0.3), (0.0, -2.0)), delay=identity_delay(1),
                   width=1, l=1, height=None):
    """A two-state plant with k uncertainty channels `width` wide (inputs)
    and `height` (outputs, default `width`) high, g nonlinearities and l
    measurements (one or none) whose noise factors through the stacked input
    (so J exists), and lambda >= 0."""
    b_unc, b_nl = ([rng.standard_normal((2, w)) for _ in range(n)] for n, w in ((k, width), (g, 1)))
    d_unc, d_nl = ([rng.standard_normal((l, w)) for _ in range(n)] for n, w in ((k, width), (g, 1)))
    jtop = rng.standard_normal((k * width + g, 2))
    b1, d21 = (np.hstack(m) @ jtop if k + g else rng.standard_normal((r, 2))
               for m, r in ((b_unc + b_nl, 2), (d_unc + d_nl, l)))
    plant = UncertainPlant(
        A=a, B1=b1, C0=[[1.0, 0.0]], C2=np.array([[0.5, 1.0]])[:l], D21=d21,
        B1_nl=b_nl, C1_nl=[rng.standard_normal((1, 2)) for _ in range(g)], D21_nl=d_nl,
        B1_unc=b_unc, C1_unc=[rng.standard_normal((height or width, 2)) for _ in range(k)],
        D21_unc=d_unc,
        beta=beta, S0=[np.eye(width)] * k,
    )
    compact = build_compact(augment_with_delay(plant, delay), d0=0.0)
    lam = rng.uniform(0.0, 1.5, compact.ktilde) * (rng.uniform(size=compact.ktilde) > 0.1)
    return compact, lam


def into_lmi_set(compact, lam, level=0.5):
    """lambda scaled so that the largest eigenvalue of J'M(lambda)J is `level`."""
    m = assemble_multipliers(compact, lam).M
    return lam * level / max(np.linalg.eigvalsh(compact.J.T @ m @ compact.J).max(), 1e-12)


@st.composite
def plants_and_scalings(draw):
    """`generated_case` for (k, g) in {0, 1, 2}^2."""
    k, g = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    beta = tuple(draw(st.floats(0.5, 2.0)) for _ in range(g))
    return generated_case(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), k, g, beta)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(plants_and_scalings())
def test_feasible_matches_lmi_form(case):
    """Away from the boundary, feasible agrees with the LMI form the bound
    search uses: M(lambda) > 0 and I - J'M(lambda)J >= 0."""
    compact, lam = case
    ok, margin = feasible(compact, ScalingPoint(lam=lam, tau=1.0))
    if abs(margin) <= 1e-9:
        return
    m = assemble_multipliers(compact, lam).M if compact.ktilde else np.zeros((0, 0))
    j = compact.J
    lmi = (np.linalg.eigvalsh(m).min(initial=np.inf) > 0
           and np.linalg.eigvalsh(np.eye(j.shape[1]) - j.T @ m @ j).min(initial=np.inf) >= 0)
    assert ok == lmi, (lam, margin)


class TestRiccatis:
    def test_filter_scalar_quadratic_oracle(self):
        a0, w, c, sigma = 1.0, 1.4, 1.0, 0.5
        compact = scalar_compact(a0=a0, w=w, c=c, sigma=sigma)
        tau = 5.0
        point = ScalingPoint(lam=np.zeros(0), tau=tau)
        sol = compute_gains(compact, point)
        y, res = sol.Y, sol.residual_y
        s_y = -(c ** 2 / sigma ** 2 - 1.0 / tau)        # R = C0'C0 = 1
        roots = np.roots([s_y, -2 * a0, w ** 2])
        oracle = roots[roots > 0].min()
        np.testing.assert_allclose(y[0, 0], oracle, rtol=1e-10)
        assert res <= 1e-8

    def test_filter_no_cost_weight_reduces_to_kalman(self):
        a0, w, c, sigma = 1.0, 1.4, 1.0, 0.5
        compact = scalar_compact(a0=a0, w=w, c=c, sigma=sigma, c0=0.0)
        point = ScalingPoint(lam=np.zeros(0), tau=3.0)
        y = compute_gains(compact, point).Y
        pure = solve_care(RiccatiProblem(
            a=[[-a0]], q=[[w ** 2]], s=[[-c ** 2 / sigma ** 2]])).x
        np.testing.assert_allclose(y, pure, rtol=1e-10)

    def test_control_rank_one_oracle(self, paper_compact, reference_point):
        """The cost Riccati of the example closes exactly on the (1,1) entry."""
        sol = compute_gains(paper_compact, reference_point)
        x, res = sol.X, sol.residual_x
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
        x = compute_gains(compact, ScalingPoint(lam=np.zeros(0), tau=1.0)).X
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
            compute_gains(paper_compact, ScalingPoint(lam=np.ones(4), tau=1e-6))


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

    def test_coupling_violation_detected(self, paper_compact):
        """At this admissible lambda both Riccati equations solve at tau = 3.5e-7
        and 4e-7, but rho(YX) = 3.8e-7 passes tau only at the larger."""
        lam = np.array([0.95, 0.02, 0.7, 0.4])
        with pytest.raises(CouplingError) as err:
            compute_gains(paper_compact, ScalingPoint(lam=lam, tau=3.5e-7))
        assert err.value.rho >= err.value.tau == 3.5e-7
        assert compute_gains(paper_compact, ScalingPoint(lam=lam, tau=4e-7)).rho_yx < 4e-7


class TestCostBound:
    def test_reference_value_region(self, paper_solution):
        # published bound is 0.15; the computed value at the published point
        assert 0.10 <= paper_solution.Vtau <= 0.16

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
        """The first argument of each call to a counted function, by name."""
        calls = {}
        for owner, name in ((synthesis, "assemble_multipliers"), (synthesis, "solve_care"),
                            (np.linalg, "cholesky"), (np.linalg, "inv")):
            fn, calls[name] = getattr(owner, name), []

            def counted(*args, _name=name, _fn=fn, **kwargs):
                calls[_name].append(args[0])
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    def test_one_assembly_two_riccati_solves(self, counts, paper_compact, reference_point):
        compute_gains(paper_compact, reference_point)
        assert len(counts["assemble_multipliers"]) <= 1
        assert len(counts["solve_care"]) == 2

    def test_infeasible_point_rejected_before_any_solve(self, counts, paper_compact):
        with pytest.raises(InfeasibleError):
            compute_gains(paper_compact, ScalingPoint(lam=np.ones(4), tau=1e-6))
        assert counts["solve_care"] == []

    def test_one_factor_of_m_and_no_inverse_of_it(self, paper_compact, reference_point, counts):
        """M enters through one Cholesky factor of P'MP; the one inverse formed
        is the coupling correction (I - YX/tau)^-1."""
        sol = compute_gains(paper_compact, reference_point)
        p, m = paper_compact.frame, assemble_multipliers(paper_compact, reference_point.lam).M
        [factored], [inverted] = counts["cholesky"], counts["inv"]
        np.testing.assert_array_equal(factored, p.T @ m @ p)
        np.testing.assert_array_equal(
            inverted, np.eye(paper_compact.n) - (sol.Y @ sol.X) / reference_point.tau)


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


class TestBarrierPath:
    """The bound search is one barrier path: its optimum does not depend on
    the start, the BLAS thread count or the last bit of d21."""

    def test_seeded_starts_reach_the_same_optimum(self, paper_compact):
        values = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            lam = rng.uniform(1e-9, 1.0, 4)
            while feasible(paper_compact, ScalingPoint(lam=lam, tau=1.0))[1] <= 1e-9:
                lam = rng.uniform(1e-9, 1.0, 4)
            values.append(minimize_bound(paper_compact, starts=[lam]).vtau)
        assert max(values) <= 0.1217
        assert max(values) - min(values) <= 1e-6 * min(values)

    def test_bundled_config_matches_example(self, paper_compact):
        """The bundled d21 is one ulp from the example's 1/(2*1162)."""
        bundled = compact_from_config(load_config(bundled_example_path()),
                                      paper_realization=True)
        assert bundled.Db21[0, 1] != paper_compact.Db21[0, 1]
        a = minimize_bound(bundled, n_starts=1).vtau
        b = minimize_bound(paper_compact, n_starts=1).vtau
        assert a <= 0.1217 and abs(a - b) <= 1e-4 * b

    def test_first_start_is_the_analytic_centre(self, paper_compact):
        """One start is the centre of the LMI set, where the barrier gradient
        vanishes, whatever the seed."""
        a = minimize_bound(paper_compact, n_starts=1, seed=0)
        b = minimize_bound(paper_compact, n_starts=1, seed=5)
        assert a.trace == b.trace and len(a.trace) <= 1200
        m_terms, bounds = paper_compact.M_stack, (np.log(1e-8), np.log(1e-3))
        x = np.r_[sum(bounds) / 2, a.trace[0][1]]
        grad = synthesis._barrier(m_terms, paper_compact.J.T @ m_terms @ paper_compact.J,
                                  bounds, x)[1]
        assert np.abs(grad).max() <= 1e-6

    def test_one_start_makes_at_most_300_evaluations(self, paper_compact):
        result = minimize_bound(paper_compact, n_starts=1)
        assert 0 < result.evaluations <= 300
        assert len(result.trace) < result.evaluations


class TestInformationForm:
    """One Cholesky factor of P'MP decides M > 0 and forms the scaled noise,
    so V keeps its digits up to the face where M turns singular."""

    @pytest.mark.parametrize("eps", [1e-5, 1e-8, 1e-10, 1e-12])
    def test_bound_keeps_its_digits_near_the_face(self, paper_compact, eps):
        """lambda = (1 - eps, 1/2 - eps, eps, eps) nears the face through the
        corner (1, 1/2, 0, 0).  Over 20 copies with inputs moved by 1e-13
        relative, V spreads by at most 1e-12 relative; with M^-1 and E formed
        it spread by 1.2e-11 to 3.3e-5."""
        rng, lam, values = np.random.default_rng(0), np.array([1 - eps, 0.5 - eps, eps, eps]), []
        for _ in range(20):
            f = 1.0 + 1e-13 * rng.standard_normal(5)
            values.append(compute_gains(
                paper_compact, ScalingPoint(lam=lam * f[1:], tau=1.0987e-6 * f[0])).Vtau)
        assert max(values) - min(values) <= 1e-12 * min(values)

    def test_optimum_does_not_depend_on_the_realization(self, paper_compact, balanced_compact):
        a = minimize_bound(paper_compact, n_starts=1).vtau
        b = minimize_bound(balanced_compact, n_starts=1).vtau
        assert abs(a - b) <= 1e-12 * a

    def test_feasible_agrees_with_compute_gains(self):
        """Generated points of every (k, g) class, lambda scaled into the LMI
        set with some entries zero: compute_gains rejects a point for its
        margin exactly when feasible does.  (0, 2) seed 51, (1, 2) seed 214 and
        (2, 2) seed 31, among others, have an exactly singular M whose least
        eigenvalue eigvalsh rounds up."""
        for k, g in ((k, g) for k in range(3) for g in range(3)):
            for seed in range(250):
                rng = np.random.default_rng(seed)
                compact, lam = generated_case(rng, k, g, tuple(rng.uniform(0.5, 2.0, g)))
                point = ScalingPoint(lam=into_lmi_set(compact, lam), tau=1.0)
                try:
                    compute_gains(compact, point)
                    margin = None
                except InfeasibleError as exc:
                    margin = exc.margin
                except ToolkitError:
                    margin = None
                ok, at = feasible(compact, point)
                assert (margin is None) == ok and margin in (None, at), (k, g, seed)

    def test_exactly_singular_multiplier_rejected(self):
        """(k, g) = (2, 1) seed 35 has lambda_2 = 0 and M exactly singular.
        Its Cholesky factor exists, with a last pivot^2 of 3.4e-16 of its
        diagonal entry; taking the factor's existence for M > 0 ended in a
        NumericalError (cost Riccati residual 0.49)."""
        rng = np.random.default_rng(35)
        compact, lam = generated_case(rng, 2, 1, tuple(rng.uniform(0.5, 2.0, 1)))
        point = ScalingPoint(lam=into_lmi_set(compact, lam), tau=1.0)
        assert feasible(compact, point) == (False, -np.inf)
        with pytest.raises(InfeasibleError) as info:
            compute_gains(compact, point)
        assert info.value.margin == -np.inf

    @pytest.mark.parametrize("seed", [81, 162, 168, 1146])
    def test_no_point_without_filter_noise(self, seed):
        """`stable_case`'s (0, 1) and (1, 0) plants have a square feedthrough D,
        so the filter noise is zero, Y is singular and no point is certified.
        Each of these was certified at tau = 1 or 100 through rounding, with a
        least eigenvalue of Y of 1e-16 or less."""
        compact, lam = stable_case(seed)
        assert len(compact.frame) == compact.l + compact.g      # D is square
        for tau in (1.0, 100.0):
            with pytest.raises(InfeasibleError):
                compute_gains(compact, ScalingPoint(lam=lam, tau=tau))


def difference_gradient(compact, point, delayed_target=False, h=1e-4):
    """Five-point central differences of V in (log tau, log lambda)."""
    grad = np.empty(compact.ktilde + 1)
    for i in range(grad.size):
        values = []
        for step in (2 * h, h, -h, -2 * h):
            du = np.zeros(grad.size)
            du[i] = step
            moved = ScalingPoint(lam=point.lam * np.exp(du[1:]), tau=point.tau * np.exp(du[0]))
            values.append(compute_gains(compact, moved, delayed_target).Vtau)
        grad[i] = (8 * (values[1] - values[2]) - (values[0] - values[3])) / (12 * h)
    return grad


def assert_gradient_matches_differences(compact, point, delayed_target=False, diff=None):
    exact = synthesis._bound_gradient(compact, *synthesis._gains(compact, point, delayed_target))
    if diff is None:
        diff = difference_gradient(compact, point, delayed_target)
    assert exact.shape == (compact.ktilde + 1,)
    assert np.abs(exact - diff).max() <= 1e-5 * np.abs(diff).max(), (exact, diff)


class TestBoundGradient:
    """V's exact gradient in (log tau, log lambda) agrees with its central
    differences to 1e-5 relative."""

    @pytest.mark.parametrize("delayed_target", [False, True])
    @pytest.mark.parametrize("order, realization",
                             [(2, "paper")] + [(order, "balanced") for order in range(1, 7)])
    def test_published_point(self, params, reference_point, order, realization, delayed_target):
        """The published order-2 delay in both realizations, and balanced
        Pade orders 1-6, with either estimation target."""
        compact = phase_estimation_compact(params, order=order, realization=realization)
        assert_gradient_matches_differences(compact, reference_point, delayed_target)

    def test_tau_entry_only_without_uncertainty(self):
        point = ScalingPoint(lam=np.zeros(0), tau=5.0)
        assert_gradient_matches_differences(scalar_compact(), point)

    def test_generated_plants(self):
        """Five generated plants of each (k, g) class where compute_gains
        succeeds: lambda is scaled into the LMI set, and tau is the first of a
        few that gives V with rho(YX) <= tau/2, away from V's pole at
        rho(YX) = tau.  Each class draws from seeds 0, 1, ... until five are
        checked; (2, 2) gives one in about 50 draws.  No draw with
        (k, g) = (1, 0) or (0, 1) gives one: mostly Y is not positive definite
        there."""
        for k, g in {(k, g) for k in range(3) for g in range(3)} - {(1, 0), (0, 1)}:
            checked = 0
            for seed in range(1000):
                rng = np.random.default_rng(seed)
                compact, lam = generated_case(rng, k, g, tuple(rng.uniform(0.5, 2.0, g)))
                lam = into_lmi_set(compact, lam)
                for tau in (1.0, 10.0, 100.0, 1e3):
                    point = ScalingPoint(lam=lam, tau=tau)
                    try:
                        if compute_gains(compact, point).rho_yx > 0.5 * tau:
                            continue
                        diff = difference_gradient(compact, point)
                    except InfeasibleError:
                        continue
                    assert_gradient_matches_differences(compact, point, diff=diff)
                    checked += 1
                    break
                if checked == 5:
                    break
            assert checked == 5, (k, g)


def stable_case(seed, kg=None, **shape):
    """A stable generated plant of a (k, g) class in {0, 1, 2}^2, or of the
    class kg, behind the identity delay or a balanced Pade delay of order 1-6,
    and lambda scaled into the LMI set, all drawn from `seed`; `shape` takes
    `generated_case`'s width and l."""
    rng = np.random.default_rng(seed)
    k, g, order = (int(rng.integers(0, n)) for n in (3, 3, 7))
    k, g = kg or (k, g)
    beta = tuple(rng.uniform(0.5, 2.0, g))
    delay = pade_delay(order, rng.uniform(0.1, 1.0)) if order else identity_delay(1)
    compact, lam = generated_case(rng, k, g, beta, random_hurwitz(rng, 2), delay, **shape)
    return compact, into_lmi_set(compact, lam, rng.uniform(0.1, 1.2))


def realization_case(seed, realization, kg=None, delay=(2e-6, 5e-6), **shape):
    """A stable plant and its lambda drawn from `seed` as `stable_case` draws
    them (of the class kg if given), behind an order-2 Pade delay in
    `realization`, drawn from the interval `delay` (default 2-5 us, around
    the example's 3.1 us)."""
    rng = np.random.default_rng(seed)
    k, g = kg or tuple(int(rng.integers(0, 3)) for _ in range(2))
    beta = tuple(rng.uniform(0.5, 2.0, g))
    dly = pade_delay(2, rng.uniform(*delay), realization)
    compact, lam = generated_case(rng, k, g, beta, random_hurwitz(rng, 2), dly, **shape)
    return compact, into_lmi_set(compact, lam, rng.uniform(0.1, 1.2))


def test_paper_realization_at_long_delays():
    """The power-of-two form takes its scalings from delta.  Behind 0.1-1 s
    order-2 delays, synthesis succeeds in it wherever it succeeds in the
    balanced form, with the same V; the form scaled for the example's 3.1 us
    (subdiagonal 2^20, input gain 2^11 at any delay) failed at 29 of these
    30 points."""
    points = 0
    for seed in range(100):
        cases = [realization_case(seed, r, delay=(0.1, 1.0)) for r in ("balanced", "paper")]
        for tau in (1.0, 100.0):
            try:
                balanced = compute_gains(cases[0][0], ScalingPoint(lam=cases[0][1], tau=tau))
            except ToolkitError:
                continue
            paper = compute_gains(cases[1][0], ScalingPoint(lam=cases[1][1], tau=tau))
            assert abs(paper.Vtau - balanced.Vtau) <= 1e-12 * abs(balanced.Vtau), (seed, tau)
            points += 1
    assert points >= 25, points


def test_ordered_schur_bits_on_generated_plants(monkeypatch):
    """The filter and cost Hamiltonians of generated plants of every (k, g)
    class behind every delay order get scipy.linalg.schur's ordered form bit
    for bit, from the direct sorting `gees` call."""
    calls = ordered_schur_calls(monkeypatch)
    for seed in range(200):
        compact, lam = stable_case(seed)
        for tau in (1.0, 100.0):
            try:
                compute_gains(compact, ScalingPoint(lam=lam, tau=tau))
            except ToolkitError:
                continue
    assert len(calls) > 300
    assert_schurs_bits(calls)


class TestGeneratedPlantFailures:
    """On stable generated plants the synthesis path fails only with a
    ToolkitError, never with a bare LAPACK error, and V is never NaN."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2 ** 32 - 1).map(stable_case))
    def test_compute_gains_and_sweep(self, case):
        """About one call in 40 here meets an ordered-Schur reordering that
        fails on imaginary-axis eigenvalues; it surfaces as InfeasibleError."""
        compact, lam = case
        for tau in (1.0, 10.0, 100.0, 1e3):
            try:
                sol = compute_gains(compact, ScalingPoint(lam=lam, tau=tau))
                assert not np.isnan(sol.Vtau)
                rows = delta_sweep(compact, sol, np.linspace(-1.0, 0.0, 3))
            except ToolkitError:
                continue
            assert all(np.isfinite([row.psa, row.pf]).all() == row.hurwitz for row in rows)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2 ** 32 - 1).map(stable_case))
    @example(case=stable_case(175))
    @example(case=stable_case(385))
    def test_minimize_bound(self, case):
        """Seeds 175 and 385 reach a barrier Newton system that is singular
        to working precision near the face of the LMI set."""
        try:
            result = minimize_bound(case[0], n_starts=1, tau_bounds=(1e-2, 1e3))
        except ToolkitError:
            return
        assert not np.isnan(result.vtau)
