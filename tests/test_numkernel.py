import re
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from rflsmooth import numkernel
from rflsmooth.errors import InfeasibleError, NumericalError
from rflsmooth.numkernel import (
    RiccatiProblem,
    _lyap_schur,
    _lyapunov_stack,
    _newton_refine,
    _schur_abscissa,
    care_residual,
    care_sensitivity,
    expm,
    solve_care,
    spectral_radius,
)

from conftest import random_hurwitz, run_python


def care_eig_oracle(a, s, q):
    """Hamiltonian-subspace oracle via complex eigendecomposition, independent
    of the production ordered-Schur route."""
    n = a.shape[0]
    ham = np.block([[a, s], [-q, -a.T]])
    w, v = np.linalg.eig(ham)
    stable = v[:, w.real < 0]
    assert stable.shape[1] == n
    x = stable[n:] @ np.linalg.inv(stable[:n])
    x = x.real
    return 0.5 * (x + x.T)


def lyap_kron_oracle(a, w):
    """Literal vectorized linear-solve formulation."""
    n = a.shape[0]
    k = np.kron(np.eye(n), a) + np.kron(a, np.eye(n))
    return np.linalg.solve(k, -w.reshape(-1, order="F")).reshape((n, n), order="F")


def closed_loop_abscissa(x, a, s):
    """Largest real part of eig(A + S X): negative for a stabilizing X."""
    return np.linalg.eigvals(np.asarray(a) + np.asarray(s) @ x).real.max()


def random_lqr_problem(rng, n):
    a = random_hurwitz(rng, n)
    b = rng.standard_normal((n, 2))
    c = rng.standard_normal((2, n))
    return RiccatiProblem(a=a, q=c.T @ c, s=-b @ b.T)


def ordered_schur_calls(monkeypatch):
    """Record the input and output of each sorting `gees` call."""
    calls, gees = [], numkernel._gees

    def recorded(select, a, **kwargs):
        out = gees(select, a, **kwargs)
        if kwargs.get("sort_t") == 1:
            calls.append((np.array(a), out))
        return out

    monkeypatch.setattr(numkernel, "_gees", recorded)
    return calls


def assert_schurs_bits(calls):
    """Each recorded ordered form has the T, Z and sdim of
    scipy.linalg.schur(sort="lhp") bit for bit, and fails where it fails."""
    for ham, (t, sdim, _, _, z, _, info) in calls:
        try:
            ts, zs, sdims = sla.schur(ham, sort="lhp")
        except np.linalg.LinAlgError:
            assert info > 0
            continue
        assert info == 0 and sdim == sdims
        assert np.array_equal(t, ts) and np.array_equal(z, zs)


class TestLapackLoader:
    """numkernel takes `gees` and `trsyl` from scipy.linalg._flapack without importing
    the scipy.linalg package; SciPy, loaded before or after, shares that module."""

    def test_scipy_linalg_imported_later_shares_the_extension(self):
        code = ("import sys\n"
                "import numpy as np\n"
                "from rflsmooth import numkernel\n"
                "assert 'scipy.linalg' not in sys.modules\n"
                "import scipy.linalg as sla\n"
                "from scipy.linalg import lapack\n"
                "assert numkernel._gees is lapack.dgees and numkernel._trsyl is lapack.dtrsyl\n"
                "a = np.random.default_rng(0).standard_normal((5, 5))\n"
                "t, z = sla.schur(a)\n"
                "mine = numkernel._schur_abscissa(a)\n"
                "assert (mine[0] == t).all() and (mine[1] == z).all()\n"
                "x = sla.solve_continuous_are(a - 3 * np.eye(5), np.eye(5), np.eye(5), np.eye(5))\n"
                "assert np.isfinite(x).all()\n"
                "print('ok')")
        assert run_python(["-c", code]).stdout.strip() == "ok"

    def test_scipy_linalg_imported_first_is_reused(self):
        code = ("import sys\n"
                "from scipy.linalg import lapack\n"
                "from rflsmooth import numkernel\n"
                "assert numkernel._flapack is sys.modules['scipy.linalg._flapack']\n"
                "assert numkernel._gees is lapack.dgees and numkernel._trsyl is lapack.dtrsyl\n"
                "print('ok')")
        assert run_python(["-c", code]).stdout.strip() == "ok"

    def test_missing_extension_names_the_directory(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
        with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
            numkernel._load_flapack(str(tmp_path))
        assert "scipy.linalg._flapack" not in sys.modules


class TestRiccatiProblem:
    """The problem's conversions and checks: a 2-D float64 array is held as the
    same object, and Q and S pass when exactly symmetric or within `_SYM_TOL`."""

    @staticmethod
    def within_tolerance(m):
        """The tolerance test as written, with non-finite entries as they fall."""
        with np.errstate(invalid="ignore"):
            return not np.abs(m - m.T).max() > numkernel._SYM_TOL * (1.0 + np.abs(m).max())

    def test_float64_matrices_are_held_as_given(self):
        a, q, s = np.eye(3), np.ones((3, 3)), np.asfortranarray(-np.eye(3))
        prob = RiccatiProblem(a=a, q=q, s=s)
        assert prob.a is a and prob.q is q and prob.s is s

    @pytest.mark.parametrize("value, shape", [
        ([[1, 2], [2, 1]], (2, 2)), (3, (1, 1)), (np.float32(2.5), (1, 1)),
        (np.array(4), (1, 1)), (np.array([5.0]), (1, 1)),
        (np.array([[1, 0], [0, 1]], dtype=np.int32), (2, 2)),
        (np.eye(2, dtype=np.float32), (2, 2)), (np.eye(2).astype(">f8"), (2, 2))])
    def test_other_inputs_are_converted(self, value, shape):
        prob = RiccatiProblem(a=value, q=value, s=value)
        expected = np.atleast_2d(np.asarray(value, dtype=float))
        for m in (prob.a, prob.q, prob.s):
            assert type(m) is np.ndarray and m.dtype == np.float64 and m.shape == shape
            np.testing.assert_array_equal(m, expected)

    def test_shape_checked_first(self):
        with pytest.raises(ValueError, match="must be square and of equal size"):
            RiccatiProblem(a=np.eye(2), q=[[0.0, 1.0]], s=np.eye(2))
        with pytest.raises(ValueError, match="must be square and of equal size"):
            RiccatiProblem(a=np.array([1.0, 2.0]), q=np.eye(2), s=np.eye(2))

    def test_empty_problem_rejected(self):
        with pytest.raises(ValueError, match="at least 1 x 1, got 0 x 0"):
            RiccatiProblem(a=np.zeros((0, 0)), q=np.zeros((0, 0)), s=np.zeros((0, 0)))

    @pytest.mark.parametrize("name", ["Q", "S"])
    @pytest.mark.parametrize("factor, raises", [(0.5, False), (2.0, True)])
    def test_asymmetry_against_the_tolerance(self, name, factor, raises):
        m = np.array([[2.0, 1.0], [1.0, -3.0]])
        m[0, 1] += factor * numkernel._SYM_TOL * (1.0 + 3.0)
        mats = {"q": np.eye(2), "s": np.eye(2), name.lower(): m}
        if raises:
            message = f"{name} is not symmetric to tolerance {numkernel._SYM_TOL}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                RiccatiProblem(a=np.eye(2), **mats)
        else:
            RiccatiProblem(a=np.eye(2), **mats)

    def test_q_is_checked_before_s(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="^Q is not symmetric"):
            RiccatiProblem(a=np.eye(2), q=bad, s=bad)

    def test_non_finite_entries_as_the_tolerance_test_reads_them(self):
        """A matrix passes or raises as `within_tolerance` says: one with a NaN or inf
        entry passes (the largest difference is NaN, or the bound is infinite), a
        finite one raises when an entry moved by 1 broke its symmetry."""
        rng, seen = np.random.default_rng(3), set()
        for _ in range(400):
            m = rng.standard_normal((3, 3))
            m = m + m.T
            for _ in range(rng.integers(1, 4)):
                i, j = rng.integers(0, 3, size=2)
                m[i, j] = rng.choice([np.nan, np.inf, -np.inf, m[i, j] + 1.0])
                if rng.random() < 0.5:
                    m[j, i] = m[i, j]
            expected = self.within_tolerance(m)
            seen.add((expected, bool(np.isfinite(m).all())))
            assert expected or np.isfinite(m).all()
            for slot in ("q", "s"):
                mats = {"q": np.eye(3), "s": np.eye(3), slot: m}
                with np.errstate(invalid="ignore"):         # inf - inf in the test
                    if expected:
                        RiccatiProblem(a=np.eye(3), **mats)
                    else:
                        with pytest.raises(ValueError, match="is not symmetric to tolerance"):
                            RiccatiProblem(a=np.eye(3), **mats)
        assert (True, False) in seen and (False, True) in seen


class TestCare:
    def test_scalar_pure_quadratic(self):
        sol = solve_care(RiccatiProblem(a=[[0.0]], q=[[1.0]], s=[[-1.0]]))
        np.testing.assert_allclose(sol.x, [[1.0]], rtol=1e-12)
        assert closed_loop_abscissa(sol.x, [[0.0]], [[-1.0]]) < 0

    def test_scalar_linear(self):
        a = 1.7
        q = 0.3
        sol = solve_care(RiccatiProblem(a=[[-a]], q=[[q]], s=[[0.0]]))
        np.testing.assert_allclose(sol.x, [[q / (2 * a)]], rtol=1e-12)

    def test_random_against_eig_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            prob = random_lqr_problem(rng, 4)
            sol = solve_care(prob)
            oracle = care_eig_oracle(prob.a, prob.s, prob.q)
            err = np.linalg.norm(sol.x - oracle) / (1.0 + np.linalg.norm(oracle))
            assert err <= 1e-8
            assert sol.residual <= 1e-8 * (1.0 + np.linalg.norm(sol.x) ** 2)
            assert closed_loop_abscissa(sol.x, prob.a, prob.s) < 0

    def test_inverse_duality(self):
        # if X > 0 solves (A, S, Q), then X^-1 is the stabilizing solution of
        # the time-reversed transposed problem (-A', -Q, -S)
        rng = np.random.default_rng(23)
        for _ in range(5):
            a = random_hurwitz(rng, 3)
            b = rng.standard_normal((3, 3))
            c = rng.standard_normal((3, 3)) + 3 * np.eye(3)
            prob = RiccatiProblem(a=a, q=c.T @ c, s=-b @ b.T)
            x = solve_care(prob).x
            dual = solve_care(RiccatiProblem(a=-a.T, q=-prob.s, s=-prob.q)).x
            np.testing.assert_allclose(np.linalg.inv(dual), x,
                                       rtol=1e-7, atol=1e-9)

    def test_imaginary_axis_infeasible(self):
        with pytest.raises(InfeasibleError) as err:
            solve_care(RiccatiProblem(a=[[0.0]], q=[[1.0]], s=[[0.0]]))
        assert err.value.eigenvalues is not None

    def test_singular_subspace_basis_infeasible(self):
        """A = 1, Q = S = 0: the stable subspace is the costate axis, its X block
        is zero, so no stabilizing solution is a graph over it."""
        with pytest.raises(InfeasibleError) as err:
            solve_care(RiccatiProblem(a=[[1.0]], q=[[0.0]], s=[[0.0]]))
        assert sorted(err.value.eigenvalues.real) == [-1.0, 1.0]

    def test_ordered_schur_has_schurs_bits(self, monkeypatch):
        """On 1,000 random Hamiltonians, n = 1..8, with and without a
        stabilizing solution, the direct sorting `gees` call gives
        scipy.linalg.schur's bits; where it fails, solve_care raises
        InfeasibleError with the Hamiltonian's eigenvalues."""
        rng = np.random.default_rng(8)
        calls, outcomes = ordered_schur_calls(monkeypatch), set()
        for i in range(1000):
            n = 1 + i % 8
            q, s = (m + m.T for m in rng.standard_normal((2, n, n)))
            prob = RiccatiProblem(a=rng.standard_normal((n, n)), q=q, s=s)
            try:
                solve_care(prob)
                outcomes.add("solved")
            except InfeasibleError as err:
                assert len(err.eigenvalues)
                outcomes.add("failed" if calls[-1][1][-1] > 0 else "infeasible")
        assert len(calls) == 1000 and outcomes == {"solved", "infeasible", "failed"}
        assert_schurs_bits(calls)

    def test_non_finite_hamiltonian_rejected(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_care(RiccatiProblem(a=[[np.nan]], q=[[1.0]], s=[[-1.0]]))

    def test_asymmetric_q_rejected(self):
        with pytest.raises(ValueError):
            RiccatiProblem(a=np.eye(2), q=np.array([[0.0, 1.0], [0.0, 0.0]]),
                           s=np.zeros((2, 2)))

    def test_newton_refinement_restores_perturbed_solution(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            prob = random_lqr_problem(rng, 5)
            oracle = care_eig_oracle(prob.a, prob.s, prob.q)
            e = rng.standard_normal((5, 5))
            start = oracle + 1e-4 * np.linalg.norm(oracle) * (e + e.T)
            x, res = _newton_refine(prob, start)
            assert res < care_residual(prob, start)
            assert res == care_residual(prob, x)
            np.testing.assert_allclose(x, oracle, rtol=1e-8, atol=1e-10 * np.linalg.norm(oracle))

    def test_solve_is_one_schur_form(self, monkeypatch):
        """The ordered Schur form of the Hamiltonian, one sorting `gees` call,
        gives both the solution and the imaginary-axis test; no eigenvalue
        call is made and SciPy's schur wrapper is not used."""
        rng = np.random.default_rng(5)
        problems = [random_lqr_problem(rng, 4) for _ in range(4)]
        calls = {"_gees": 0, "schur": 0, "eigvals": 0}
        for module, name, key in ((numkernel, "_gees", "_gees"), (sla, "schur", "schur"),
                                  (np.linalg, "eigvals", "eigvals"),
                                  (numkernel, "_eigvals", "eigvals")):
            fn = getattr(module, name)

            def counted(*args, _name=key, _fn=fn, **kwargs):
                calls[_name] += _name != "_gees" or kwargs.get("sort_t") == 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        for prob in problems:
            solve_care(prob)
        assert calls == {"_gees": 4, "schur": 0, "eigvals": 0}

    def test_residual_helper(self):
        prob = RiccatiProblem(a=[[-1.0]], q=[[2.0]], s=[[0.0]])
        assert care_residual(prob, np.array([[1.0]])) == 0.0

    def test_sensitivity_matches_differences(self):
        """dX along random directions (dA, dS, dQ) against central differences
        of the solution; one stack entry per direction."""
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(5):
            prob = random_lqr_problem(rng, 4)
            x = solve_care(prob).x
            dirs = [(rng.standard_normal((4, 4)),) + tuple(m + m.T for m in
                    rng.standard_normal((2, 4, 4))) for _ in range(3)]
            rhs = [x @ da + da.T @ x + x @ ds @ x + dq for da, ds, dq in dirs]
            for dx, (da, ds, dq) in zip(care_sensitivity(prob, x, np.array(rhs)), dirs):
                up, down = (solve_care(RiccatiProblem(a=prob.a + e * da, q=prob.q + e * dq,
                                                      s=prob.s + e * ds)).x for e in (h, -h))
                diff = (up - down) / (2 * h)
                assert np.abs(dx - diff).max() <= 1e-6 * np.abs(diff).max()


class TestLyapunov:
    """`_lyapunov_stack` on one-entry and mixed stacks, against closed forms and
    independent solvers."""

    def test_scalar(self):
        abscissa, p = _lyapunov_stack(np.array([[[-1.0]]]), np.array([[2.0]]))
        assert np.array_equal(abscissa, [-1.0])
        np.testing.assert_allclose(p, [[[1.0]]])

    def test_zero_rhs(self):
        np.testing.assert_allclose(_lyapunov_stack(np.array([[[-1.0]]]), np.zeros((1, 1)))[1],
                                   [[[0.0]]])

    def test_random_against_oracles(self):
        rng = np.random.default_rng(5)
        a = np.array([random_hurwitz(rng, 5) for _ in range(10)])
        g = rng.standard_normal((10, 5, 3))
        w = g @ g.swapaxes(1, 2)
        abscissa, p = _lyapunov_stack(a, w)
        assert np.all(abscissa < 0) and p.shape == (10, 5, 5)
        for ai, wi, pi in zip(a, w, p):
            np.testing.assert_allclose(pi, lyap_kron_oracle(ai, wi), rtol=1e-10, atol=1e-12)
            # independent dense Bartels-Stewart route
            np.testing.assert_allclose(pi, sla.solve_continuous_lyapunov(ai, -wi),
                                       rtol=1e-9, atol=1e-11)
            assert np.linalg.eigvalsh(pi).min() >= -1e-10 * np.linalg.norm(pi)

    def test_not_hurwitz_flagged(self):
        abscissa, p = _lyapunov_stack(np.array([[[1.0]]]), np.array([[1.0]]))
        assert np.array_equal(abscissa, [1.0]) and p.shape == (0, 1, 1)

    @pytest.mark.parametrize("a", [[[0.1, 1.0], [-1.0, 0.1]], [[0.0, 1.0], [-1.0, 0.0]]],
                             ids=["complex-unstable", "imaginary-axis"])
    def test_non_hurwitz_pair_flagged(self, a):
        # one 2x2 block of the real Schur form, its real part read off the diagonal;
        # the entry is left unsolved, never a NumericalError or LinAlgError
        abscissa, p = _lyapunov_stack(np.array([a]), np.eye(2))
        assert np.array_equal(abscissa, [a[0][0]]) and p.shape == (0, 2, 2)

    def test_schur_failure_is_numerical_error(self, monkeypatch):
        """LAPACK `gees` reporting no Schur form (info > 0) surfaces as the
        toolkit's NumericalError, not a bare LinAlgError."""
        gees = numkernel._gees

        def failing(select, a, **kwargs):
            out = gees(select, a, **kwargs)
            return out if kwargs.get("lwork") == -1 else (*out[:-1], 1)

        monkeypatch.setattr(numkernel, "_gees", failing)
        with pytest.raises(NumericalError, match="info 1"):
            _lyapunov_stack(np.array([-np.eye(3)]), np.eye(3))


class TestLyapunovStack:
    """The stack path does per entry only the `gees` and `trsyl` calls; the
    rest is done once over the stack with the bits of one entry alone."""

    @pytest.mark.parametrize("n", [1, 2, 5, 14])
    def test_mixed_stack_matches_single_entries(self, n):
        rng = np.random.default_rng(n)
        a = np.array([random_hurwitz(rng, n) * (-1.0 if i % 3 == 1 else 1.0) for i in range(9)])
        g = rng.standard_normal((n, n))
        w = g @ g.T
        abscissa, p = _lyapunov_stack(a, w)
        schur = [_schur_abscissa(ai) for ai in a]
        assert np.array_equal(abscissa, [s[2] for s in schur])
        stable = [i for i, s in enumerate(schur) if s[2] < 0]
        assert len(stable) == 6 and p.shape == (6, n, n)
        for pj, i in zip(p, stable):
            np.testing.assert_allclose(pj, sla.solve_continuous_lyapunov(a[i], -w),
                                       rtol=1e-9, atol=1e-11 * np.linalg.norm(pj))
            assert np.array_equal(pj, _lyap_schur(schur[i][0][None], schur[i][1][None], w)[0])

    def test_all_unstable_stack(self):
        a = np.array([np.eye(3), [[0.1, 1.0, 0.0], [-1.0, 0.1, 0.0], [0.0, 0.0, -1.0]]])
        abscissa, p = _lyapunov_stack(a, np.eye(3))
        assert p.shape == (0, 3, 3) and np.array_equal(abscissa, [1.0, 0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_raises(self, bad):
        a = np.array([-np.eye(2)] * 3)
        a[1, 0, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            _lyapunov_stack(a, np.eye(2))


class TestExpm:
    def test_zero_time_identity(self):
        a = np.random.default_rng(0).standard_normal((4, 4))
        assert np.array_equal(expm(a, 0.0), np.eye(4))

    def test_diagonal(self):
        """A diagonal matrix takes the general path: its exponential stays
        diagonal, each entry within a few roundings of exp."""
        d = np.array([-1.0, -2.0, 0.5, -30.0])
        phi = expm(np.diag(d), 1.0)
        assert np.array_equal(phi, np.diag(np.diag(phi)))
        np.testing.assert_allclose(np.diag(phi), np.exp(d), rtol=2e-14, atol=0.0)

    def test_semigroup(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        t1, t2 = 0.4, 0.9
        lhs = expm(a, t1 + t2)
        rhs = expm(a, t1) @ expm(a, t2)
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)

    def test_taylor_series_oracle(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 4))
        a /= 2.0 * np.linalg.norm(a)        # ||A t|| < 1 so 30 terms suffice
        t = 0.37
        series = np.eye(4)
        term = np.eye(4)
        for k in range(1, 31):
            term = term @ (a * t) / k
            series = series + term
        np.testing.assert_allclose(expm(a, t), series, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_empty_stack(self, n):
        assert expm(np.zeros((0, n, n)), 0.5).shape == (0, n, n)

    def test_matrix_is_a_stack_of_one(self):
        a = np.random.default_rng(4).standard_normal((5, 5))
        phi = expm(a, 0.3)
        assert phi.shape == (5, 5) and np.array_equal(phi, expm(a[None], 0.3)[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_raises(self, bad):
        a = np.array([-np.eye(2)] * 3)
        a[1, 0, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            expm(a)
        with pytest.raises(ValueError, match="infs or NaNs"), np.errstate(invalid="ignore"):
            expm(-np.eye(2), bad)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_powers_are_numerical_error(self):
        with pytest.raises(NumericalError, match="overflow"):
            expm(np.full((2, 2), 1e200))

    def test_singular_denominator_is_numerical_error(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(numkernel, "_solve", singular)
        with pytest.raises(NumericalError, match="singular Pade denominator"):
            expm(np.eye(3))

    def test_entries_keep_their_bits_in_any_group(self):
        """Entries whose norms ask for different Pade degrees and squarings
        each get the bits of their own one-entry call, in any order."""
        rng = np.random.default_rng(5)
        scales = [1e-4, 1e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0]
        a = np.array([rng.standard_normal((6, 6)) * c for c in scales for _ in range(3)])
        pw = np.array([np.broadcast_to(np.eye(6), a.shape), a @ a])
        pw = np.concatenate([pw, [pw[1] @ pw[1]]])
        pw = np.concatenate([pw, [pw[2] @ pw[1], pw[2] @ pw[2]]])
        pw = np.concatenate([pw, [pw[2] @ pw[3]]])
        m, s = numkernel._pade_structure(a, pw)
        assert len(set(zip(m.tolist(), s.tolist()))) >= len(scales)
        phi = expm(a, 0.7)
        order = rng.permutation(len(a))
        assert np.array_equal(expm(a[order], 0.7), phi[order])
        for ai, pi in zip(a, phi):
            assert np.array_equal(pi, expm(ai, 0.7))

    def test_one_solve_for_entries_of_one_norm(self, monkeypatch):
        """101 entries D A D with D = diag(+-1) share every 1-norm, so their
        Pade degree and squarings: one stacked solve serves them all, and
        each entry is D e^A D to the bit."""
        rng = np.random.default_rng(6)
        a = rng.standard_normal((8, 8)) * 3.0
        d = rng.choice([-1.0, 1.0], (101, 8))
        stack = d[:, :, None] * a * d[:, None, :]
        calls = []
        solve = numkernel._solve
        monkeypatch.setattr(numkernel, "_solve", lambda *args: calls.append(1) or solve(*args))
        phi = expm(stack)
        assert len(calls) == 1
        assert np.array_equal(phi, d[:, :, None] * expm(a) * d[:, None, :])

    def test_scipys_pade_degree_and_squarings(self):
        """The (m, s) of each entry is the one SciPy's own expm picks."""
        mod = pytest.importorskip("scipy.linalg._matfuncs_expm")
        pick = getattr(mod, "pick_pade_structure", None)
        if pick is None:
            pytest.skip("SciPy has no pick_pade_structure")
        rng = np.random.default_rng(7)
        for n in range(1, 11):
            a = rng.standard_normal((60, n, n)) * 10.0 ** rng.uniform(-4, 3, (60, 1, 1))
            a[::3] -= np.eye(n) * rng.uniform(0, 5)
            pw = [np.broadcast_to(np.eye(n), a.shape), a @ a]
            pw += [pw[1] @ pw[1]]
            pw += [pw[2] @ pw[1], pw[2] @ pw[2]]
            pw += [pw[2] @ pw[3]]
            m, s = numkernel._pade_structure(a, np.array(pw))
            for ai, mi, si in zip(a, m, s):
                work = np.empty((5, n, n))
                work[0] = ai
                assert (mi, si) == pick(work), (n, ai)


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(3)) == 1.0

    def test_nilpotent(self):
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0

    def test_companion_polynomial(self):
        # companion matrix of (x - 2)(x + 0.5) = x^2 - 1.5 x - 1
        comp = np.array([[1.5, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(spectral_radius(comp), 2.0, rtol=1e-12)

    def test_empty(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0



class TestSmallLapack:
    """numkernel's LAPACK helpers call numpy.linalg's own gufuncs: the same bits, and
    LinAlgError where numpy.linalg raises it."""

    @staticmethod
    def assert_same(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_bits_of_numpy_linalg(self):
        rng = np.random.default_rng(12)
        for n in range(1, 11):
            for shape in ((n, n), (3, n, n)):
                a = rng.standard_normal(shape)
                spd = a @ a.swapaxes(-1, -2) + n * np.eye(n)
                for b in (rng.standard_normal(n), rng.standard_normal((n, 4)),
                          rng.standard_normal(shape[:-1] + (2,)),
                          a.swapaxes(-1, -2)):                    # not C-contiguous
                    self.assert_same(numkernel._solve(a, b), np.linalg.solve(a, b))
                self.assert_same(numkernel._inv(a), np.linalg.inv(a))
                self.assert_same(numkernel._cholesky(spd), np.linalg.cholesky(spd))
                self.assert_same(numkernel._eigvalsh(spd), np.linalg.eigvalsh(spd))
                self.assert_same(numkernel._eigvalsh(a), np.linalg.eigvalsh(a))   # lower half
            a = rng.standard_normal((n, n))
            for m in (a, a + a.T, np.triu(a)):                  # complex and real eigenvalues
                self.assert_same(numkernel._eigvals(m), np.linalg.eigvals(m))
            z = a + 1j * rng.standard_normal((n, n))
            b = rng.standard_normal((n, 2))
            self.assert_same(numkernel._solve(z, b), np.linalg.solve(z, b))

    def test_barrier_right_hand_sides(self):
        """_barrier solves one (m, m) matrix against a (k, m, m) stack of terms."""
        rng = np.random.default_rng(13)
        for m in range(1, 7):
            a = rng.standard_normal((m, m)) + m * np.eye(m)
            terms = rng.standard_normal((4, m, m))
            self.assert_same(numkernel._solve(a, terms), np.linalg.solve(a, terms))

    def test_failures_are_linalg_errors(self):
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        for fn, args in ((numkernel._solve, (singular, np.ones(2))),
                         (numkernel._solve, (singular, np.eye(2))),
                         (numkernel._inv, (singular,)),
                         (numkernel._cholesky, (-np.eye(2),)),
                         (numkernel._cholesky, (singular,)),
                         (numkernel._eigvals, (np.array([[1.0, np.nan], [0.0, 1.0]]),)),
                         (numkernel._eigvals, (np.array([[np.inf]]),))):
            with pytest.raises(np.linalg.LinAlgError):
                fn(*args)
            with pytest.raises(np.linalg.LinAlgError):
                getattr(np.linalg, fn.__name__.lstrip("_"))(*args)

    def test_failures_keep_the_message_and_the_callers_error_state(self):
        """Each helper fails with numpy.linalg's own message, and neither a success nor a
        failure leaves its error state behind, also inside the caller's errstate."""
        singular, spd = np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([[2.0, 1.0], [1.0, 2.0]])
        cases = (("solve", (singular, np.ones(2)), (spd, np.ones(2))),
                 ("solve", (singular, np.eye(2)), (spd, np.eye(2))),
                 ("inv", (singular,), (spd,)),
                 ("cholesky", (-np.eye(2),), (spd,)),
                 ("eigvalsh", (np.full((3, 3), np.nan),), (spd,)),
                 ("eigvals", (np.array([[1.0, np.nan], [0.0, 1.0]]),), (singular,)))
        for outer in ({}, {"all": "raise"}, {"all": "ignore", "call": print}):
            with np.errstate(**outer):
                caller = np.geterr(), np.geterrcall()
                for name, bad, good in cases:
                    mine = getattr(numkernel, "_" + name)
                    with pytest.raises(np.linalg.LinAlgError) as want:
                        getattr(np.linalg, name)(*bad)
                    with pytest.raises(np.linalg.LinAlgError, match=f"^{want.value}$"):
                        mine(*bad)
                    assert (np.geterr(), np.geterrcall()) == caller
                    mine(*good)
                    assert (np.geterr(), np.geterrcall()) == caller

    def test_frobenius_norms_keep_their_bits(self):
        """_frobenius, care_residual and care_threshold sum the squares as np.linalg.norm
        does."""
        rng = np.random.default_rng(14)
        for n in range(1, 9):
            prob = random_lqr_problem(rng, n)
            for x in (rng.standard_normal((n, n)), rng.standard_normal((n, n)).T):
                r = x @ prob.a + prob.a.T @ x + x @ prob.s @ x + prob.q
                assert numkernel._frobenius(x) == np.linalg.norm(x)
                assert care_residual(prob, x) == float(np.linalg.norm(r, "fro"))
                assert numkernel.care_threshold(x) == 1e-8 * (1.0 + np.linalg.norm(x, "fro") ** 2)

    def test_no_numpy_linalg_call_in_the_package(self):
        src = Path(numkernel.__file__).parent
        pattern = re.compile(r"np\.linalg\.(solve|inv|cholesky|eigvalsh|eigvals)\(")
        found = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
                 for i, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)]
        assert found == []
