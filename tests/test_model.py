import numpy as np
import pytest

from rflsmooth.delay import identity_delay, pade_delay
from rflsmooth.errors import DimensionError, InfeasibleError
from rflsmooth.example import REFERENCE, phase_estimation_plant
from rflsmooth.model import (
    UncertainPlant,
    augment_with_delay,
    build_compact,
    validate_plant,
)

from conftest import random_hurwitz


def simple_plant(nbar=1, q=1, **overrides):
    """Nominal plant with no uncertainty channels."""
    fields = dict(
        A=-np.eye(nbar),
        B1=np.ones((nbar, q)),
        C0=np.ones((1, nbar)),
        C2=np.ones((1, nbar)),
        D21=np.full((1, q), 0.5),
    )
    fields.update(overrides)
    return UncertainPlant(**fields)


class TestValidate:
    def test_example_plant_clean(self, example_plant):
        assert validate_plant(example_plant) == []

    def test_s0_not_positive_definite(self, params):
        plant = phase_estimation_plant(params)
        bad = UncertainPlant(
            **{**{f: getattr(plant, f) for f in (
                "A", "B1", "C0", "C2", "D21", "B1_nl", "B1_unc", "C1_nl",
                "C1_unc", "D21_nl", "D21_unc", "beta")},
               "S0": (np.zeros((1, 1)),)}
        )
        issues = validate_plant(bad)
        assert any("S_1 not positive definite" in msg for msg in issues)

    def test_wrong_c2_columns(self):
        plant = simple_plant(nbar=2, C2=np.ones((1, 3)))
        issues = validate_plant(plant)
        assert any("C2" in msg for msg in issues)

    def test_nonpositive_beta(self, params):
        plant = phase_estimation_plant(params)
        bad = UncertainPlant(
            **{**{f: getattr(plant, f) for f in (
                "A", "B1", "C0", "C2", "D21", "B1_nl", "B1_unc", "C1_nl",
                "C1_unc", "D21_nl", "D21_unc", "S0")},
               "beta": (0.0,)}
        )
        assert any("beta[0]" in msg for msg in validate_plant(bad))


class TestAugment:
    def test_block_structure(self, example_plant):
        dly = pade_delay(2, 3.1e-6, realization="paper")
        aug = augment_with_delay(example_plant, dly)
        assert aug.n == 3
        np.testing.assert_allclose(aug.Ap[:1, :1], example_plant.A)
        np.testing.assert_allclose(aug.Ap[:1, 1:], 0.0)
        np.testing.assert_allclose(aug.Ap[1:, :1], dly.ga @ example_plant.C0)
        np.testing.assert_allclose(aug.Ap[1:, 1:], dly.fa)
        np.testing.assert_allclose(aug.Cp0, [[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(aug.Cp2, [[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(aug.Ca, np.hstack([dly.ja @ example_plant.C0, dly.ha]))

    def test_printed_ap_values(self, paper_compact):
        ap = paper_compact.aug.Ap
        assert ap[0, 0] == -9.14e3
        assert ap[1, 0] == 2048.0
        np.testing.assert_allclose(ap[1, 1], -1.94e6, rtol=5e-3)
        np.testing.assert_allclose(ap[1, 2], -1.19e6, rtol=5e-3)
        np.testing.assert_allclose(ap[2, 1], 1.048e6, rtol=1e-3)

    def test_empty_delay_degenerates(self, example_plant):
        aug = augment_with_delay(example_plant, identity_delay(1))
        np.testing.assert_allclose(aug.Ap, example_plant.A)
        np.testing.assert_allclose(aug.Ca, example_plant.C0)

    def test_spectrum_union(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            nbar = rng.integers(1, 4)
            plant = simple_plant(
                nbar=nbar,
                A=random_hurwitz(rng, nbar),
                C0=rng.standard_normal((1, nbar)),
                C2=rng.standard_normal((1, nbar)),
                B1=rng.standard_normal((nbar, 1)),
                D21=np.array([[1.0]]),
            )
            dly = pade_delay(int(rng.integers(1, 4)), 0.1)
            aug = augment_with_delay(plant, dly)
            got = np.sort_complex(np.linalg.eigvals(aug.Ap))
            expected = np.sort_complex(np.concatenate([
                np.linalg.eigvals(plant.A), np.linalg.eigvals(dly.fa)]))
            np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-8)

    def test_dimension_mismatch(self):
        plant = simple_plant(nbar=1, C0=np.ones((2, 1)), C2=np.ones((1, 1)))
        with pytest.raises(DimensionError):
            augment_with_delay(plant, pade_delay(2, 0.1))  # delay built for m=1


class TestCompact:
    def test_printed_blocks(self, paper_compact):
        np.testing.assert_allclose(paper_compact.Bt1, REFERENCE["Bt1"], atol=1e-12)
        np.testing.assert_allclose(paper_compact.Ct1, REFERENCE["Ct1"], atol=1e-12)
        np.testing.assert_allclose(paper_compact.Dt12, REFERENCE["Dt12"], atol=1e-12)
        np.testing.assert_allclose(paper_compact.Ct2, REFERENCE["Ct2"], atol=1e-12)
        np.testing.assert_allclose(paper_compact.Db21[0, 1], 4e-4, rtol=0.08)
        np.testing.assert_allclose(paper_compact.Db21[1], [0.0, 0.0, 1.0])
        np.testing.assert_allclose(paper_compact.Dt21, paper_compact.Db21)
        assert paper_compact.ktilde == 4
        assert (paper_compact.h, paper_compact.r, paper_compact.p) == (1, 1, 3)

    def test_trailing_nonlinearity_rows_zero(self, paper_compact):
        g = paper_compact.g
        np.testing.assert_allclose(paper_compact.Ct1[-g:], 0.0)
        np.testing.assert_allclose(paper_compact.Dt12[-g:, -g:], np.eye(g))
        assert np.count_nonzero(paper_compact.Dt12) == g

    def test_assumption1_identity_exact(self, paper_compact):
        lhs = np.vstack([paper_compact.Bp1w, paper_compact.Db21])
        rhs = np.vstack([paper_compact.Bt1, paper_compact.Dt21]) @ paper_compact.J
        assert np.abs(lhs - rhs).max() == 0.0
        np.testing.assert_allclose(paper_compact.J, np.eye(3))

    def test_no_uncertainty_degenerates(self):
        plant = simple_plant()
        aug = augment_with_delay(plant, pade_delay(1, 0.2))
        compact = build_compact(aug)
        assert compact.ktilde == 0
        assert compact.Bt1.shape == (2, 0)
        assert compact.Ct2.shape == (1, 2)
        np.testing.assert_allclose(compact.Bp1w, aug.Bp1)

    def test_rectangular_j_recovered(self):
        plant = simple_plant(
            q=2,
            B1=np.array([[2.0, 0.0]]),
            D21=np.array([[0.5, 0.0]]),
            B1_unc=(np.array([[2.0]]),),
            C1_unc=(np.array([[1.0]]),),
            D21_unc=(np.array([[0.5]]),),
            S0=(np.eye(1),),
        )
        aug = augment_with_delay(plant, identity_delay(1))
        compact = build_compact(aug)
        np.testing.assert_allclose(compact.J, [[1.0, 0.0]], atol=1e-12)

    def test_inconsistent_noise_factorization(self):
        plant = simple_plant(
            q=2,
            B1=np.array([[2.0, 1.0]]),
            D21=np.array([[0.5, 3.0]]),
            B1_unc=(np.array([[2.0]]),),
            C1_unc=(np.array([[1.0]]),),
            D21_unc=(np.array([[0.5]]),),
            S0=(np.eye(1),),
        )
        aug = augment_with_delay(plant, identity_delay(1))
        with pytest.raises(InfeasibleError):
            build_compact(aug)

    def test_singular_noise_names_d0(self):
        plant = simple_plant(D21=np.zeros((1, 1)))
        aug = augment_with_delay(plant, identity_delay(1))
        with pytest.raises(InfeasibleError, match="d0"):
            build_compact(aug)

    def test_j21_must_be_positive_definite(self, example_plant):
        aug = augment_with_delay(example_plant, pade_delay(2, 3.1e-6))
        with pytest.raises(ValueError):
            build_compact(aug, j21=np.array([[-1.0]]))
