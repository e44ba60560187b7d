"""Uncertain plant model, delay augmentation, and the compact synthesis form.

All block-matrix assembly lives here.  The plant carries three kinds of
input/output channel: a driving Wiener noise, a bank of scalar sector/
Lipschitz-bounded nonlinearities (g channels), and a bank of norm-bounded
uncertainties (k channels).  Augmenting with a delay model yields the
smoothing plant, and `build_compact` stacks everything into the single
uncertainty channel form the synthesis machinery consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delay import DelayModel
from .errors import DimensionError, InfeasibleError

__all__ = [
    "UncertainPlant",
    "NonlinearityBank",
    "AugmentedPlant",
    "CompactPlant",
    "validate_plant",
    "augment_with_delay",
    "build_compact",
]


@dataclass(frozen=True)
class UncertainPlant:
    """Continuous-time uncertain plant.

        dx  = [A x + sum_i B1_nl[i] mu_i + sum_s B1_unc[s] xi_s] dt + B1 dW
        w   = C0 x                      (output to be estimated)
        zeta_s = C1_unc[s] x            (uncertainty outputs)
        nu_i   = C1_nl[i] x             (nonlinearity outputs, scalar)
        dy  = [C2 x + sum_i D21_nl[i] mu_i + sum_s D21_unc[s] xi_s] dt + D21 dW

    mu_i = psi_i(nu_i) with psi_i(0) = 0 and |psi_i(u)-psi_i(v)| <= beta_i |u-v|;
    each xi_s satisfies a norm-type integral constraint against zeta_s with
    initial-state weight S0[s].
    """

    A: np.ndarray
    B1: np.ndarray
    C0: np.ndarray
    C2: np.ndarray
    D21: np.ndarray
    B1_nl: tuple = ()       # g matrices, nbar x 1
    B1_unc: tuple = ()      # k matrices, nbar x r_s
    C1_nl: tuple = ()       # g row vectors, 1 x nbar
    C1_unc: tuple = ()      # k matrices, h_s x nbar
    D21_nl: tuple = ()      # g matrices, l x 1
    D21_unc: tuple = ()     # k matrices, l x r_s
    beta: tuple = ()        # g positive Lipschitz constants
    S0: tuple = ()          # k positive-definite initial-state weights

    def __post_init__(self):
        for name in ("A", "B1", "C0", "C2", "D21"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        for name in ("B1_nl", "B1_unc", "C1_nl", "C1_unc", "D21_nl", "D21_unc", "S0"):
            object.__setattr__(
                self, name,
                tuple(np.atleast_2d(np.asarray(m, dtype=float)) for m in getattr(self, name)),
            )
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))

    @property
    def nbar(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.C0.shape[0]

    @property
    def l(self) -> int:
        return self.C2.shape[0]

    @property
    def q(self) -> int:
        return self.B1.shape[1]

    @property
    def g(self) -> int:
        return len(self.B1_nl)

    @property
    def k(self) -> int:
        return len(self.B1_unc)

    @property
    def h_s(self) -> tuple:
        return tuple(c.shape[0] for c in self.C1_unc)

    @property
    def r_s(self) -> tuple:
        return tuple(b.shape[1] for b in self.B1_unc)


@dataclass(frozen=True)
class NonlinearityBank:
    """Scalar nonlinearities nu -> mu with their Lipschitz constants."""

    psi: tuple
    beta: tuple

    def validate(self, span: float = 2.0, npoints: int = 200, tol: float = 1e-9):
        """Check psi_i(0) = 0 and a sampled Lipschitz bound on [-span, span].

        Returns a list of violation strings (empty when the bank is valid).
        """
        issues = []
        grid = np.linspace(-span, span, npoints)
        for i, (fn, b) in enumerate(zip(self.psi, self.beta)):
            if abs(fn(0.0)) > tol:
                issues.append(f"psi_{i} does not vanish at the origin: psi(0)={fn(0.0):.3e}")
            vals = np.array([fn(v) for v in grid])
            diff = np.abs(vals[:, None] - vals[None, :])
            arg = np.abs(grid[:, None] - grid[None, :])
            if np.any(diff > b * arg + tol):
                worst = float((diff - b * arg).max())
                issues.append(f"psi_{i} violates Lipschitz bound beta={b} by {worst:.3e}")
        return issues


@dataclass(frozen=True)
class AugmentedPlant:
    """Plant with the delay model appended so the delayed output can be estimated."""

    plant: UncertainPlant
    delay: DelayModel
    Ap: np.ndarray
    Bp1: np.ndarray
    Bp1_nl: tuple
    Bp1_unc: tuple
    Cp0: np.ndarray
    Cp1_nl: tuple
    Cp1_unc: tuple
    Cp2: np.ndarray
    Ca: np.ndarray

    @property
    def n(self) -> int:
        return self.Ap.shape[0]

    @property
    def na(self) -> int:
        return self.delay.na


@dataclass(frozen=True)
class CompactPlant:
    """Stacked single-channel synthesis form.

    The stacked uncertainty input is xi~ = [xi_1..xi_k, mu_1..mu_g,
    mu~_1..mu~_g] and the stacked output zeta~ = [zeta_1..zeta_k,
    nu_1..nu_g, nu~_1..nu~_g].  Bp1w is the noise input matrix against the
    augmented (q+g)-dimensional Wiener process, whose trailing g fictitious
    components regularize the estimator-copy measurement channel.
    M_stack and N_stack hold the constant IQC multiplier terms, one per
    scaling entry: M(lambda) = sum_j lambda_j M_stack[j], likewise N.
    """

    aug: AugmentedPlant
    Bt1: np.ndarray
    Ct1: np.ndarray
    Dt12: np.ndarray
    Ct2: np.ndarray
    Dt21: np.ndarray
    Db21: np.ndarray
    J: np.ndarray
    J21: np.ndarray
    Bp1w: np.ndarray
    d0: float
    M_stack: np.ndarray
    N_stack: np.ndarray

    @property
    def plant(self) -> UncertainPlant:
        return self.aug.plant

    @property
    def n(self) -> int:
        return self.aug.n

    @property
    def h(self) -> int:
        return sum(self.plant.h_s)

    @property
    def r(self) -> int:
        return sum(self.plant.r_s)

    @property
    def p(self) -> int:
        return self.h + 2 * self.plant.g

    @property
    def ktilde(self) -> int:
        return self.plant.k + 3 * self.plant.g

    @property
    def m(self) -> int:
        return self.plant.m

    @property
    def l(self) -> int:
        return self.plant.l

    @property
    def g(self) -> int:
        return self.plant.g

    @property
    def k(self) -> int:
        return self.plant.k


def validate_plant(plant: UncertainPlant) -> list[str]:
    """Audit dimensions and definiteness; returns a list of violations."""
    issues = []
    nbar, m, l, q = plant.nbar, plant.m, plant.l, plant.q

    def check(cond, msg):
        if not cond:
            issues.append(msg)

    check(plant.A.shape == (nbar, nbar), f"A must be square, got {plant.A.shape}")
    check(plant.B1.shape == (nbar, q), f"B1 must be {nbar}x{q}, got {plant.B1.shape}")
    check(plant.C0.shape[1] == nbar, f"C0 must have {nbar} columns, got {plant.C0.shape[1]}")
    check(plant.C2.shape[1] == nbar, f"C2 must have {nbar} columns, got {plant.C2.shape[1]}")
    check(plant.D21.shape == (l, q), f"D21 must be {l}x{q}, got {plant.D21.shape}")

    g, k = plant.g, plant.k
    check(len(plant.C1_nl) == g, f"C1_nl count {len(plant.C1_nl)} != g={g}")
    check(len(plant.D21_nl) == g, f"D21_nl count {len(plant.D21_nl)} != g={g}")
    check(len(plant.beta) == g, f"beta count {len(plant.beta)} != g={g}")
    check(len(plant.C1_unc) == k, f"C1_unc count {len(plant.C1_unc)} != k={k}")
    check(len(plant.D21_unc) == k, f"D21_unc count {len(plant.D21_unc)} != k={k}")

    for i, (b, c, d) in enumerate(zip(plant.B1_nl, plant.C1_nl, plant.D21_nl)):
        check(b.shape == (nbar, 1), f"B1_nl[{i}] must be {nbar}x1, got {b.shape}")
        check(c.shape == (1, nbar), f"C1_nl[{i}] must be 1x{nbar}, got {c.shape}")
        check(d.shape == (l, 1), f"D21_nl[{i}] must be {l}x1, got {d.shape}")
    for i, b in enumerate(plant.beta):
        check(b > 0, f"beta[{i}] must be positive, got {b}")
    for s, (b, c, d) in enumerate(zip(plant.B1_unc, plant.C1_unc, plant.D21_unc)):
        check(b.shape[0] == nbar, f"B1_unc[{s}] must have {nbar} rows, got {b.shape[0]}")
        check(c.shape[1] == nbar, f"C1_unc[{s}] must have {nbar} columns, got {c.shape[1]}")
        check(d.shape == (l, b.shape[1]),
              f"D21_unc[{s}] must be {l}x{b.shape[1]}, got {d.shape}")
    for s, w in enumerate(plant.S0):
        if s < k:
            sym = np.abs(w - w.T).max() <= 1e-12 * (1.0 + np.abs(w).max())
            posdef = sym and np.linalg.eigvalsh(0.5 * (w + w.T)).min() > 0
            check(sym and posdef, f"S_{s + 1} not positive definite")
    check(len(plant.S0) == k, f"S0 count {len(plant.S0)} != k={k}")
    return issues


def augment_with_delay(plant: UncertainPlant, dly: DelayModel) -> AugmentedPlant:
    """Stack the delay model below the plant; the measurement equation is
    unchanged and the delayed output is read out by Ca = [Ja C0, Ha]."""
    if dly.ga.shape[1] != plant.m:
        raise DimensionError(
            f"delay input width {dly.ga.shape[1]} does not match C0 row count {plant.m}"
        )
    nbar, na = plant.nbar, dly.na
    zpad = np.zeros((na, 1))

    def zcols(mat):
        return np.hstack([mat, np.zeros((mat.shape[0], na))])

    ap = np.block([[plant.A, np.zeros((nbar, na))], [dly.ga @ plant.C0, dly.fa]])
    return AugmentedPlant(
        plant=plant,
        delay=dly,
        Ap=ap,
        Bp1=np.vstack([plant.B1, np.zeros((na, plant.q))]),
        Bp1_nl=tuple(np.vstack([b, zpad]) for b in plant.B1_nl),
        Bp1_unc=tuple(np.vstack([b, np.zeros((na, b.shape[1]))]) for b in plant.B1_unc),
        Cp0=zcols(plant.C0),
        Cp1_nl=tuple(zcols(c) for c in plant.C1_nl),
        Cp1_unc=tuple(zcols(c) for c in plant.C1_unc),
        Cp2=zcols(plant.C2),
        Ca=np.hstack([dly.ja @ plant.C0, dly.ha]),
    )


def _construct_j(stack_lhs: np.ndarray, stack_rhs: np.ndarray, tol: float = 1e-8):
    """Find J with stack_lhs = stack_rhs @ J; identity shortcut when square."""
    rows, cols_l = stack_lhs.shape
    cols_r = stack_rhs.shape[1]
    if cols_r == 0:
        # no stacked uncertainty channel; the factorization constraint is vacuous
        return np.zeros((0, cols_l))
    if cols_l == cols_r:
        if np.allclose(stack_lhs, stack_rhs, rtol=0, atol=tol * (1 + np.abs(stack_lhs).max())):
            return np.eye(cols_l)
    j, *_ = np.linalg.lstsq(stack_rhs, stack_lhs, rcond=None)
    resid = np.linalg.norm(stack_rhs @ j - stack_lhs)
    if resid > tol * (1.0 + np.linalg.norm(stack_lhs)):
        raise InfeasibleError(
            f"no matrix J satisfies the noise factorization; residual {resid:.3e}"
        )
    return j


def _multiplier_stacks(plant: UncertainPlant, r: int, h: int):
    """Multiplier terms in lambda order: one per uncertainty channel, then per
    nonlinearity the difference (mu - mu~)^2 <= beta^2 (nu - nu~)^2, plant and copy bounds."""
    k, g = plant.k, plant.g
    m_stack = np.zeros((k + 3 * g, r + 2 * g, r + 2 * g))
    n_stack = np.zeros((k + 3 * g, h + 2 * g, h + 2 * g))
    r_off, h_off = np.cumsum((0,) + plant.r_s), np.cumsum((0,) + plant.h_s)
    for s in range(k):
        m_stack[s, r_off[s]:r_off[s + 1], r_off[s]:r_off[s + 1]] = np.eye(plant.r_s[s])
        n_stack[s, h_off[s]:h_off[s + 1], h_off[s]:h_off[s + 1]] = np.eye(plant.h_s[s])
    diff = np.array([[1.0, -1.0], [-1.0, 1.0]])
    for i in range(g):
        b2 = plant.beta[i] * plant.beta[i]
        mu, mut, nu, nut = r + i, r + g + i, h + i, h + g + i
        m_stack[k + i][np.ix_([mu, mut], [mu, mut])] = diff
        n_stack[k + i][np.ix_([nu, nut], [nu, nut])] = b2 * diff
        m_stack[k + g + i, mu, mu], n_stack[k + g + i, nu, nu] = 1.0, b2
        m_stack[k + 2 * g + i, mut, mut], n_stack[k + 2 * g + i, nut, nut] = 1.0, b2
    return m_stack, n_stack


def build_compact(aug: AugmentedPlant, j21: np.ndarray = None, d0: float = 1e-9) -> CompactPlant:
    """Stack the augmented plant into the compact synthesis form.

    Parameters
    ----------
    aug : AugmentedPlant
    j21 : ndarray, optional
        Positive-definite g x g free parameter regularizing the
        estimator-copy measurement rows; defaults to the identity.
    d0 : float
        Required lower bound on eig(Db21 Db21'); the build fails when the
        stacked measurement noise is closer to singular than this.
    """
    plant = aug.plant
    n, m, l, q, g, k = aug.n, plant.m, plant.l, plant.q, plant.g, plant.k
    r = sum(plant.r_s)
    h = sum(plant.h_s)

    if j21 is None:
        j21 = np.eye(g)
    j21 = np.atleast_2d(np.asarray(j21, dtype=float))
    if g > 0:
        if j21.shape != (g, g):
            raise DimensionError(f"J21 must be {g}x{g}, got {j21.shape}")
        if np.linalg.eigvalsh(0.5 * (j21 + j21.T)).min() <= 0:
            raise ValueError("J21 must be positive definite")
    else:
        j21 = np.zeros((0, 0))

    def hstack(parts, rows):
        return np.hstack(parts) if parts else np.zeros((rows, 0))

    def vstack(parts, cols):
        return np.vstack(parts) if parts else np.zeros((0, cols))

    bt1 = np.hstack([
        hstack(list(aug.Bp1_unc), n),
        hstack(list(aug.Bp1_nl), n),
        np.zeros((n, g)),
    ])
    ct1 = np.vstack([
        vstack(list(aug.Cp1_unc), n),
        vstack(list(aug.Cp1_nl), n),
        np.zeros((g, n)),
    ])
    dt12 = np.vstack([
        np.zeros((h, m + g)),
        np.zeros((g, m + g)),
        np.hstack([np.zeros((g, m)), np.eye(g)]),
    ])
    ct2 = np.vstack([aug.Cp2, np.zeros((g, n))])
    dt21 = np.block([
        [hstack(list(plant.D21_unc), l), hstack(list(plant.D21_nl), l), np.zeros((l, g))],
        [np.zeros((g, r)), np.zeros((g, g)), np.eye(g)],
    ])
    db21 = np.block([
        [plant.D21, np.zeros((l, g))],
        [np.zeros((g, q)), j21],
    ])
    bp1w = np.hstack([aug.Bp1, np.zeros((n, g))])

    noise_gram = db21 @ db21.T
    min_eig = float(np.linalg.eigvalsh(0.5 * (noise_gram + noise_gram.T)).min())
    if min_eig < d0:
        raise InfeasibleError(
            f"stacked measurement noise is singular: eig(Db21 Db21') >= {min_eig:.3e} "
            f"fails the required bound d0 = {d0:.3e}",
            margin=min_eig - d0,
        )

    j = _construct_j(np.vstack([bp1w, db21]), np.vstack([bt1, dt21]))
    m_stack, n_stack = _multiplier_stacks(plant, r, h)
    return CompactPlant(
        aug=aug, Bt1=bt1, Ct1=ct1, Dt12=dt12, Ct2=ct2, Dt21=dt21,
        Db21=db21, J=j, J21=j21, Bp1w=bp1w, d0=d0, M_stack=m_stack, N_stack=n_stack,
    )
