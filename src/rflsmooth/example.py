"""Adaptive homodyne phase-estimation example: plant construction from the
physical parameters and the published reference values used by the
reproduction report.

The optical system tracks a diffusing phase phi through a homodyne
photocurrent I dt = 2 alpha sin(phi - phihat) dt + dW.  Linearizing about
the locked point and pulling the residual sin-minus-linear term out as a
sector-bounded channel yields a one-state uncertain plant with one
nonlinearity channel (g = 1) and one parametric-uncertainty channel
(k = 1, inactive for the nominal parameters but kept in the model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delay import pade_delay
from .model import UncertainPlant, augment_with_delay, build_compact
from .synthesis import ScalingPoint

__all__ = [
    "OpticalParameters",
    "phase_estimation_plant",
    "phase_estimation_compact",
    "reference_scaling_point",
    "REFERENCE",
]


@dataclass(frozen=True)
class OpticalParameters:
    lambda_ou: float = 9.14e3   # rad/s
    kappa: float = 4.0e4        # rad/s
    beta_slope: float = 1.0
    gamma: float = 0.4
    alpha: float = 1162.0       # 1/s
    delta: float = 3.1e-6       # s


def phase_estimation_plant(params: OpticalParameters = OpticalParameters()) -> UncertainPlant:
    """One-state uncertain plant for the homodyne phase-tracking loop.

    The driving Wiener process stacks the phase noise and the shot noise
    (q = 2).  The nonlinearity output is nu = 2 alpha gamma phi; its channel
    feeds the measurement with gain 1/(2 alpha beta).  The uncertainty
    channel enters the dynamics with gain sqrt(kappa) and has zero output,
    matching a parametric perturbation that is switched off nominally.
    """
    sk = np.sqrt(params.kappa)
    inv2ab = 1.0 / (2.0 * params.alpha * params.beta_slope)
    return UncertainPlant(
        A=[[-params.lambda_ou]],
        B1=[[sk, 0.0]],
        C0=[[1.0]],
        C2=[[1.0]],
        D21=[[0.0, inv2ab]],
        B1_nl=([[0.0]],),
        B1_unc=([[sk]],),
        C1_nl=([[2.0 * params.alpha * params.gamma]],),
        C1_unc=([[0.0]],),
        D21_nl=([[inv2ab]],),
        D21_unc=([[0.0]],),
        beta=(1.0,),
        S0=(np.eye(1),),
    )


def phase_estimation_compact(params: OpticalParameters = OpticalParameters(),
                             order: int = 2, realization: str = "paper"):
    """Delay-augmented compact plant for the example (default: the published
    power-of-two realization of the second-order delay approximant)."""
    plant = phase_estimation_plant(params)
    dly = pade_delay(order, params.delta, realization=realization)
    aug = augment_with_delay(plant, dly)
    return build_compact(aug)


def reference_scaling_point() -> ScalingPoint:
    """Published optimal scaling point for the example."""
    return ScalingPoint(lam=np.array([0.9727, 0.4831, 0.0015, 0.0014]), tau=1.13e-6)


# Published reference values for the example (rounded as printed in the
# source publication); used by the reproduction report and the tests.
REFERENCE = {
    "Ap": np.array([
        [-9.14e3, 0.0, 0.0],
        [2048.0, -1.94e6, -1.19e6],
        [0.0, 1.048e6, 0.0],
    ]),
    "Bt1": np.array([
        [200.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ]),
    "Ct1": np.array([
        [0.0, 0.0, 0.0],
        [929.6, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ]),
    "Dt12": np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]),
    "Ct2": np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    "Db21": np.array([[0.0, 4.0e-4, 0.0], [0.0, 0.0, 1.0]]),
    "M": np.array([
        [0.9727, 0.0, 0.0],
        [0.0, 0.4846, -0.4831],
        [0.0, -0.4831, 0.4845],
    ]),
    "Ac": np.array([
        [-4.58e5, -0.09, -7.14],
        [1.93e3, -1.93e6, -1.19e6],
        [-550.1, 1.0486e6, -0.01],
    ]),
    "Bc_tilde": np.array([
        [4.45e5, -190.97],
        [120.98, -0.052],
        [545.41, -0.233],
    ]),
    "Cc_tilde": np.array([
        [1.02, 4.21e-7, 3.23e-5],
        [944.68, 3.9e-4, 0.0299],
    ]),
    "Vtau": 0.15,
    "mc_smoother": 0.0605,
    "mc_ngcf": 0.1031,
}
