import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rflsmooth
from rflsmooth.example import (
    OpticalParameters,
    phase_estimation_compact,
    phase_estimation_plant,
    reference_scaling_point,
)
from rflsmooth.synthesis import compute_gains

SRC = Path(rflsmooth.__file__).resolve().parents[1]


def run_python(argv, threads=None):
    """Run `python argv` on these sources in a fresh interpreter, optionally
    with a fixed OpenBLAS thread count."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=300, check=True)


@pytest.fixture(scope="session")
def params():
    return OpticalParameters()


@pytest.fixture(scope="session")
def example_plant(params):
    return phase_estimation_plant(params)


@pytest.fixture(scope="session")
def paper_compact(params):
    return phase_estimation_compact(params, realization="paper")


@pytest.fixture(scope="session")
def balanced_compact(params):
    return phase_estimation_compact(params, realization="balanced")


@pytest.fixture(scope="session")
def reference_point():
    return reference_scaling_point()


@pytest.fixture(scope="session")
def paper_solution(paper_compact, reference_point):
    return compute_gains(paper_compact, reference_point)


@pytest.fixture(scope="session")
def balanced_solution(balanced_compact, reference_point):
    return compute_gains(balanced_compact, reference_point)


def random_hurwitz(rng, n, shift=0.5):
    """Random stable matrix: random square minus a stabilizing shift."""
    a = rng.standard_normal((n, n))
    return a - (np.abs(np.linalg.eigvals(a).real).max() + shift) * np.eye(n)
