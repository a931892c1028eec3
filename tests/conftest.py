import numpy as np
import pytest

import slipswim as ss


@pytest.fixture(scope="session")
def sphere8():
    return ss.make_parametric_surface("sphere", 8)


@pytest.fixture(scope="session")
def sphere12():
    return ss.make_parametric_surface("sphere", 12)


@pytest.fixture(scope="session")
def sphere16():
    return ss.make_parametric_surface("sphere", 16)


@pytest.fixture(scope="session")
def spheroid12():
    return ss.make_parametric_surface("spheroid", 12, a_axis=1.0, c_axis=1.6)


@pytest.fixture(scope="session")
def problem12():
    """Finite-slip problem on a coarse sphere, shared across the suite."""
    mesh = ss.make_parametric_surface("sphere", 12)
    return ss.SwimProblem(mesh, 2.0, shrink=0.5)


@pytest.fixture(scope="session")
def problem16_noslip():
    """Near no-slip problem (alpha = 1e6) on a moderate sphere."""
    mesh = ss.make_parametric_surface("sphere", 16)
    return ss.SwimProblem(mesh, 1e6, shrink=0.5)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture(scope="session")
def problem20_strided():
    """Over-determined near no-slip problem: every third node carries a source.

    The residuals are far from rounding here, and the grand matrix is
    symmetric only to ~1e-5, so block formulas that assume symmetry fail.
    """
    mesh = ss.make_parametric_surface("sphere", 20)
    return ss.SwimProblem(mesh, 1e6, shrink=0.7, stride=3)
