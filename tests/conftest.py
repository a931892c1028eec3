import numpy as np
import pytest

import slipswim as ss
from test_geometry import _icosphere, _write_off


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
def problem24_deep():
    """Finite-slip problem whose source grid fits smooth data to rounding.

    At res 24 and shrink 0.3 the six rigid traces leave on-node residuals
    of ~1e-14; the grid on a coarser or shallower body is overdetermined
    and leaves its discretization error there.
    """
    mesh = ss.make_parametric_surface("sphere", 24)
    return ss.SwimProblem(mesh, 2.0, shrink=0.3)


@pytest.fixture(scope="session")
def icosphere2(tmp_path_factory):
    """The unit icosahedron's 20 faces split twice: a 320-triangle mesh, loaded from OFF."""
    path = tmp_path_factory.mktemp("meshes") / "ico2.off"
    _write_off(path, *_icosphere(2))
    return ss.load_triangle_mesh(path)


@pytest.fixture(scope="session")
def problem20_strided(icosphere2):
    """Over-determined near no-slip problem on ``icosphere2``: every third node carries a source.

    The residuals are far from rounding here, and the grand matrix is
    symmetric only to ~1e-3, so block formulas that assume symmetry fail.
    """
    return ss.SwimProblem(icosphere2, 1e6, shrink=0.7, stride=3)
