"""Traction basis, grand matrix and rigid-body swim velocity.

The six auxiliary fields (slip BVP solutions with elementary rigid-motion
data) yield six boundary traction fields g_i.  Pairing them with the
elementary motions gives the 6x6 grand matrix

    M_ik = sum_n w_n e_i(x_n) . g_k(x_n),

whose blocks are the translation resistance K (top-left), the rotation
resistance R (bottom-right) and the coupling S.  With the package's
into-body normal convention, M comes out symmetric positive definite:
for the no-slip unit sphere K = 6 pi I and R = 8 pi I.

The rigid velocity generated by boundary data v_star solves M (xi, omega) = W
with the wrench, the 6-vector W_i = -integral of v_star . g_i.  The
Schur-complement blocks

    A = (K - S^T R^-1 S)^-1,      B = (R - S K^-1 S^T)^-1

are kept as diagnostics only: the closed block inverse built from them
assumes M[:3, 3:] = S^T, which a discrete M satisfies only up to its
symmetry defect, so comparing it with the direct inverse measures that
defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisRankError, SolverError
from .geometry import SurfaceMesh, elementary_rigid_motion, tangential_part
from .collocation import BoundaryData, data_vector

__all__ = [
    "ThrustBasis",
    "GrandMatrix",
    "traction_basis",
    "assemble_grand_matrix",
    "invert_grand_matrix",
    "compute_wrench",
    "swim_velocity",
    "thrust_projection",
]

_RANK_TOL = 1e-10
_PROJECTION_TOL = 1e-8


@dataclass(frozen=True)
class ThrustBasis:
    """The six auxiliary traction fields on the surface.

    ``tractions[i]`` is g_(i+1) at the nodes.  The weighted Gram matrices of
    the tractions and of their tangential projections are kept for
    projections; construction fails if either is rank deficient after
    scaling to unit diagonal.
    """

    tractions: np.ndarray
    aux_fields: tuple
    gram: np.ndarray
    gram_tangential: np.ndarray


def traction_basis(aux_fields, mesh: SurfaceMesh, tractions) -> ThrustBasis:
    """Build the thrust basis from the six auxiliary fields and their tractions.

    ``tractions`` holds g_1..g_6 at the nodes, shape (6, N, 3), e.g. from
    :meth:`slipswim.collocation.SlipSolver.node_traction`.  Raises
    :class:`BasisRankError` if either Gram matrix is numerically rank
    deficient, which signals a broken discretization.
    """
    aux_fields = tuple(aux_fields)
    if len(aux_fields) != 6:
        raise ValueError(f"need exactly 6 auxiliary fields, got {len(aux_fields)}")
    tractions = np.asarray(tractions, dtype=float)
    if tractions.shape != (6, mesh.n_nodes, 3):
        raise ValueError("tractions must be (6, N, 3)")
    tang = np.array([tangential_part(t, mesh.normals) for t in tractions])
    w = mesh.weights
    gram = np.einsum("n,inj,knj->ik", w, tractions, tractions)
    gram_t = np.einsum("n,inj,knj->ik", w, tang, tang)
    for name, g in (("traction", gram), ("tangential traction", gram_t)):
        # Translation and rotation tractions differ by a length, so the rank
        # is read off the unit-diagonal Gram, which no choice of units changes.
        d = np.sqrt(np.diag(g))
        d[d == 0.0] = 1.0  # a zero field keeps its zero row and fails the test
        ev = np.linalg.eigvalsh(g / np.outer(d, d))
        r = int(np.count_nonzero(ev > _RANK_TOL * ev[-1]))
        if r < 6:
            raise BasisRankError(
                f"{name} Gram matrix has numerical rank {r} < 6; "
                "the discretization cannot resolve all six rigid modes"
            )
    return ThrustBasis(tractions, aux_fields, gram, gram_t)


@dataclass(frozen=True)
class GrandMatrix:
    """6x6 rigid-mode resistance matrix with its Schur-complement blocks."""

    M: np.ndarray
    K: np.ndarray
    S: np.ndarray
    R: np.ndarray
    A: np.ndarray
    B: np.ndarray
    symmetry_defect: float
    min_eigenvalue: float

    @classmethod
    def from_matrix(cls, m) -> "GrandMatrix":
        """Split a 6x6 matrix into blocks and compute the Schur inverses.

        Raises :class:`SolverError` if the symmetrized matrix is not
        positive definite.
        """
        m = np.asarray(m, dtype=float)
        if m.shape != (6, 6):
            raise ValueError("grand matrix must be 6x6")
        k = m[:3, :3]
        r = m[3:, 3:]
        s = m[3:, :3]
        defect = float(np.linalg.norm(m - m.T) / np.linalg.norm(m))
        min_ev = float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])
        if min_ev <= 0.0:
            raise SolverError(
                f"grand matrix is not positive definite (min eigenvalue {min_ev:.3e}, "
                f"symmetry defect {defect:.3e}); refine the discretization"
            )
        a = np.linalg.inv(k - s.T @ np.linalg.solve(r, s))
        b = np.linalg.inv(r - s @ np.linalg.solve(k, s.T))
        return cls(m, k, s, r, a, b, defect, min_ev)


def _rigid_modes(mesh: SurfaceMesh) -> np.ndarray:
    """The six elementary rigid motions at the nodes, shape (6, N, 3)."""
    return np.array([elementary_rigid_motion(i, mesh.nodes) for i in range(1, 7)])


def assemble_grand_matrix(basis: ThrustBasis, mesh: SurfaceMesh) -> GrandMatrix:
    """Pair elementary rigid motions with the traction basis to form M."""
    m = np.einsum("n,inj,knj->ik", mesh.weights, _rigid_modes(mesh), basis.tractions)
    return GrandMatrix.from_matrix(m)


def invert_grand_matrix(gm: GrandMatrix):
    """Inverse of M two ways: the closed block formula and direct inversion.

    Returns (block_inverse, direct_inverse); agreement of the two is one of
    the structural checks on the computed matrix.
    """
    a, b = gm.A, gm.B
    top_right = -a @ gm.S.T @ np.linalg.inv(gm.R)
    bottom_left = -b @ gm.S @ np.linalg.inv(gm.K)
    block = np.block([[a, top_right], [bottom_left, b]])
    return block, np.linalg.inv(gm.M)


def compute_wrench(v_star: BoundaryData, basis: ThrustBasis, mesh: SurfaceMesh) -> np.ndarray:
    """The wrench 6-vector W_i = -sum_n w_n v_star(x_n) . g_i(x_n)."""
    v = data_vector(v_star, mesh)
    return -np.einsum("n,nj,inj->i", mesh.weights, v, basis.tractions)


def swim_velocity(gm: GrandMatrix, wrench: np.ndarray):
    """Rigid-body velocity (xi, omega) generated by the wrench 6-vector W.

    Solves M (xi, omega) = W and cross-checks that the solution reproduces
    the wrench to near rounding.
    """
    wrench = np.asarray(wrench, dtype=float)
    sol = np.linalg.solve(gm.M, wrench)
    defect = np.max(np.abs(gm.M @ sol - wrench))
    if defect > 1e-10 * max(1.0, float(np.max(np.abs(wrench)))):
        raise SolverError(
            f"grand-matrix solve failed to reproduce the wrench (defect {defect:.3e})"
        )
    return sol[:3], sol[3:]


def thrust_projection(v_star: BoundaryData, basis: ThrustBasis, mesh: SurfaceMesh):
    """L2(surface) projection of the boundary data onto span{g_1..g_6}.

    Returns (coefficients, residual_norm, is_nonzero) where is_nonzero
    states whether the projection exceeds 1e-8 relative to the data
    norm.  The motion dichotomy rests on this flag: the body moves exactly
    when the projection is nonzero.
    """
    v = data_vector(v_star, mesh)
    rhs = np.einsum("n,nj,inj->i", mesh.weights, v, basis.tractions)
    try:
        coeff = np.linalg.solve(basis.gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise BasisRankError("traction Gram matrix is singular") from exc
    v_sq = float(np.einsum("n,nj,nj->", mesh.weights, v, v))
    proj_sq = float(coeff @ rhs)
    residual = float(np.sqrt(max(v_sq - proj_sq, 0.0)))
    v_norm = np.sqrt(v_sq)
    is_nonzero = bool(v_norm > 0 and np.sqrt(max(proj_sq, 0.0)) > _PROJECTION_TOL * v_norm)
    return coeff, residual, is_nonzero
