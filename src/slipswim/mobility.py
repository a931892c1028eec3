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
with the wrench W_i = -integral of v_star . g_i.  The Schur-complement blocks

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
from .stokeslets import FlowField, evaluate_traction
from .collocation import BoundaryData, data_vector

__all__ = [
    "ThrustBasis",
    "GrandMatrix",
    "Wrench",
    "traction_basis",
    "assemble_grand_matrix",
    "invert_grand_matrix",
    "compute_wrench",
    "swim_velocity",
    "thrust_projection",
]

_RANK_TOL = 1e-10


@dataclass(frozen=True)
class ThrustBasis:
    """The six auxiliary traction fields on the surface.

    ``tractions[i]`` is g_(i+1) at the nodes; ``tangential_tractions`` their
    tangential projections.  The weighted Gram matrices of both families are
    kept for projections; construction fails if either is rank deficient.
    """

    tractions: np.ndarray
    tangential_tractions: np.ndarray
    aux_fields: tuple
    gram: np.ndarray
    gram_tangential: np.ndarray


def _gram_rank(gram: np.ndarray, tol: float) -> int:
    ev = np.linalg.eigvalsh(gram)
    return int(np.count_nonzero(ev > tol * ev[-1]))


def traction_basis(
    aux_fields, mesh: SurfaceMesh, tractions=None, rank_tol: float = _RANK_TOL
) -> ThrustBasis:
    """Build the thrust basis from the six auxiliary fields.

    ``tractions`` may carry precomputed (6, N, 3) node tractions (e.g. from a
    cached solver); otherwise they are evaluated here.  Raises
    :class:`BasisRankError` if either Gram matrix is numerically rank
    deficient, which signals a broken discretization.
    """
    aux_fields = tuple(aux_fields)
    if len(aux_fields) != 6:
        raise ValueError(f"need exactly 6 auxiliary fields, got {len(aux_fields)}")
    if tractions is None:
        tractions = np.array([evaluate_traction(f, mesh) for f in aux_fields])
    else:
        tractions = np.asarray(tractions, dtype=float)
        if tractions.shape != (6, mesh.n_nodes, 3):
            raise ValueError("precomputed tractions must be (6, N, 3)")
    tang = np.array([tangential_part(t, mesh.normals) for t in tractions])
    w = mesh.weights
    gram = np.einsum("n,inj,knj->ik", w, tractions, tractions)
    gram_t = np.einsum("n,inj,knj->ik", w, tang, tang)
    for name, g in (("traction", gram), ("tangential traction", gram_t)):
        r = _gram_rank(g, rank_tol)
        if r < 6:
            raise BasisRankError(
                f"{name} Gram matrix has numerical rank {r} < 6; "
                "the discretization cannot resolve all six rigid modes"
            )
    return ThrustBasis(tractions, tang, aux_fields, gram, gram_t)


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


@dataclass(frozen=True)
class Wrench:
    """Generalized force 6-vector driving the rigid motion."""

    W: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "W", np.asarray(self.W, dtype=float).reshape(6))

    @property
    def force_part(self) -> np.ndarray:
        return self.W[:3]

    @property
    def torque_part(self) -> np.ndarray:
        return self.W[3:]


def compute_wrench(v_star: BoundaryData, basis: ThrustBasis, mesh: SurfaceMesh) -> Wrench:
    """W_i = -sum_n w_n v_star(x_n) . g_i(x_n)."""
    v = data_vector(v_star, mesh)
    w = -np.einsum("n,nj,inj->i", mesh.weights, v, basis.tractions)
    return Wrench(w)


def swim_velocity(gm: GrandMatrix, wrench: Wrench):
    """Rigid-body velocity (xi, omega) generated by the wrench.

    Solves M (xi, omega) = W and cross-checks that the solution reproduces
    the wrench to near rounding.
    """
    sol = np.linalg.solve(gm.M, wrench.W)
    defect = np.max(np.abs(gm.M @ sol - wrench.W))
    if defect > 1e-10 * max(1.0, float(np.max(np.abs(wrench.W)))):
        raise SolverError(
            f"grand-matrix solve failed to reproduce the wrench (defect {defect:.3e})"
        )
    return sol[:3], sol[3:]


def thrust_projection(
    v_star: BoundaryData, basis: ThrustBasis, mesh: SurfaceMesh, tol: float = 1e-8
):
    """L2(surface) projection of the boundary data onto span{g_1..g_6}.

    Returns (coefficients, residual_norm, is_nonzero) where is_nonzero
    states whether the projection exceeds ``tol`` relative to the data
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
    is_nonzero = bool(np.sqrt(max(proj_sq, 0.0)) > tol * v_norm) if v_norm > 0 else False
    return coeff, residual, is_nonzero
