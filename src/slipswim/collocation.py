"""Slip boundary collocation for exterior Stokes fields.

Each surface node contributes three equations for the unknown Stokeslet
strengths.  With n the node normal (pointing into the body), (t1, t2) the
tangent pair and d the prescribed boundary velocity,

    row 1:      v . n = d . n
    rows 2-3:   (T(v) n) . t_a  +  alpha (v . t_a) = alpha (d . t_a)

The tangential rows use the full traction T n; its pressure part is normal,
so this equals the viscous slip term 2 (D(v) n) . t_a exactly.  Large alpha
drives the solution to the no-slip limit.

The least-squares solve weights every row by sqrt(node weight) so the
minimized quantity is a surface L2 residual, and divides tangential rows by
max(1, alpha) so neither row family dominates as alpha grows.  Truncated
SVD regularizes the exponentially ill-conditioned collocation matrix; the
a-posteriori residuals in :class:`SolveReport` are the honest accuracy
measure and are recomputed from the boundary conditions, not taken from
the least-squares objective.

Boundary data with nonzero net flux cannot be matched by Stokeslets alone
(their velocities are divergence-free with zero flux).  ``solve_lifting``
splits such data: a potential point sink at an interior point carries the
whole flux, normalized so its *discrete* flux through the mesh is exact,
and the Stokeslets fit the zero-flux remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PlacementError, SolverError
from .geometry import (
    SurfaceMesh,
    elementary_rigid_motion,
    surface_integral,
    tangential_part,
)
from .stokeslets import (
    FlowField,
    point_source_traction,
    point_source_velocity,
    traction_matrix,
    velocity_matrix,
)

__all__ = [
    "BoundaryData",
    "SolveReport",
    "SlipSolver",
    "solve_lifting",
    "rigid_trace_data",
    "squirmer_data",
    "uniform_flux_data",
    "boundary_data_from_field",
    "data_vector",
    "normalized_carrier",
]

DEFAULT_SVD_TOL = 1e-12
_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class BoundaryData:
    """Prescribed boundary velocity split into normal and tangential parts.

    ``normal_data`` holds the scalars v.n; ``tangential_data`` the tangential
    vectors stored with (numerically) zero normal component.  The split is
    against the normals of the mesh the data was built on; ``SlipSolver``
    re-checks orthogonality against its mesh.  Non-finite values are
    rejected.
    """

    normal_data: np.ndarray
    tangential_data: np.ndarray

    def __post_init__(self):
        dn = np.asarray(self.normal_data, dtype=float)
        dt = np.asarray(self.tangential_data, dtype=float)
        if dn.ndim != 1 or dt.shape != (len(dn), 3):
            raise ValueError("normal_data must be (N,) and tangential_data (N, 3)")
        if not (np.all(np.isfinite(dn)) and np.all(np.isfinite(dt))):
            raise ValueError("boundary data must be finite")
        object.__setattr__(self, "normal_data", dn)
        object.__setattr__(self, "tangential_data", dt)
        dn.setflags(write=False)
        dt.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return len(self.normal_data)


def data_vector(data: BoundaryData, mesh: SurfaceMesh) -> np.ndarray:
    """Reassemble the full per-node velocity vectors (v.n) n + v_tau."""
    _check_match(data, mesh)
    return data.normal_data[:, None] * mesh.normals + data.tangential_data


def boundary_data_from_field(mesh: SurfaceMesh, values) -> BoundaryData:
    """Split per-node velocity vectors into normal/tangential boundary data."""
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_nodes, 3):
        raise ValueError("values must be (N, 3) on the given mesh")
    vn = np.einsum("ij,ij->i", values, mesh.normals)
    return BoundaryData(vn, values - vn[:, None] * mesh.normals)


def rigid_trace_data(mesh: SurfaceMesh, i: int) -> BoundaryData:
    """Boundary trace of the i-th elementary rigid motion (i = 1..6)."""
    return boundary_data_from_field(mesh, elementary_rigid_motion(i, mesh.nodes))


def squirmer_data(mesh: SurfaceMesh, b1: float = 1.0) -> BoundaryData:
    """Tangential squirmer stroke B1 sin(theta) theta_hat about the z axis.

    theta is the polar angle from +z; theta_hat = (cos t cos p, cos t sin p,
    -sin t).  The data is purely tangential on a sphere centered at the
    origin.  With this stroke the classical no-slip swimmer translates
    toward +z at speed (2/3) B1.
    """
    x = mesh.nodes - mesh.centroid
    rho = np.linalg.norm(x, axis=1)
    s = np.linalg.norm(x[:, :2], axis=1)  # rho * sin(theta)
    cos_t = x[:, 2] / rho
    sin_t = s / rho
    # Guard the poles, where theta_hat is ill-defined and sin(theta) = 0 anyway.
    safe = np.where(s > 1e-14, s, 1.0)
    cos_p = np.where(s > 1e-14, x[:, 0] / safe, 1.0)
    sin_p = np.where(s > 1e-14, x[:, 1] / safe, 0.0)
    theta_hat = np.column_stack((cos_t * cos_p, cos_t * sin_p, -sin_t))
    vals = b1 * sin_t[:, None] * theta_hat
    return boundary_data_from_field(mesh, vals)


def uniform_flux_data(mesh: SurfaceMesh, phi: float) -> BoundaryData:
    """Purely normal data with uniform v.n = phi/area, so the total flux is phi."""
    vn = np.full(mesh.n_nodes, phi / mesh.area)
    return BoundaryData(vn, np.zeros((mesh.n_nodes, 3)))


@dataclass(frozen=True)
class SolveReport:
    """A-posteriori diagnostics of a collocation solve.

    ``residual_normal`` is the L2(surface) norm of v.n - d.n;
    ``residual_tangential`` that of the full slip rows
    (T n)_tau + alpha (v - d)_tau.  Dividing the latter by alpha gives the
    tangential velocity mismatch scale, which is the natural comparison
    against ``residual_normal`` in the no-slip regime.
    """

    residual_normal: float
    residual_tangential: float
    svd_rank: int
    condition_estimate: float


def _check_match(data, mesh):
    if data.n_nodes != mesh.n_nodes:
        raise ValueError(
            f"boundary data has {data.n_nodes} nodes, mesh has {mesh.n_nodes}"
        )


def _check_tangential(data: BoundaryData, mesh: SurfaceMesh):
    defect = np.max(
        np.abs(np.einsum("ij,ij->i", data.tangential_data, mesh.normals))
    )
    scale = max(1.0, float(np.max(np.abs(data.tangential_data), initial=0.0)))
    if defect > _ORTHO_TOL * scale:
        raise ValueError(
            f"tangential_data is not orthogonal to the mesh normals (defect {defect:.2e})"
        )


def _build_rhs(mesh: SurfaceMesh, alpha: float, data: BoundaryData) -> np.ndarray:
    rhs = np.empty(3 * mesh.n_nodes)
    rhs[0::3] = data.normal_data
    rhs[1::3] = alpha * np.einsum("ij,ij->i", mesh.tangent1, data.tangential_data)
    rhs[2::3] = alpha * np.einsum("ij,ij->i", mesh.tangent2, data.tangential_data)
    return rhs


def _build_matrix(mesh: SurfaceMesh, vmat: np.ndarray, tmat: np.ndarray, alpha: float):
    n, k3 = mesh.n_nodes, vmat.shape[1]
    vr = vmat.reshape(n, 3, k3)
    tr = tmat.reshape(n, 3, k3)
    a = np.empty((3 * n, k3))
    a[0::3] = np.einsum("ja,jaC->jC", mesh.normals, vr)
    a[1::3] = np.einsum("ja,jaC->jC", mesh.tangent1, tr)
    a[1::3] += alpha * np.einsum("ja,jaC->jC", mesh.tangent1, vr)
    a[2::3] = np.einsum("ja,jaC->jC", mesh.tangent2, tr)
    a[2::3] += alpha * np.einsum("ja,jaC->jC", mesh.tangent2, vr)
    return a


def _row_scale(weights: np.ndarray, alpha: float) -> np.ndarray:
    sw = np.sqrt(weights)
    scale = np.empty(3 * len(weights))
    scale[0::3] = sw
    scale[1::3] = sw / max(1.0, alpha)
    scale[2::3] = sw / max(1.0, alpha)
    return scale


def _residual_norms(residual, weights):
    rn = residual[0::3]
    rt = residual[1::3] ** 2 + residual[2::3] ** 2
    return (
        float(np.sqrt(np.sum(weights * rn**2))),
        float(np.sqrt(np.sum(weights * rt))),
    )


class SlipSolver:
    """Factorized collocation operator for one (mesh, sources, alpha) triple.

    The SVD of the row-weighted matrix is computed once and reused for any
    number of right-hand sides, which is what makes the six auxiliary solves
    plus the lifting solve cheap.  The row-weighted matrix is kept for the
    a-posteriori residuals and the node traction matrix for traction
    extraction.
    """

    def __init__(self, mesh, sources, alpha, svd_tol=DEFAULT_SVD_TOL):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not 0.0 < svd_tol < 1.0:
            raise ValueError(f"svd_tol must lie in (0, 1), got {svd_tol}")
        self.mesh = mesh
        self.sources = sources
        self.alpha = float(alpha)
        self.svd_tol = float(svd_tol)
        self._tmat = traction_matrix(mesh.nodes, mesh.normals, sources)
        a = _build_matrix(mesh, velocity_matrix(mesh.nodes, sources), self._tmat, alpha)
        self._scale = _row_scale(mesh.weights, alpha)
        a *= self._scale[:, None]
        self._a = a
        try:
            u, s, vt = np.linalg.svd(a, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"SVD of the collocation matrix failed: {exc}") from exc
        if s[0] == 0.0:
            raise SolverError("collocation matrix is identically zero")
        rank = int(np.count_nonzero(s >= svd_tol * s[0]))
        if rank == 0:
            raise SolverError("truncated SVD kept no singular values")
        self._u = u[:, :rank]
        self._s = s[:rank]
        self._vt = vt[:rank]
        self.svd_rank = rank
        self.condition_estimate = float(s[0] / s[rank - 1])

    def node_traction(self, field: FlowField) -> np.ndarray:
        """Traction T n of ``field`` at the mesh nodes via the cached matrix."""
        t = (self._tmat @ field.strengths.ravel()).reshape(-1, 3)
        if field.source_flux != 0.0:
            t = t + field.source_flux * point_source_traction(
                field.source_point, self.mesh.nodes, self.mesh.normals
            )
        return t

    def solve_data(self, data: BoundaryData):
        """Solve for the given boundary data; returns (FlowField, SolveReport).

        The residuals re-apply the unscaled boundary rows to the solution.
        """
        _check_match(data, self.mesh)
        _check_tangential(data, self.mesh)
        rhs = _build_rhs(self.mesh, self.alpha, data)
        x = self._vt.T @ ((self._u.T @ (rhs * self._scale)) / self._s)
        res_n, res_t = _residual_norms((self._a @ x) / self._scale - rhs, self.mesh.weights)
        field = FlowField(self.sources, x.reshape(-1, 3))
        return field, SolveReport(res_n, res_t, self.svd_rank, self.condition_estimate)


def _inside_body(mesh: SurfaceMesh, x0) -> bool:
    x0 = np.asarray(x0, dtype=float).reshape(3)
    j = int(np.argmin(np.linalg.norm(mesh.nodes - x0[None, :], axis=1)))
    return float((x0 - mesh.nodes[j]) @ mesh.normals[j]) > 0.0


def normalized_carrier(mesh: SurfaceMesh, x0):
    """Flux-carrier trace at the nodes, normalized to unit discrete flux.

    Returns (sigma_hat, strength) where sigma_hat = strength * sink_kernel
    evaluated at the nodes and sum_k w_k sigma_hat_k . n_k = 1 exactly on
    this mesh.  ``strength`` is the coefficient of the raw unit-flux sink.
    """
    x0 = np.asarray(x0, dtype=float).reshape(3)
    if not _inside_body(mesh, x0):
        raise PlacementError("carrier point must lie strictly inside the body")
    raw = point_source_velocity(x0, mesh.nodes)
    s_disc = float(
        surface_integral(mesh, np.einsum("ij,ij->i", raw, mesh.normals))
    )
    # The continuum flux is +1 with the into-body normal convention, so
    # s_disc ~ 1; a sign flip or a tiny value means x0 left the body.
    if abs(s_disc) < 0.5:
        raise PlacementError(
            f"discrete carrier flux {s_disc:.3g} is far from 1; bad carrier point"
        )
    return raw / s_disc, 1.0 / s_disc


def solve_lifting(v_star: BoundaryData, solver: SlipSolver, x0=None):
    """Lift arbitrary boundary data to an exterior Stokes field.

    If the data carries net flux phi, a point sink at ``x0`` (default: the
    centroid) absorbs it: the sink's discrete flux is normalized to phi
    exactly and its boundary trace (velocity and slip-row traction) is
    subtracted from the data before the Stokeslet fit on ``solver``'s mesh.
    By linearity the reported residuals are those of the complete composite
    field against the original data.  Returns (FlowField, SolveReport).
    """
    mesh, alpha = solver.mesh, solver.alpha
    _check_match(v_star, mesh)
    phi = surface_integral(mesh, v_star.normal_data)
    flux_floor = 1e-12 * mesh.area * max(1.0, float(np.max(np.abs(v_star.normal_data), initial=0.0)))
    if abs(phi) <= flux_floor:
        return solver.solve_data(v_star)

    x0 = mesh.centroid if x0 is None else np.asarray(x0, dtype=float).reshape(3)
    sigma_hat, unit_strength = normalized_carrier(mesh, x0)
    c_src = phi * unit_strength
    sink_traction = c_src * point_source_traction(x0, mesh.nodes, mesh.normals)
    carrier = phi * sigma_hat

    dn = v_star.normal_data - np.einsum("ij,ij->i", carrier, mesh.normals)
    dt = (
        v_star.tangential_data
        - tangential_part(carrier, mesh.normals)
        - tangential_part(sink_traction, mesh.normals) / alpha
    )
    reduced = BoundaryData(dn, dt)
    stokeslet_field, report = solver.solve_data(reduced)
    field = FlowField(
        solver.sources, stokeslet_field.strengths, source_flux=c_src, source_point=x0
    )
    return field, report
