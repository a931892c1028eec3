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

The factorization takes one of two routes, chosen from the inputs alone.
Sphere and spheroid meshes with one source per node are symmetric under
rotation by 2 pi / P about z (P phi samples); with each source's
strength in its ring's rotated frame the matrix is block-circulant over
the P phi rings, and an FFT over the ring index (the matrix-decomposition
MFS of Karageorghis & Smyrlis, J. Comput. Appl. Math. 206, 2007) leaves
P // 2 + 1 blocks of size 3N/P x 3K/P with one SVD each.  Every other
input (triangle meshes, strided or hand-built sources) takes the dense
route: one SVD of the full 3N x 3K matrix.  Both truncate against the
global largest singular value, so the rank, the condition estimate and
the solution agree up to rounding.

Boundary data with nonzero net flux cannot be matched by Stokeslets alone
(their velocities are divergence-free with zero flux).  ``solve_lifting``
splits such data: a potential point sink at an interior point carries the
whole flux, normalized so its *discrete* flux through the mesh is exact,
and the Stokeslets fit the zero-flux remainder.
"""

from __future__ import annotations

import math
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
    _inside_body,
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
# Relative defect up to which a mesh and its sources count as rotation-symmetric.
_RING_TOL = 1e-12


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


def _build_matrix(normals, tangent1, tangent2, vmat, tmat, alpha):
    n, k3 = len(normals), vmat.shape[1]
    vr = vmat.reshape(n, 3, k3)
    tr = tmat.reshape(n, 3, k3)
    a = np.empty((3 * n, k3))
    a[0::3] = np.einsum("ja,jaC->jC", normals, vr)
    a[1::3] = np.einsum("ja,jaC->jC", tangent1, tr)
    a[1::3] += alpha * np.einsum("ja,jaC->jC", tangent1, vr)
    a[2::3] = np.einsum("ja,jaC->jC", tangent2, tr)
    a[2::3] += alpha * np.einsum("ja,jaC->jC", tangent2, vr)
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


def _z_rotations(p: int) -> np.ndarray:
    """(P, 3, 3) rotations about z by 2 pi q / P, q = 0..P-1."""
    c, s = np.cos(2.0 * np.pi * np.arange(p) / p), np.sin(2.0 * np.pi * np.arange(p) / p)
    rot = np.zeros((p, 3, 3))
    rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 0], rot[:, 1, 1] = c, -s, s, c
    rot[:, 2, 2] = 1.0
    return rot


def _ring_count(mesh: SurfaceMesh, sources) -> int:
    """Number P of rings over which the collocation operator is block-circulant.

    Ring q holds every P-th node (and source) starting at q: one phi sample
    of a parametric mesh.  The operator is block-circulant when every ring
    is ring 0 rotated about z by 2 pi q / P, for the nodes, their frames
    and the sources, and the weights repeat from ring to ring; this holds
    for sphere and spheroid meshes with one source per node.  Returns 1
    (one ring: the dense operator) otherwise.
    """
    n, k = mesh.n_nodes, sources.count
    p = math.isqrt(n)
    if mesh.shape_info is None or p < 2 or p * p != n or k % p:
        return 1
    rot = _z_rotations(p)

    def repeats(values, ring0):
        defect = np.max(np.abs(values - ring0))
        return bool(defect <= _RING_TOL * np.max(np.abs(values)))

    for v in (mesh.nodes, mesh.normals, mesh.tangent1, mesh.tangent2, sources.locations):
        rings = v.reshape(-1, p, 3)
        if not repeats(rings, np.einsum("qab,tb->tqa", rot, rings[:, 0])):
            return 1
    w = mesh.weights.reshape(-1, p)
    return p if repeats(w, w[:, :1]) else 1


def _to_rings(v, rot) -> np.ndarray:
    """(n, 3) vectors in node or source order to (P, 3n/P) ring-0 frame components.

    Ring q is rotated back by R_q^T, so its components are those of the
    matching ring-0 entries.  With one ring this is a plain reshape.
    """
    p = len(rot)
    return (np.reshape(v, (-1, p, 3)).swapaxes(0, 1) @ rot).reshape(p, -1)


def _from_rings(y, rot) -> np.ndarray:
    """Inverse of :func:`_to_rings`: (P, 3n/P) components to (n, 3) vectors."""
    p = len(rot)
    return (y.reshape(p, -1, 3) @ rot.swapaxes(1, 2)).swapaxes(0, 1).reshape(-1, 3)


def _rfft(y, p):
    """DFT over the leading ring axis; the identity for one ring."""
    return y if p == 1 else np.fft.rfft(y, axis=0)


def _irfft(y, p):
    return y if p == 1 else np.fft.irfft(y, n=p, axis=0)


def _mode_blocks(mat, rot) -> np.ndarray:
    """Ring-0 rows (3T, 3K) of a block-circulant operator to its (P//2+1) DFT blocks.

    The three columns of each source in ring q are rotated into that ring's
    frame (times R_q), which makes block (p, q) of the full operator depend
    on q - p only.  Block m is then sum_d C_d exp(2 pi i m d / P); blocks
    P - m are the conjugates and are not stored.  One ring returns the
    matrix itself, real.
    """
    p, rows = len(rot), len(mat)
    if p == 1:
        return mat[None]
    blocks = mat.reshape(rows, -1, p, 3).transpose(2, 0, 1, 3) @ rot[:, None]
    return np.fft.rfft(blocks.reshape(p, rows, -1), axis=0).conj()


def _stack(blocks):
    # one block stays a view, so the dense path holds no second copy
    return blocks[0][None] if len(blocks) == 1 else np.stack(blocks)


def _adjoint(x):
    xt = np.swapaxes(x, -1, -2)
    return xt.conj() if np.iscomplexobj(xt) else xt


class SlipSolver:
    """Factorized collocation operator for one (mesh, sources, alpha) triple.

    The truncated SVD of the row-weighted matrix is computed once and
    reused for any number of right-hand sides, which is what makes the six
    auxiliary solves plus the lifting solve cheap.  There are two routes to
    it, and both give the same rank, condition estimate and solution up to
    rounding:

    * **Ring (Fourier) route.**  Sphere and spheroid meshes with one source
      per node are symmetric under rotation by 2 pi / P about z, with P the
      number of phi samples.  With each source's strength written in its
      ring's rotated frame the operator is block-circulant over the P phi
      rings, so only the 3T rows of ring 0 (T = N / P) are assembled and an
      FFT over the ring index splits it into P // 2 + 1 independent blocks
      of size 3T x 3K/P (modes m and P - m are conjugate).  Each block gets
      its own SVD, and all are truncated against the global largest
      singular value.
    * **Dense route.**  Everything else (triangle meshes, strided or
      hand-built sources, any mesh that fails the symmetry check to 1e-12)
      assembles the full 3N x 3K matrix and takes one SVD.  It is the ring
      route with a single ring.

    The route is chosen by :func:`_ring_count` from the inputs alone.  The
    DFT blocks of the row-weighted and of the node traction matrices are
    kept for the a-posteriori residuals and for traction extraction.
    """

    def __init__(self, mesh, sources, alpha, svd_tol=DEFAULT_SVD_TOL):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not 0.0 < svd_tol < 1.0:
            raise ValueError(f"svd_tol must lie in (0, 1), got {svd_tol}")
        self.mesh = mesh
        self.sources = sources
        self.alpha = float(alpha)
        p = _ring_count(mesh, sources)
        self._rot = _z_rotations(p)
        ring0 = slice(None, None, p)
        nodes, normals = mesh.nodes[ring0], mesh.normals[ring0]
        tmat = traction_matrix(nodes, normals, sources)
        self._tmat = _mode_blocks(tmat, self._rot)
        a = _build_matrix(
            normals, mesh.tangent1[ring0], mesh.tangent2[ring0],
            velocity_matrix(nodes, sources), tmat, alpha,
        )
        self._scale = _row_scale(mesh.weights[ring0], alpha)
        a *= self._scale[:, None]
        self._a = _mode_blocks(a, self._rot)
        try:
            # one 2-D call per block: the perfbench SVD counter reads (m, n) from its shape
            factors = [np.linalg.svd(block, full_matrices=False) for block in self._a]
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"SVD of the collocation matrix failed: {exc}") from exc
        s_max = max(s[0] for _, s, _ in factors)
        if s_max == 0.0:
            raise SolverError("collocation matrix is identically zero")
        kept = np.array([np.count_nonzero(s >= svd_tol * s_max) for _, s, _ in factors])
        m = np.arange(len(factors))
        rank = int(np.where((m == 0) | (2 * m == p), 1, 2) @ kept)
        if rank == 0:
            raise SolverError("truncated SVD kept no singular values")
        r = int(kept.max())
        self._uh = _adjoint(_stack([u[:, :r] for u, _, _ in factors]))
        self._v = _adjoint(_stack([vh[:r] for _, _, vh in factors]))
        self._inv_s = np.zeros((len(factors), r, 1))
        for i, ((_, s, _), k) in enumerate(zip(factors, kept)):
            self._inv_s[i, :k, 0] = 1.0 / s[:k]
        self.svd_rank = rank
        s_min = min(s[k - 1] for (_, s, _), k in zip(factors, kept) if k)
        self.condition_estimate = float(s_max / s_min)

    def _apply(self, blocks, xi):
        """Block-circulant product of DFT ``blocks`` with ring-major ``xi`` (P, 3K/P)."""
        p = len(self._rot)
        return _irfft(np.matmul(blocks, _rfft(xi, p)[..., None])[..., 0], p)

    def node_traction(self, field: FlowField) -> np.ndarray:
        """Traction T n of ``field`` at the mesh nodes via the cached matrix."""
        xi = _to_rings(field.strengths, self._rot)
        t = _from_rings(self._apply(self._tmat, xi), self._rot)
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
        return self._solve(data)

    def _solve(self, data: BoundaryData):
        p = len(self._rot)
        rhs = _build_rhs(self.mesh, self.alpha, data)
        # the rows are scalars, so their ring-major order needs no rotation
        b = rhs.reshape(-1, p, 3).swapaxes(0, 1).reshape(p, -1) * self._scale
        coef = np.matmul(self._uh, _rfft(b, p)[..., None]) * self._inv_s
        xi = _irfft(np.matmul(self._v, coef)[..., 0], p)
        y = self._apply(self._a, xi) / self._scale
        residual = y.reshape(p, -1, 3).swapaxes(0, 1).reshape(-1) - rhs
        res_n, res_t = _residual_norms(residual, self.mesh.weights)
        field = FlowField(self.sources, _from_rings(xi, self._rot))
        return field, SolveReport(res_n, res_t, self.svd_rank, self.condition_estimate)


def normalized_carrier(mesh: SurfaceMesh, x0):
    """Flux-carrier trace at the nodes, normalized to unit discrete flux.

    Returns (sigma_hat, strength) where sigma_hat = strength * sink_kernel
    evaluated at the nodes and sum_k w_k sigma_hat_k . n_k = 1 exactly on
    this mesh.  ``strength`` is the coefficient of the raw unit-flux sink.
    """
    x0 = np.asarray(x0, dtype=float).reshape(3)
    inside, _ = _inside_body(mesh, x0[None])
    if not inside[0]:
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


def solve_lifting(v_star: BoundaryData, solver: SlipSolver):
    """Lift arbitrary boundary data to an exterior Stokes field.

    If the data carries net flux phi, a point sink at the mesh centroid
    absorbs it: the sink's discrete flux is normalized to phi exactly and
    its boundary trace (velocity and slip-row traction) is subtracted from
    the data before the Stokeslet fit on ``solver``'s mesh.
    By linearity the reported residuals are those of the complete composite
    field against the original data.  Returns (FlowField, SolveReport).
    """
    mesh, alpha = solver.mesh, solver.alpha
    _check_match(v_star, mesh)
    _check_tangential(v_star, mesh)
    phi = surface_integral(mesh, v_star.normal_data)
    flux_floor = 1e-12 * mesh.area * max(1.0, float(np.max(np.abs(v_star.normal_data), initial=0.0)))
    if abs(phi) <= flux_floor:
        return solver._solve(v_star)

    x0 = mesh.centroid
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
    # dt keeps a normal part of order eps * phi from the carrier, which a
    # check scaled by dt's own (possibly rounding-sized) values would reject;
    # v_star was checked above.
    stokeslet_field, report = solver._solve(BoundaryData(dn, dt))
    field = FlowField(
        solver.sources, stokeslet_field.strengths, source_flux=c_src, source_point=x0
    )
    return field, report
