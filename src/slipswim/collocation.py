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
minimized quantity is a surface L2 residual, and divides the tangential
rows by max(1/L, alpha), with L = sqrt(area / 4 pi) the body's length.  A
tangential row is a traction, of order velocity / L, plus alpha times a
velocity, so after the division both row families are on the velocity
scale at every body size and slip length.  Truncated SVD regularizes the
exponentially ill-conditioned collocation matrix; the a-posteriori
residuals in :class:`SolveReport` are the honest accuracy measure and are
recomputed from the boundary conditions, not taken from the least-squares
objective.

There is one factorization, and how the inputs were built sets its ring
count P.  ``make_parametric_surface`` records the P phi samples of a
sphere or spheroid mesh as its ``rings``, and ``place_sources`` passes
them on to a set of one source per node.  Such a body is symmetric under
rotation by 2 pi / P about z; with each source's strength in its ring's
rotated frame the matrix is block-circulant over the P phi rings, and an
FFT over the ring index (the matrix-decomposition MFS of Karageorghis &
Smyrlis, J. Comput. Appl. Math. 206, 2007) leaves P // 2 + 1 blocks of
size 3N/P x 3K/P.  Two reflections split them further (Bossavit, Comput.
Methods Appl. Mech. Engrg. 56, 1986; Allgower, Georg & Miranda, SIAM J.
Numer. Anal. 29, 1992): phi -> -phi makes every block real after a phase
i on the t2 rows and the y-strength columns, and z -> -z splits every
block into an even and an odd half of about half the size, by an
orthogonal butterfly over the mirrored Gauss-Legendre rings, held as one
small real matrix per side.  Each half takes one real SVD.  Every other
input (triangle meshes, strided or hand-built sources, mesh copies made
by ``dataclasses.replace``, a mesh and sources whose rings differ) has
P = 1: no FFT, no phase and no butterfly, so the same code takes one SVD
of the full 3N x 3K matrix.  Every block truncates against the global
largest singular value, so the rank, the condition estimate and the
solution do not depend on P beyond rounding.

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
    _length_scale,
    _per_mesh,
    _z_rotations,
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
    off_axis = s > 1e-14 * rho
    safe = np.where(off_axis, s, 1.0)
    cos_p = np.where(off_axis, x[:, 0] / safe, 1.0)
    sin_p = np.where(off_axis, x[:, 1] / safe, 0.0)
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


def _slip_weight(mesh: SurfaceMesh, alpha: float) -> float:
    """The divisor of the tangential rows, max(1/L, alpha) (see the module docstring)."""
    return max(1.0 / _length_scale(mesh), alpha)


def _row_scale(weights: np.ndarray, slip_weight: float) -> np.ndarray:
    sw = np.sqrt(weights)
    scale = np.empty(3 * len(weights))
    scale[0::3] = sw
    scale[1::3] = sw / slip_weight
    scale[2::3] = sw / slip_weight
    return scale


def _residual_norms(residual, weights):
    rn = residual[0::3]
    rt = residual[1::3] ** 2 + residual[2::3] ** 2
    return (
        float(np.sqrt(np.sum(weights * rn**2))),
        float(np.sqrt(np.sum(weights * rt))),
    )


# Component signs under the reflections y -> -y (phi -> -phi) and z -> -z:
# (phi signs, z signs) of vectors in x, y, z and of the node frame (n, t1, t2).
_XYZ = (np.array([1.0, -1.0, 1.0]), np.array([1.0, 1.0, -1.0]))
_FRAME = (np.array([1.0, 1.0, -1.0]), np.array([1.0, -1.0, 1.0]))


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


def _mode_multiplicity(p) -> np.ndarray:
    """How often each stored DFT mode m = 0..P//2 occurs among all P modes.

    Modes 0 < m < P/2 stand for themselves and their conjugates P - m.
    """
    m = np.arange(p // 2 + 1)
    return np.where((m == 0) | (2 * m == p), 1, 2)


def _irfft(y, p):
    return y if p == 1 else np.fft.irfft(y, n=p, axis=0)


class _RingSide:
    """One side of the ring route's DFT blocks: the node rows or the source columns.

    A ring-0 vector holds ``t`` entries of three components, signed under
    the two reflections by ``kind`` = (phi signs, z signs).  On one ring
    (``rings`` False, P = 1) ``q`` is None, every map here is the identity
    and there is one half.  Otherwise the blocks B_m become real and split
    in two, by the reflections that every mesh with rings has:

    * The phi reflection maps ring q onto ring P - q and flips the
      components with phi sign -1, so B_m equals its conjugate up to those
      signs.  The phase D = i on the flipped components of both sides makes
      D_r B_m D_c real.
    * The mirror z -> -z maps entry j onto entry t - 1 - j and multiplies
      component c by its z sign s_c.  The orthogonal butterfly
      Q^T: (v_j + s_c v_(t-1-j)) / sqrt 2 to the even half and
      (v_j - s_c v_(t-1-j)) / sqrt 2 to the odd half decouples the blocks;
      with odd t the equator entry goes whole to the half of its sign.

    ``q`` holds Q^T as one real (2, h, 3t) array, the halves zero-padded
    to one length h; it is 3t wide, the size of one ring, so it stays
    small.  Q is its transpose.
    """

    def __init__(self, t, kind, rings):
        phi_signs, z_signs = kind
        n = 3 * t
        if not rings:
            self.sizes, self.q = (n,), None
            return
        self.phase = np.tile(np.where(phi_signs < 0, 1j, 1.0), t)
        k, root = t // 2, math.sqrt(0.5)
        idx = np.arange(n).reshape(t, 3)
        lo, hi, pos = idx[:k].ravel(), idx[::-1][:k].ravel(), np.arange(3 * k)
        signed = np.tile(z_signs, k) * root
        equator = [idx[k][z_signs > 0], idx[k][z_signs < 0]] if t % 2 else [idx[:0, 0]] * 2
        self.sizes = tuple(3 * k + len(m) for m in equator)
        self.q = np.zeros((2, max(self.sizes), n))
        for half, (m, sign) in enumerate(zip(equator, (1.0, -1.0))):
            self.q[half, pos, lo] = root
            self.q[half, pos, hi] = sign * signed
            self.q[half, 3 * k + np.arange(len(m)), m] = 1.0
        # a half entry mixes one component of two mirrored entries, so it has their phase
        self.half_phase = self.phase[np.abs(self.q).argmax(axis=2)]

    def halves(self, v, conj=False):
        """Q^T D v, or Q^T conj(D) v, for ring-0 vectors (..., n): (..., H, h)."""
        if self.q is None:
            return v[..., None, :]
        q = self.q.reshape(-1, self.q.shape[2])
        v = v * (self.phase.conj() if conj else self.phase)
        return _real_matmul(q, v).reshape(v.shape[:-1] + self.q.shape[:2])

    def join(self, w, conj=False):
        """D Q w, or conj(D) Q w, for halves (..., H, h): (..., n)."""
        if self.q is None:
            return w[..., 0, :]
        q = self.q.reshape(-1, self.q.shape[2])
        v = _real_matmul(q.T, w.reshape(w.shape[:-2] + (-1,)))
        return v * (self.phase.conj() if conj else self.phase)


def _mode_blocks(mat, rot, rows, cols) -> np.ndarray:
    """Ring-0 rows (3T, 3K) of a block-circulant operator to its real DFT half blocks.

    The three columns of each source in ring q are rotated into that ring's
    frame (times R_q), which makes block (p, q) of the full operator depend
    on q - p only.  Block m is then B_m = sum_d C_d exp(2 pi i m d / P);
    blocks P - m are the conjugates and are not stored.  Returns the real
    (P//2+1, H, h_r, h_c) halves of D_r Q_r^T B_m Q_c D_c (see
    :class:`_RingSide`); the imaginary part left over is rounding.  The
    butterflies are two products with the small ``q`` matrices: Q_r^T on
    the ring-0 rows, then, after the rotation, Q_c on the columns of both
    halves at once.  One ring returns the matrix itself as a (1, 1, 3N, 3K)
    view.
    """
    p = len(rot)
    if p == 1:
        return mat[None, None]
    c = rows.q @ mat
    halves = c.shape[:2]
    c = c.reshape(halves[0] * halves[1], -1, p, 3).transpose(2, 0, 1, 3) @ rot[:, None]
    c = c.reshape((p,) + halves + (-1,)) @ cols.q.swapaxes(1, 2)
    f = np.fft.rfft(c, axis=0)
    phase = rows.half_phase[:, :, None] * cols.half_phase[:, None, :]
    # Re(conj(f) phase), without complex temporaries
    return f.real * phase.real + f.imag * phase.imag


def _stack(mats, lead, shape):
    """2-D matrices into a zero-padded (*lead, *shape) stack.

    One matrix stays a view, so the dense path holds no second copy.
    """
    if len(mats) == 1:
        return mats[0][None, None]
    out = np.zeros((len(mats),) + shape)
    for o, m in zip(out, mats):
        o[: m.shape[0], : m.shape[1]] = m
    return out.reshape(lead + shape)


def _real_matmul(mat, x):
    """Stacked real matrices times stacked real or complex vectors.

    A complex vector goes through as two real columns (a float view), so
    the real matrices are never upcast.
    """
    if np.iscomplexobj(x):
        y = mat @ x.view(float).reshape(x.shape + (2,))
        return y.view(complex)[..., 0]
    return (mat @ x[..., None])[..., 0]


class SlipSolver:
    """Factorized collocation operator for one (mesh, sources, alpha) triple.

    The truncated SVD of the row-weighted matrix is computed once and
    reused for any number of right-hand sides, which is what makes the six
    auxiliary solves plus the lifting solve cheap.

    A sphere or spheroid mesh from ``make_parametric_surface`` records its
    P phi samples as ``rings``, and ``place_sources`` with one source per
    node records the same.  Such a body is symmetric under rotation by
    2 pi / P about z and under the reflections phi -> -phi and z -> -z.
    With each source's strength written in its ring's rotated frame the
    operator is block-circulant over the P phi rings, so only the 3T rows
    of ring 0 (T = N / P) are assembled and an FFT over the ring index
    splits it into P // 2 + 1 independent blocks of size 3T x 3K/P (modes
    m and P - m are conjugate).  The phi reflection makes each block real
    after phases i on the t2 rows and the y-strength columns, and the z
    mirror splits it into an even and an odd half (:class:`_RingSide`).
    Each half gets its own real SVD, and all are truncated against the
    global largest singular value.

    Every other input (triangle meshes, strided or hand-built sources,
    mesh copies made by ``dataclasses.replace``, a mesh and sources whose
    rings differ) runs the same code with P = 1: one block, the full
    3N x 3K matrix, and one SVD.  The ring count follows from the
    ``rings`` the two builders recorded; a mismatch costs time, never
    accuracy.  The real half blocks of the row-weighted and of the node
    traction matrices are kept for the a-posteriori residuals and for
    traction extraction.
    """

    def __init__(self, mesh, sources, alpha, svd_tol=DEFAULT_SVD_TOL):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not 0.0 < svd_tol < 1.0:
            raise ValueError(f"svd_tol must lie in (0, 1), got {svd_tol}")
        self.mesh = mesh
        self.sources = sources
        self.alpha = float(alpha)
        p = mesh.rings if sources.rings == mesh.rings else 1
        self._rot = _z_rotations(p)
        t = mesh.n_nodes // p
        self._rows = _RingSide(t, _FRAME, p > 1)
        self._trows = _RingSide(t, _XYZ, p > 1)
        self._cols = _RingSide(sources.count // p, _XYZ, p > 1)
        ring0 = slice(None, None, p)
        nodes, normals = mesh.nodes[ring0], mesh.normals[ring0]
        tmat = traction_matrix(nodes, normals, sources)
        self._tmat = _mode_blocks(tmat, self._rot, self._trows, self._cols)
        a = _build_matrix(
            normals, mesh.tangent1[ring0], mesh.tangent2[ring0],
            velocity_matrix(nodes, sources), tmat, alpha,
        )
        del tmat
        self._scale = _row_scale(mesh.weights[ring0], _slip_weight(mesh, alpha))
        a *= self._scale[:, None]
        self._a = _mode_blocks(a, self._rot, self._rows, self._cols)
        sizes = list(zip(self._rows.sizes, self._cols.sizes))
        try:
            # one 2-D call per half: the perfbench SVD counter reads (m, n) from its shape
            factors = [
                np.linalg.svd(mode[k, :m, :n], full_matrices=False)
                for mode in self._a for k, (m, n) in enumerate(sizes)
            ]
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"SVD of the collocation matrix failed: {exc}") from exc
        s_max = max(s[0] for _, s, _ in factors)
        if s_max == 0.0:
            raise SolverError("collocation matrix is identically zero")
        kept = np.array([np.count_nonzero(s >= svd_tol * s_max) for _, s, _ in factors])
        rank = int(np.repeat(_mode_multiplicity(p), len(sizes)) @ kept)
        if rank == 0:
            raise SolverError("truncated SVD kept no singular values")
        r = int(kept.max())
        lead = self._a.shape[:2]
        self._uh = _stack([u[:, :r].T for u, _, _ in factors], lead, (r, self._a.shape[2]))
        self._v = _stack([vh[:r].T for _, _, vh in factors], lead, (self._a.shape[3], r))
        inv_s = np.zeros((len(factors), r))
        for row, (_, s, _), k in zip(inv_s, factors, kept):
            row[:k] = 1.0 / s[:k]
        self._inv_s = inv_s.reshape(lead + (r,))
        self.svd_rank = rank
        s_min = min(s[k - 1] for (_, s, _), k in zip(factors, kept) if k)
        self.condition_estimate = float(s_max / s_min)

    def _apply(self, blocks, rows, xi):
        """Block-circulant product of the half ``blocks`` with ring-major ``xi`` (P, 3K/P)."""
        p = len(self._rot)
        x = self._cols.halves(_rfft(xi, p), conj=True)
        return _irfft(rows.join(_real_matmul(blocks, x), conj=True), p)

    def node_traction(self, field: FlowField) -> np.ndarray:
        """Traction T n of ``field`` at the mesh nodes via the cached matrix."""
        xi = _to_rings(field.strengths, self._rot)
        t = _from_rings(self._apply(self._tmat, self._trows, xi), self._rot)
        if field.source_flux != 0.0:
            t = t + field.source_flux * _sink_traction(self.mesh, field.source_point)
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
        coef = _real_matmul(self._uh, self._rows.halves(_rfft(b, p))) * self._inv_s
        xi = _irfft(self._cols.join(_real_matmul(self._v, coef)), p)
        y = self._apply(self._a, self._rows, xi) / self._scale
        residual = y.reshape(p, -1, 3).swapaxes(0, 1).reshape(-1) - rhs
        res_n, res_t = _residual_norms(residual, self.mesh.weights)
        field = FlowField(self.sources, _from_rings(xi, self._rot))
        return field, SolveReport(res_n, res_t, self.svd_rank, self.condition_estimate)


def _sink_traction(mesh: SurfaceMesh, x0) -> np.ndarray:
    """Traction of the unit-flux sink at ``x0`` on the mesh nodes, held per mesh."""
    return _per_mesh(
        mesh, "sink_traction", lambda: point_source_traction(x0, mesh.nodes, mesh.normals), x0
    )


def normalized_carrier(mesh: SurfaceMesh, x0):
    """Flux-carrier trace at the nodes, normalized to unit discrete flux.

    Returns (sigma_hat, strength) where sigma_hat = strength * sink_kernel
    evaluated at the nodes and sum_k w_k sigma_hat_k . n_k = 1 exactly on
    this mesh.  ``strength`` is the coefficient of the raw unit-flux sink.
    The pair is computed once per mesh and point; sigma_hat is read-only.
    """
    x0 = np.asarray(x0, dtype=float).reshape(3)
    return _per_mesh(mesh, "carrier", lambda: _build_carrier(mesh, x0), x0)


def _build_carrier(mesh: SurfaceMesh, x0):
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
    sink_traction = c_src * _sink_traction(mesh, x0)
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
