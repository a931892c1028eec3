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
objective.  The oversampled fit (Barnett & Betcke 2008) reads its on-node
residual as its error, which means that only relative to the data: each
residual is divided by the same norm of the data's rows, so it is
dimensionless and the same at every body size.

There is one factorization, and how the inputs were built sets its ring
count P.  ``make_parametric_surface`` records the P phi samples of a
sphere or spheroid mesh as its ``rings``, T = N / P nodes each, and
``place_sources`` puts the sources on a grid with the same P phi samples
and n_t = round(2T/3) Gauss-Legendre rings, K / P = n_t sources per phi
ring, and records the P rings.  The system has more rows than columns,
so its residual is the fit's error.  Such a body is symmetric under
rotation by 2 pi / P about z; with each source's strength in its ring's
rotated frame the matrix is block-circulant over the P phi rings, and an
FFT over the ring index (the matrix-decomposition MFS of Karageorghis &
Smyrlis, J. Comput. Appl. Math. 206, 2007) leaves P // 2 + 1 blocks of
size 3T x 3n_t.  Two reflections split them further (Bossavit, Comput.
Methods Appl. Mech. Engrg. 56, 1986; Allgower, Georg & Miranda, SIAM J.
Numer. Anal. 29, 1992): phi -> -phi makes every block real after a phase
i on the t2 rows and the y-strength columns, and z -> -z splits every
block into an even and an odd half of about 3 ceil(T/2) x 3 ceil(n_t/2),
by an orthogonal butterfly over the mirrored Gauss-Legendre rings of each
side, held as one small real matrix per side.  Each half takes one real
SVD.  Only one block column is assembled, and of it only the rows on one
side of the z mirror: every node ring's first ceil(T/2) nodes against
the n_t ring-0 sources, ceil(T/2) n_t P kernel points where the full
matrix has N K.  The rest, and the rotation of each source ring into its
frame, follow from the symmetries.  Every other input (triangle meshes,
strided or hand-built sources, mesh copies made by
``dataclasses.replace``, a mesh and sources whose rings differ) has
P = 1: no FFT, no phase and no butterfly, so the same code assembles the
full 3N x 3K matrix, as the kernel writes it: row-major, its columns
component-major (all the x strengths, then the y and the z ones), taller
than wide (K < N), and factored by a blocked Householder QR in place, on
one copy of the matrix (:func:`_householder_qr`): Q is never formed.
Its reflectors come in panels of the compact WY form I - V T V^T
(Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10, 1989), T built
while each panel is factored, recursively (Elmroth & Gustavson, IBM J.
Res. Dev. 44, 2000), so the rest of the matrix is updated by wide
matrix products; the same blocks map a solve's rows to the 3K entries of
Q^T b.  Where R^-1, formed by a blocked back substitution rather than a
general inverse, proves that the truncated SVD would keep every singular
value, the SVD's answer is the plain least-squares solution R^-1 Q^T b
and the SVD is skipped; otherwise it takes one SVD, of R, and U_R^T maps
Q^T b on.  Every block truncates against the global largest singular
value, so the rank, the condition estimate and the solution do not depend
on P or on the factorization beyond rounding.

The modes are factored when they are needed.  A solve reads off its data
which DFT modes are live, above 1e-13 of a data set's largest mode
(``_live_modes``), and factors, solves and applies the modes up to the
highest live one only, dropping from each set the modes that hold only
its rounding (the truncated SVD would amplify them up to 1 / svd_tol).
So rigid-motion data a + b x x (wavenumbers 0 and +-1), behind the grand
matrix, takes modes 0 and 1, and axisymmetric data mode 0.  Construction
factors the modes in descending order of ||B||_F, a bound on their
spectral norm, until it falls below the largest singular value found so
far: no mode left can hold a larger one, so the global truncation
threshold is exact from the start.  The rest are factored, by the same
routine, by the first solve whose data holds them, or when the rank or
the condition estimate is read, into the mode's slots of three stacks
that every solve slices.  A slot never changes once written, so the
grand matrix does not depend on what ran before.  With P = 1 the one
block is factored at once.

The rows come from one Stokeslet row kernel run along each node's frame
(n, t1, t2): it gives the velocity and the traction rows in one pass, and
the slip rows above are combined from them in place.

Boundary data with nonzero net flux cannot be matched by Stokeslets alone
(their velocities are divergence-free with zero flux).  ``solve_lifting``
splits such data: a potential point sink at an interior point carries the
whole flux, normalized so its *discrete* flux through the mesh is exact,
and the Stokeslets fit the zero-flux remainder.
"""

from __future__ import annotations

import functools
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
# velocity_matrix and traction_matrix stay bound here for perfbench's assembly span
from .stokeslets import (  # noqa: F401
    FlowField,
    _frame_rows,
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
# A mode's norm bound counts as below the largest singular value only with
# this relative margin, for the rounding in both.
_BOUND_SLACK = 1e-12
# A DFT mode whose share of a data set is at most this is not live: it is the
# ring DFT's rounding (about 1e-16 on rigid traces and axisymmetric data).
_MODE_FLOOR = 1e-13
# The ring and dense routes agree to this, relative to the solution; a
# certified dense block refines a solve where R^-1 could lose more.
_ROUTE_TOL = 1e-9
_EPS = np.finfo(float).eps
# The dense route's block width: columns per panel, and so reflectors per
# compact WY block, of its QR (:func:`_householder_qr`), rows per block row
# of R^-1 (:func:`_triu_inv`) and the side of the squares in which the QR
# copies the block
_WY_WIDTH = 256
# The QR's leaves: LAPACK factors panels at most this wide
_QR_LEAF = 16
# The QR updates the columns right of a panel at most this many at a time
_QR_CHUNK = 1024


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
    """A-posteriori diagnostics of a collocation solve, relative to the data.

    ``residual_normal`` is the L2(surface) norm of v.n - d.n;
    ``residual_tangential`` that of the full slip rows
    (T n)_tau + alpha (v - d)_tau divided by max(1/L, alpha), the row scale
    of the fit, which puts them on the velocity scale.  Both are divided by
    the same norm of the data's rows, all three families on that scale, so
    they are dimensionless and do not change with the body's size; zero
    data reads zero.  The SVD rank and condition estimate describe the
    solver, not a solve: they are :class:`SlipSolver` properties.
    """

    residual_normal: float
    residual_tangential: float


def _check_match(data, mesh):
    if data.n_nodes != mesh.n_nodes:
        raise ValueError(
            f"boundary data has {data.n_nodes} nodes, mesh has {mesh.n_nodes}"
        )


def _check_tangential(data: BoundaryData, mesh: SurfaceMesh):
    defect = np.max(
        np.abs(np.einsum("ij,ij->i", data.tangential_data, mesh.normals))
    )
    # relative to the tangential part; the normal part adds only the rounding
    # that splitting a velocity into the two leaves in t . n
    allowed = _ORTHO_TOL * np.max(np.abs(data.tangential_data)) + 1e2 * _EPS * np.max(
        np.abs(data.normal_data)
    )
    if defect > allowed:
        raise ValueError(
            f"tangential_data is not orthogonal to the mesh normals (defect {defect:.2e})"
        )


def _build_rhs(mesh: SurfaceMesh, alpha: float, data: BoundaryData) -> np.ndarray:
    rhs = np.empty(3 * mesh.n_nodes)
    rhs[0::3] = data.normal_data
    rhs[1::3] = alpha * np.einsum("ij,ij->i", mesh.tangent1, data.tangential_data)
    rhs[2::3] = alpha * np.einsum("ij,ij->i", mesh.tangent2, data.tangential_data)
    return rhs


def _slip_weight(mesh: SurfaceMesh, alpha: float) -> float:
    """The divisor of the tangential rows, max(1/L, alpha) (see the module docstring)."""
    return max(1.0 / _length_scale(mesh), alpha)


def _reports(residual, data):
    """One SolveReport per set: the residual's row families relative to the data's.

    Both are C sets of rows scaled as the fit's, families along the last
    axis; each set is divided by its data's largest entry, so no sum overflows.
    """
    rows = np.stack((residual, data)).reshape(2, len(data), -1, 3)
    size = np.abs(rows[1]).max(axis=(1, 2))
    sq = (rows / np.where(size > 0.0, size, 1.0)[:, None, None]) ** 2
    norms = np.sqrt([sq[0, ..., 0].sum(1), sq[0, ..., 1:].sum((1, 2)), sq[1].sum((1, 2))])
    norms = np.divide(norms[:2], norms[2], out=np.zeros((2, len(data))), where=norms[2] > 0.0)
    return [SolveReport(float(n), float(t)) for n, t in norms.T]


# Component signs under the reflections y -> -y (phi -> -phi) and z -> -z:
# (phi signs, z signs) of vectors in x, y, z and of the node frame (n, t1, t2).
_XYZ = (np.array([1.0, -1.0, 1.0]), np.array([1.0, 1.0, -1.0]))
_FRAME = (np.array([1.0, 1.0, -1.0]), np.array([1.0, -1.0, 1.0]))


def _to_rings(v, rot) -> np.ndarray:
    """(C, n, 3) vectors in node or source order to (C, P, 3n/P) ring-0 frame components.

    Ring q is rotated back by R_q^T, so its components are those of the
    matching ring-0 entries.  With one ring this is a plain reshape.
    """
    c, p = len(v), len(rot)
    return (v.reshape(c, -1, p, 3).swapaxes(1, 2) @ rot).reshape(c, p, -1)


def _from_rings(y, rot) -> np.ndarray:
    """Inverse of :func:`_to_rings`: (C, P, 3n/P) components to (C, n, 3) vectors."""
    c, p = y.shape[:2]
    return (y.reshape(c, p, -1, 3) @ rot.swapaxes(1, 2)).swapaxes(1, 2).reshape(c, -1, 3)


def _rows_to_rings(rows, p) -> np.ndarray:
    """(C, 3N) rows in node order to ring-major (C, P, 3N/P); rows are scalars, so no rotation."""
    c = len(rows)
    return rows.reshape(c, -1, p, 3).swapaxes(1, 2).reshape(c, p, -1)


def _rfft(y, p, axis=0):
    """DFT over the ring axis; the identity for one ring."""
    return y if p == 1 else np.fft.rfft(y, axis=axis)


def _mode_multiplicity(p) -> np.ndarray:
    """How often each stored DFT mode m = 0..P//2 occurs among all P modes.

    Modes 0 < m < P/2 stand for themselves and their conjugates P - m.
    """
    m = np.arange(p // 2 + 1)
    return np.where((m == 0) | (2 * m == p), 1, 2)


def _irfft(y, p, axis=0):
    return y if p == 1 else np.fft.irfft(y, n=p, axis=axis)


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
    small.  Q is its transpose.  ``fold`` and ``fold_weight`` (2, h) say
    which of the first 3 ceil(t/2) entries each half entry comes from, and
    with what weight, when the mirrored entries are not stored (see
    :func:`_mode_blocks`); padding has weight 0.

    On one ring the block's rows lie node by node, but its columns
    (``columns``) lie component-major, as the kernel writes them: the one
    half of a vector of sources holds component c of source k at c t + k,
    so ``halves`` and ``join`` transpose between the two orders there.
    """

    def __init__(self, t, kind, rings, columns=False):
        phi_signs, z_signs = kind
        n = 3 * t
        if not rings:
            self.sizes, self.q, self.columns = (n,), None, columns
            return
        self.phase = np.tile(np.where(phi_signs < 0, 1j, 1.0), t)
        k, root = t // 2, math.sqrt(0.5)
        idx = np.arange(n).reshape(t, 3)
        lo, hi, pos = idx[:k].ravel(), idx[::-1][:k].ravel(), np.arange(3 * k)
        signed = np.tile(z_signs, k) * root
        equator = [idx[k][z_signs > 0], idx[k][z_signs < 0]] if t % 2 else [idx[:0, 0]] * 2
        self.sizes = tuple(3 * k + len(m) for m in equator)
        h = max(self.sizes)
        self.q = np.zeros((2, h, n))
        self.fold = np.zeros((2, h), dtype=np.intp)
        self.fold_weight = np.zeros((2, h))
        for half, (m, sign) in enumerate(zip(equator, (1.0, -1.0))):
            self.q[half, pos, lo] = root
            self.q[half, pos, hi] = sign * signed
            self.q[half, 3 * k + np.arange(len(m)), m] = 1.0
            self.fold[half, : 3 * k + len(m)] = np.concatenate((lo, m))
            self.fold_weight[half, : 3 * k] = math.sqrt(2.0)
            self.fold_weight[half, 3 * k : 3 * k + len(m)] = 1.0
        # a half entry mixes one component of two mirrored entries, so it has their phase
        self.half_phase = self.phase[np.abs(self.q).argmax(axis=2)]

    def halves(self, v, conj=False):
        """Q^T D v, or Q^T conj(D) v, for ring-0 vectors (..., n): (..., H, h)."""
        if self.q is None:
            if self.columns:
                v = v.reshape(v.shape[:-1] + (-1, 3)).swapaxes(-1, -2).reshape(v.shape)
            return v[..., None, :]
        q = self.q.reshape(-1, self.q.shape[2])
        v = v * (self.phase.conj() if conj else self.phase)
        return _real_matmul(q, v).reshape(v.shape[:-1] + self.q.shape[:2])

    def join(self, w, conj=False):
        """D Q w, or conj(D) Q w, for halves (..., H, h): (..., n)."""
        if self.q is None:
            v = w[..., 0, :]
            if self.columns:
                v = v.reshape(v.shape[:-1] + (3, -1)).swapaxes(-1, -2).reshape(v.shape)
            return v
        q = self.q.reshape(-1, self.q.shape[2])
        v = _real_matmul(q.T, w.reshape(w.shape[:-2] + (-1,)))
        return v * (self.phase.conj() if conj else self.phase)


def _mode_blocks(mat, rows, cols) -> np.ndarray:
    """A block column (P, 3m, 3, K/P) of a block-circulant operator to its real DFT half blocks.

    ``mat[q]`` holds the rows of the first m entries of node ring q against
    the ring-0 sources, strengths in x, y, z, its columns component-major
    (component c of source k at [c, k]).  Rotating both by R_q^T
    makes it block (0, -q) of the operator with each source's strength in
    its ring's frame (the columns that :func:`_to_rings` produces), so
    block m, B_m = sum_d C_d exp(2 pi i m d / P), is the DFT of ``mat``
    over q, with no per-ring rotation; blocks P - m are the conjugates and
    are not stored.  Returns the real (P//2+1, H, h_r, h_c) halves of
    D_r Q_r^T B_m Q_c D_c (see :class:`_RingSide`).

    * The DFT is one product with the Hartley rows cos + sin.  The phi
      reflection makes an entry even in q where its phase is real, so
      there B_m = C mat and Re(phase B_m) = Re(phase) (cos + sin) mat, and
      odd where it is imaginary, so there B_m = -i S mat and
      Re(phase B_m) = Im(phase) (cos + sin) mat; the other part is
      rounding.
    * The rows are those of the entries j < ceil(T/2) only.  Under the z
      mirror, row T-1-j is row j against the mirrored sources with the z
      signs of both sides, so a half row of Q_r^T B Q_c is sqrt 2 times
      row j times that half of Q_c, and an equator row is itself times its
      half.  Hence one product with both column halves of Q_c, after
      which ``rows.fold`` picks and weights each half's rows.

    One ring returns the matrix itself as a (1, 1, 3N, 3K) view, columns
    component-major as the kernel wrote them (see :class:`_RingSide`): no
    copy.
    """
    p, n, k = len(mat), mat.shape[1], mat.shape[3]
    if rows.q is None:
        return mat.reshape(1, 1, n, 3 * k)
    h = cols.q.shape[1]
    angle = np.outer(np.arange(p // 2 + 1), np.arange(p)) % p * (2.0 * np.pi / p)
    c = (np.cos(angle) + np.sin(angle)) @ mat.reshape(p, -1)
    # both column halves of Q_c, its rows in the component-major order of mat
    q = cols.q.transpose(2, 0, 1).reshape(k, 3, 2 * h).swapaxes(0, 1).reshape(3 * k, 2 * h)
    c = c.reshape(-1, 3 * k) @ q
    c = c.reshape(len(angle), n, 2, h)[:, rows.fold, [[0], [1]]]
    phase = rows.half_phase[:, :, None] * cols.half_phase[:, None, :]
    c *= (phase.real + phase.imag) * rows.fold_weight[:, :, None]
    return c


def _norm_bound(blocks) -> np.ndarray:
    """An upper bound on the spectral norm of each mode's halves (M, H, h_r, h_c): (M,).

    ||B||_F, the larger over the halves; the zero padding does not change
    it.  The singular values of the blocks decay exponentially (Barnett &
    Betcke 2008), so it is close to ||B||_2.
    """
    return np.sqrt(np.einsum("mkij,mkij->mk", blocks, blocks)).max(axis=1, initial=0.0)


def _live_modes(y):
    """The (C, M) mask of the live DFT modes of C columns, and how many modes to take.

    ``y`` (C, M, n) holds the ring DFT of each column.  A mode is live in a
    column above ``_MODE_FLOOR`` of the column's largest mode (max-abs);
    the count runs up to the highest live mode, and is at least one.
    """
    size = np.abs(y).max(axis=2)
    live = size > _MODE_FLOOR * size.max(axis=1, keepdims=True)
    return live, int(np.flatnonzero(live.any(axis=0)).max(initial=0)) + 1


def _householder_qr(a):
    """R and the compact WY blocks (j, V^T, T) of the QR of a block a (m, n), m >= n.

    Q = prod (I - V T V^T) over the blocks, in order, and is never formed.
    The block is copied once, in squares of ``_WY_WIDTH``, into a working
    array held as the row-major transpose x^T (n, m): column c of the block
    is row c of x^T.  The factorization overwrites it: panels of
    ``_WY_WIDTH`` columns, each factored with its T (:func:`_qr_panel`),
    then the rows of x^T below the panel's updated to those of Q_j^T C
    (:func:`_reflect`), ``_QR_CHUNK`` rows at a time, so that no
    temporary is the size of the block.  Once a panel's columns are
    updated, its block row of R is final and is copied out; V^T, rows of
    x^T from column j on, is then unit upper trapezoidal.  A non-finite
    block raises nothing here: numpy's QR returns a non-finite R for it.
    """
    m, n = a.shape
    # copied in squares: a transposed copy at once reads one entry per
    # cache line and takes about twice as long
    xt, w = np.empty((n, m)), _WY_WIDTH
    for i in range(0, m, w):
        for j in range(0, n, w):
            xt[j : j + w, i : i + w] = a[i : i + w, j : j + w].T
    r, blocks = np.zeros((n, n)), []
    for j in range(0, n, w):
        e = min(j + w, n)
        t = _qr_panel(xt, r, j, e)
        vt = xt[j:e, j:]
        for i in range(e, n, _QR_CHUNK):
            _reflect(xt[i : i + _QR_CHUNK, j:], vt, t)
        r[j:e, e:] = xt[e:, j:e].T
        blocks.append((j, vt, t))
    return r, blocks


def _reflect(rows, vt, t):
    """rows -= ((rows V) T) V^T in place: one WY block's Q^T applied to each row.

    The rows are those of C^T (a solve's sets of rows, or columns of the
    working array as rows of x^T), and V^T is held by its rows too, so the
    products and the subtraction all run along contiguous rows.
    """
    rows -= ((rows @ vt.T) @ t) @ vt


def _qr_panel(xt, r, j, e):
    """Factor the columns j:e of the working array x, from row j down, in place; returns their T.

    ``xt`` is x^T (see :func:`_householder_qr`).  A panel is split in
    halves: the left half is factored, its reflectors applied to the right
    half, and the right half factored, so T = [[T1, -T1 V1^T V2 T2],
    [0, T2]] (Elmroth & Gustavson 2000).  The rows j:e of R in these
    columns go to ``r``, and x keeps V, unit lower trapezoidal: ones on
    the diagonal and zeros above it (zeros left of it in x^T).  A leaf of at most ``_QR_LEAF``
    columns is LAPACK's (``qr(mode="raw")`` of the strided view, which
    returns geqrf's array transposed), and its T comes from dlarft's
    forward recurrence T[:i, i] = -tau_i T[:i, :i] (V^T V)[:i, i],
    T[i, i] = tau_i, which holds where tau_i = 0 (a zero column, or the
    last of a square block); the inverse striu(V^T V) + diag(1 / tau)
    would not.
    """
    w = e - j
    if w <= _QR_LEAF:
        h, tau = np.linalg.qr(xt[j:e, j:].T, mode="raw")
        d = h[:, :w]
        r[j:e, j:e] = np.tril(d).T
        d[np.tril_indices(w, -1)] = 0.0
        np.fill_diagonal(d, 1.0)
        xt[j:e, j:] = h
        g = h @ h.T
        t = np.zeros((w, w))
        for i, ti in enumerate(tau):
            t[:i, i] = -ti * (t[:i, :i] @ g[:i, i])
            t[i, i] = ti
        return t
    k = j + w // 2
    t1 = _qr_panel(xt, r, j, k)
    _reflect(xt[k:e, j:], xt[j:k, j:], t1)
    # the rows j:k of the right half are R's, and V2 is zero there
    r[j:k, k:e] = xt[k:e, j:k].T
    xt[k:e, j:k] = 0.0
    t2 = _qr_panel(xt, r, k, e)
    t = np.zeros((w, w))
    t[: k - j, : k - j], t[k - j :, k - j :] = t1, t2
    t[: k - j, k - j :] = -t1 @ ((xt[j:k, k:] @ xt[k:e, k:].T) @ t2)
    return t


def _apply_qt(blocks, b):
    """The first k entries of Q^T b for C sets of rows b (C, m), from Q's WY blocks: (C, k).

    The blocks apply in order, each to the entries from its first column
    on, of one copy of b: one product per block for all C sets.
    """
    y = b.copy()
    for j, vt, t in blocks:
        _reflect(y[:, j:], vt, t)
    j, vt, _ = blocks[-1]
    return y[:, : j + len(vt)]


def _triu_inv(r):
    """W = R^-1 of an upper triangular R (n, n) by blocked back substitution.

    Block rows of ``_WY_WIDTH`` rows, bottom to top: X_i = R_ii^-1
    [I | -R_i,>i X_>i], the rows of W from column i on (W is zero below
    its diagonal).  ``np.linalg.solve``'s LU of the triangular R_ii pivots
    nowhere and is exact, so each solve is a plain back substitution, which
    keeps the right residual |R W - I| <= c n eps |R| |W| (Du Croz &
    Higham, IMA J. Numer. Anal. 12, 1992).  It takes about 2 n^3 / 3
    flops, a quarter of a general inverse's LU and n solves.  A zero on the
    diagonal raises LinAlgError.
    """
    n = len(r)
    w = np.zeros((n, n))
    for j in reversed(range(0, n, _WY_WIDTH)):
        e = min(j + _WY_WIDTH, n)
        x = w[j:e, j:]
        np.fill_diagonal(x, 1.0)
        x[:, e - j :] = -(r[j:e, e:] @ w[e:, e:])
        x[...] = np.linalg.solve(r[j:e, j:e], x)
    return w


def _real_matmul(mat, x):
    """Stacked real matrices times stacked real or complex vectors.

    A complex vector goes through as two real columns (a float view), so
    the real matrices are never upcast.  A stack of one matrix
    (1, 1, m, n), the dense route's, takes C real vectors (C, 1, 1, n) in
    one (C, n) @ (n, m) product, which reads the matrix once, not C times.
    """
    if np.iscomplexobj(x):
        y = mat @ x.view(float).reshape(x.shape + (2,))
        return y.view(complex)[..., 0]
    if mat.shape[:-2] == (1, 1):
        return (x.reshape(-1, x.shape[-1]) @ mat[0, 0].T).reshape(x.shape[:-1] + (-1,))
    return (mat @ x[..., None])[..., 0]


class SlipSolver:
    """Factorized collocation operator for one (mesh, sources, alpha) triple.

    The truncated SVD of the row-weighted matrix is computed once and
    reused for any number of right-hand sides, which is what makes the six
    auxiliary solves plus the lifting solve cheap.  On a ring body it is
    computed per DFT mode, when first needed (see the module docstring).
    A set of boundary data is solved by :func:`solve_lifting`.  The
    factors live once, in stacks with a slot per mode and half: U^T
    (M, H, r, h_r), 1 / s (M, H, r) and V (M, H, h_c, r), r = min(h_r, h_c),
    written when the mode is factored (``_factored``), zero past each
    half's kept values; a solve multiplies views of their first n slots.

    The ring count P is ``mesh.rings`` when the sources record the same
    rings, else 1 (see the module docstring).  With P > 1 the kernel runs
    on one block column only, and on its rows on one side of the z mirror:
    ceil(T/2) K evaluations (T = N / P), where the whole matrix takes N K.
    The blocks it yields (:func:`_mode_blocks`) split into real even and
    odd halves (:class:`_RingSide`), each with its own SVD, all truncated
    against the global largest singular value.  With P = 1 the same code
    assembles the full 3N x 3K matrix, row-major with component-major
    columns, and factors it once, by a blocked Householder QR whose panels
    build their compact WY T as they are factored (:func:`_householder_qr`).
    Q stays in its reflectors, and a solve first maps its rows to the 3K
    entries of Q^T b (:func:`_apply_qt`); the stacks then act on those.
    Where R^-1 certifies that the truncated SVD would keep every singular
    value (:meth:`_certify`), R^-1 alone fills V, with ones for 1 / s and
    no U, and no SVD is taken; otherwise it takes one SVD, of R
    (:meth:`_svd`), and U^T is U_R^T (3K x 3K).  A ring mismatch costs
    time, never accuracy.  ValueError rejects K outside 1 <= K < N (K >= N
    would interpolate) and an ``alpha`` that is not finite and positive.

    The one Stokeslet row kernel (``stokeslets._frame_rows``) runs along
    each node's frame (n, t1, t2) and gives the velocity and the traction
    rows in one pass; they are combined into the slip rows in place, and
    the traction rows are rotated back to x, y, z for the node tractions.
    The real half blocks of both matrices are kept for the a-posteriori
    residuals and for traction extraction.
    """

    def __init__(self, mesh, sources, alpha, svd_tol=DEFAULT_SVD_TOL):
        if not 0.0 < alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {alpha}")
        if not 0.0 < svd_tol < 1.0:
            raise ValueError(f"svd_tol must lie in (0, 1), got {svd_tol}")
        if not 0 < sources.count < mesh.n_nodes:
            raise ValueError(
                f"the fit needs 1 <= K < N, got K = {sources.count} sources for "
                f"N = {mesh.n_nodes} nodes; on a triangle mesh use stride 2 or more"
            )
        self.mesh = mesh
        self.sources = sources
        self.alpha = float(alpha)
        p = mesh.rings if sources.rings == mesh.rings else 1
        self._rot = _z_rotations(p)
        t = mesh.n_nodes // p
        self._rows = _RingSide(t, _FRAME, p > 1)
        self._trows = _RingSide(t, _XYZ, p > 1)
        self._cols = _RingSide(sources.count // p, _XYZ, p > 1, columns=True)
        # the fit's rows: sqrt(weight), and the tangential rows over the slip weight
        sw = _slip_weight(mesh, alpha)
        self._scale = np.repeat(np.sqrt(mesh.weights[::p]), 3) / np.tile([1.0, sw, sw], t)
        # entries j < ceil(T/2) of every node ring, ring-major (all N nodes when P = 1)
        m = -(-t // 2) if p > 1 else t
        nodes = (np.arange(m) * p + np.arange(p)[:, None]).ravel()
        frames = np.stack((mesh.normals[nodes], mesh.tangent1[nodes], mesh.tangent2[nodes]), axis=1)
        a = np.empty((p * m, 3, 3, sources.count // p))
        trac = np.empty_like(a)
        _frame_rows(mesh.nodes[nodes], frames, sources.locations[::p], frames[:, 0], a, trac)
        # the slip rows: v . n, then (T n + alpha v) . t_a
        a[:, 1:] *= alpha
        a[:, 1:] += trac[:, 1:]
        # the node-traction rows in x, y, z of the ring's frame (as _from_rings
        # reads them): node (q, j) takes the ring-0 frame of entry j
        ring0_frames = frames[:m].swapaxes(1, 2)
        tmat = ring0_frames @ trac.reshape(p, m, 3, -1)
        del trac
        block_column = (p, 3 * m) + a.shape[2:]
        a = a.reshape(block_column)
        a *= self._scale[: 3 * m, None, None]
        self._a = _mode_blocks(a, self._rows, self._cols)
        del a
        self._tmat = _mode_blocks(tmat.reshape(block_column), self._trows, self._cols)
        del tmat
        modes, h, h_r, h_c = self._a.shape
        self._factored = np.zeros(modes, dtype=bool)
        bound = _norm_bound(self._a)
        self._refine = False
        # the one block's QR (P = 1): R, and Q kept in its reflectors' WY blocks
        qr_r, self._reflectors = _householder_qr(self._a[0, 0]) if p == 1 else (None, None)
        self._certified = qr_r is not None and self._certify(qr_r, bound[0], svd_tol)
        if self._certified:
            return
        # the factor stacks (see the class docstring); unwritten slots stay zero
        # pages.  After a QR, U^T acts on the r entries of Q^T b
        r = min(h_r, h_c)
        self._uh = np.zeros((modes, h, r, h_r if qr_r is None else r))
        self._inv_s = np.zeros((modes, h, r))
        self._v = np.zeros((modes, h, h_c, r))
        # ||B||_2 <= the bound, so once a mode's bound is below the largest
        # singular value found so far, no mode left can hold a larger one
        svds, s_max = {}, 0.0
        for m in map(int, np.argsort(-bound, kind="stable")):
            if bound[m] < (1.0 - _BOUND_SLACK) * s_max:
                break
            svd = svds[m] = self._svd(m, qr_r)
            s_max = max(s_max, *(s[0] for _, s, _ in svd))
        if s_max == 0.0:
            raise SolverError("collocation matrix is identically zero")
        self._s_max = s_max
        # svd_tol < 1, so s_max is always kept
        self._cut = svd_tol * s_max
        for m, svd in svds.items():
            self._truncate(m, svd)

    @property
    def svd_rank(self) -> int:
        """Singular values kept over all P DFT blocks; reading it finishes the factorization."""
        self._factor(len(self._factored))
        return int(_mode_multiplicity(len(self._rot)) @ np.count_nonzero(self._inv_s, axis=(1, 2)))

    @functools.cached_property
    def condition_estimate(self) -> float:
        """Largest over smallest kept singular value; reading it finishes the factorization.

        A certified block (:meth:`_certify`) has no singular values at
        hand: they are read off W = R^-1, whose own are their inverses, by a
        values-only SVD the first time this is read.
        """
        self._factor(len(self._factored))
        if self._certified:
            s = np.linalg.svd(self._v[0, 0], compute_uv=False)
            return float(s[0] / s[-1])
        return float(self._s_max * self._inv_s.max())

    def _certify(self, r, bound, svd_tol):
        """Keep R^-1 as the one block's truncated SVD where it proves it; True if so.

        W = R^-1, formed by a blocked back substitution (:func:`_triu_inv`),
        not a general inverse, gives s_min >= 1 / ||W||_F, and s_max <=
        ``bound``, so where ||W||_F bound <= 1 / (2 svd_tol) every singular
        value is above the cut (the 2 covers W's rounding): the truncated
        SVD would keep them all and return the least-squares solution
        W Q^T b.  W then fills V, ones 1 / s (for the rank), and there is no
        U: a solve multiplies Q^T b (:func:`_apply_qt`) by W alone.  A
        failed certificate or a singular R returns False, and the SVD of R
        finishes the factorization (:meth:`_svd`).
        """
        # W's diagonal holds 1 / r_ii, and ||W||_F is at least its norm: an R
        # whose diagonal already fails the certificate forms no W
        with np.errstate(divide="ignore"):
            diagonal = np.linalg.norm(1.0 / np.diagonal(r))
        if not diagonal * bound <= 0.5 / svd_tol:
            return False
        try:
            w = _triu_inv(r)
        except np.linalg.LinAlgError:
            return False
        # NaN or inf in W fails the comparison too
        ratio = np.linalg.norm(w) * bound
        if not ratio <= 0.5 / svd_tol:
            return False
        self._uh, self._inv_s, self._v = None, np.ones((1, 1, len(w))), w[None, None]
        self._factored[0] = True
        # the product with W loses up to eps cond of the solution, where a
        # back substitution would not; a solve wins it back by one refinement
        # step where that could exceed the routes' agreement
        self._refine = _EPS * ratio > _ROUTE_TOL
        return True

    def _svd(self, m, r=None):
        """The SVDs of the halves of DFT mode m.

        The one block (P = 1) takes the SVD of its R (``r``): it is the
        block's, with U_R (3K x 3K) acting on Q^T b, so U = Q U_R is never
        formed.  Only a ring half takes the SVD of the whole half.
        """
        try:
            if r is not None:
                return [np.linalg.svd(r, full_matrices=False)]
            # one 2-D call per half: the perfbench SVD counter reads (m, n) from its shape
            return [
                np.linalg.svd(self._a[m, k, :rows, :cols], full_matrices=False)
                for k, (rows, cols) in enumerate(zip(self._rows.sizes, self._cols.sizes))
            ]
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"SVD of the collocation matrix failed: {exc}") from exc

    def _truncate(self, m, svd):
        """Write mode m's singular triplets at or above the global cut into its slots."""
        for k, (u, s, vh) in enumerate(svd):
            kept = np.count_nonzero(s >= self._cut)
            self._uh[m, k, :kept, : len(u)] = u[:, :kept].T
            self._inv_s[m, k, :kept] = 1.0 / s[:kept]
            self._v[m, k, : vh.shape[1], :kept] = vh[:kept].T
        self._factored[m] = True

    def _factor(self, n):
        """Factor every mode below n that is not factored yet."""
        for m in np.flatnonzero(~self._factored[:n]):
            self._truncate(m, self._svd(m))

    def _apply(self, blocks, rows, y, n):
        """Block-circulant product of ``blocks`` with the ring DFT ``y`` (C, M, 3K/P), modes < n."""
        x = self._cols.halves(y[:, :n], conj=True)
        return _irfft(rows.join(_real_matmul(blocks[:n], x), conj=True), len(self._rot), -2)

    def _node_tractions(self, strengths) -> np.ndarray:
        """Tractions T n (C, N, 3) at the nodes of C Stokeslet fields with strengths (C, K, 3).

        Only the modes up to the strengths' highest live one are applied.
        """
        y = _rfft(_to_rings(strengths, self._rot), len(self._rot), -2)
        return _from_rings(self._apply(self._tmat, self._trows, y, _live_modes(y)[1]), self._rot)

    def node_traction(self, field: FlowField) -> np.ndarray:
        """Traction T n of ``field`` at the mesh nodes via the cached matrix."""
        t = self._node_tractions(field.strengths[None])[0]
        if field.source_flux != 0.0:
            t = t + field.source_flux * _sink_traction(self.mesh, field.source_point)
        return t

    def _solve(self, datas, references=None):
        """Solve for C sets of boundary data as one C-column right-hand side.

        Each stage is one FFT, one butterfly and one product for all
        columns.  The DFT modes are read off the data (:func:`_live_modes`):
        only those up to the highest live one are factored, solved and
        applied, and a mode that holds only rounding in a set is dropped
        from it, since the truncated SVD would return it amplified by up to
        1 / svd_tol; that rounding is left to the residual.  Returns the
        strengths (C, K, 3) and one SolveReport per set, relative to
        ``references`` (one set of data each; the solved data by default).
        """
        p = len(self._rot)
        rhs = self._fit_rows(datas)
        b = _rfft(rhs, p, -2)
        live, n = _live_modes(b)
        self._factor(n)
        b = self._rows.halves(b[:, :n])
        b[~live[:, :n]] = 0.0
        x = self._fit(b, n)
        if self._refine:
            # one step of refinement on the residual (see _certify)
            x += self._fit(b - _real_matmul(self._a[:n], x), n)
        # irfft pads the modes above n with zeros
        xi = _irfft(self._cols.join(x), p, -2)
        y = _rfft(xi, p, -2)
        residual = self._apply(self._a, self._rows, y, n) - rhs
        if references is not None:
            rhs = self._fit_rows(references)
        return _from_rings(xi, self._rot), _reports(residual, rhs)

    def _fit(self, b, n):
        """V (1 / s) U^T b for the halves b (C, n, H, h_r) of modes < n: (C, n, H, h_c).

        A dense block with a QR takes Q^T b first (:func:`_apply_qt`); a
        certified one then has no U and 1 / s of ones, so it takes V = R^-1
        alone.
        """
        if self._reflectors is not None:
            b = _apply_qt(self._reflectors, b.reshape(len(b), -1)).reshape(b.shape[:-1] + (-1,))
        if not self._certified:
            b = _real_matmul(self._uh[:n], b) * self._inv_s[:n]
        return _real_matmul(self._v[:n], b)

    def _fit_rows(self, datas):
        """The rows of C sets of data, ring-major and scaled as the fit's: (C, P, 3N/P)."""
        rhs = np.array([_build_rhs(self.mesh, self.alpha, d) for d in datas])
        return _rows_to_rings(rhs, len(self._rot)) * self._scale


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
    """Lift arbitrary boundary data to an exterior Stokes field: the one solve of a data set.

    If the data carries net flux phi, more than 1e-12 of the mesh area
    times the data's largest entry (less is rounding), a point sink at the
    mesh centroid absorbs it: the sink's discrete flux is normalized to phi
    exactly and its boundary trace (velocity and slip-row traction) is
    subtracted from the data before the Stokeslet fit on ``solver``'s
    mesh.  A remainder at most ``_MODE_FLOOR`` of the data's largest entry
    (uniform flux on a sphere, which the sink matches) is rounding and is
    fitted as zero.  By linearity the reported residuals are those of the
    complete composite field against the original data, relative to that
    data.  Returns (FlowField, SolveReport).
    """
    mesh, alpha = solver.mesh, solver.alpha
    _check_match(v_star, mesh)
    _check_tangential(v_star, mesh)
    phi = surface_integral(mesh, v_star.normal_data)
    size = max(np.max(np.abs(v_star.normal_data)), np.max(np.abs(v_star.tangential_data)))
    if abs(phi) <= 1e-12 * mesh.area * size:
        (strengths,), (report,) = solver._solve([v_star])
        return FlowField(solver.sources, strengths), report

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
    if max(np.max(np.abs(dn)), np.max(np.abs(dt))) <= _MODE_FLOOR * size:
        dn, dt = np.zeros_like(dn), np.zeros_like(dt)
    # dt keeps a normal part of order eps * phi from the carrier, which a
    # check scaled by dt's own (possibly rounding-sized) values would reject;
    # v_star was checked above.
    (strengths,), (report,) = solver._solve([BoundaryData(dn, dt)], [v_star])
    return FlowField(solver.sources, strengths, source_flux=c_src, source_point=x0), report
