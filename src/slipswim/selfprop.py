"""Self-propelled swimming solutions and low-Reynolds certificates.

The composite solution ansatz is v = sum_i c_i H_i + theta, where the H_i
are the six auxiliary fields and theta lifts the prescribed boundary data.
The coefficients solve the 6x6 system M c = beta with
beta_i = -integral of e_i . T(theta) n, and (xi, omega) = (c_1..3, c_4..6)
is the rigid-body velocity; zero net force and torque on the body are then
automatic and are re-verified here from the composite tractions.

:class:`SwimProblem` caches the expensive pieces (source placement, the
SVD factorization, the six auxiliary solves, the grand matrix) for one
(mesh, alpha) pair.  What depends on the mesh alone (the six rigid modes
at the nodes, the flux carrier and the unit sink's traction at the
centroid, the ring kernel of the H^{1/2} norm) is computed once per mesh
and held while the mesh lives; its phi rings are recorded when it is
built.  Each set of boundary data on a ready body then costs only
matrix-vector work and 6x6 algebra.

The certificate layer evaluates the quantities controlling the weakly
nonlinear (small Reynolds) regime: the boundary flux phi, the flux-free
data remainder beta_star = (v.n) n - phi sigma with its discrete H^{1/2}
norm, and velocity brackets [1/2, 3/2] times the Stokes prediction.  On
sphere and spheroid meshes the H^{1/2} norm is evaluated over the mesh's
phi rings (``SurfaceMesh.rings``), in O(N^1.5) work.  The underlying
smallness constants are not computable from the theory, so pass/fail is
always relative to user-supplied thresholds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AccuracyWarning
from .geometry import (
    SurfaceMesh,
    _gauss_legendre,
    _length_scale,
    _per_mesh,
    _rigid_modes,
    _semi_axes,
    _spheroid_grid,
    _spheroid_weights,
    _uniform_phi,
    surface_integral,
)
from .stokeslets import FlowField, SourceSet, _blocks, _traction_product, place_sources
from .collocation import (
    DEFAULT_SVD_TOL,
    BoundaryData,
    SlipSolver,
    SolveReport,
    _check_match,
    _mode_multiplicity,
    _rfft,
    boundary_data_from_field,
    normalized_carrier,
    solve_lifting,
)
from .mobility import (
    GrandMatrix,
    _unit_scale,
    assemble_grand_matrix,
    compute_wrench,
    swim_velocity,
    traction_basis,
)

__all__ = [
    "SwimProblem",
    "SelfPropSolution",
    "NSCertificate",
    "flux_and_carrier",
    "h_half_norm",
    "ns_certificate",
]

CERTIFICATE_NOTE = (
    "pass/fail is relative to the user-supplied thresholds; the smallness "
    "constants of the underlying theory are nonconstructive"
)
# The finer surface rule of SwimProblem.k_error_estimate: this many times
# the node rings in cos(theta), and this many phi samples per ring spacing
# (both even).  Three times the rings or eight samples move no estimate of
# the test bodies by 4% of itself.
_FINE_RINGS = 2
_FINE_PHASES = 4


@dataclass(frozen=True)
class SelfPropSolution:
    """Solution of one self-propelled Stokes problem.

    ``field`` is the composite flow (merged Stokeslet strengths plus the
    flux carrier of the lifting); ``force_residual`` and
    ``torque_residual`` are the magnitudes of the net surface traction
    integrals, the discrete self-propulsion check, relative to the lifting's
    sum_n w_n |t_lift(x_n)| (the torque to that times the body's length).
    """

    coefficients: np.ndarray
    lifting: FlowField
    field: FlowField
    xi: np.ndarray
    omega: np.ndarray
    force_residual: float
    torque_residual: float
    lifting_report: SolveReport


@dataclass(frozen=True)
class NSCertificate:
    """Smallness certificate and velocity brackets for the nonlinear problem.

    ``xi_bracket`` and ``omega_bracket`` are (lower, upper) bounds on |xi|
    and |omega| equal to exactly (1/2, 3/2) times the Stokes magnitudes;
    they are meaningful when the certificate passes.
    """

    phi: float
    re: float
    re_phi: float
    beta_star_half_norm: float
    re_beta: float
    c1_user: float
    c2_user: float
    passes: bool
    xi_bracket: tuple
    omega_bracket: tuple
    note: str = CERTIFICATE_NOTE


class SwimProblem:
    """Cached pipeline for one body, slip coefficient and discretization.

    Parameters mirror :func:`slipswim.collocation.SlipSolver` plus source
    placement knobs.  All heavy members are lazy: nothing is computed until
    first use, then reused.
    """

    def __init__(
        self,
        mesh: SurfaceMesh,
        alpha: float,
        shrink: float = 0.7,
        stride: int | None = None,
        svd_tol: float = DEFAULT_SVD_TOL,
    ):
        self.mesh = mesh
        self.alpha = float(alpha)
        self.shrink = float(shrink)
        self.stride = None if stride is None else int(stride)
        self.svd_tol = float(svd_tol)

    @cached_property
    def sources(self) -> SourceSet:
        return place_sources(self.mesh, self.shrink, self.stride)

    @cached_property
    def solver(self) -> SlipSolver:
        return SlipSolver(self.mesh, self.sources, self.alpha, self.svd_tol)

    @cached_property
    def _aux(self):
        # The six rigid traces, tangential by construction, as one six-column
        # right-hand side; the strengths are held as one read-only (6, K, 3) array.
        traces = [boundary_data_from_field(self.mesh, mode) for mode in _rigid_modes(self.mesh)]
        strengths, reports = self.solver._solve(traces)
        strengths.setflags(write=False)
        fields = tuple(FlowField(self.sources, q) for q in strengths)
        return fields, tuple(reports), strengths

    @property
    def aux_fields(self):
        return self._aux[0]

    @property
    def aux_reports(self):
        return self._aux[1]

    @cached_property
    def basis(self):
        tractions = self.solver._node_tractions(self._aux[2])
        return traction_basis(self.aux_fields, self.mesh, tractions=tractions)

    @cached_property
    def grand_matrix(self) -> GrandMatrix:
        return assemble_grand_matrix(self.basis, self.mesh)

    @cached_property
    def k_error_estimate(self):
        """Estimated relative error of the diagonal of K, or None without a source grid.

        K sums the tractions of the unit-translation fits with the node
        weights.  The same tractions summed on a finer rule of the same
        surface (``_FINE_RINGS`` times the node rings in cos(theta),
        ``_FINE_PHASES`` phi samples per ring spacing) come out far closer
        to the converged K wherever the mesh is coarse or the sources sit
        shallow, so the largest relative difference of the two diagonals
        estimates the error of K.  On the c = 1.6 spheroid at res 20 and
        alpha 2 it reads 1.2e-1 at shrink 0.85 (K_xx 13% off the converged
        value) and 6.1e-4 at shrink 0.7 (5.2e-4 off).

        Only a sphere's or spheroid's source grid has the finer rule: the
        rotations about z by 2 pi / P and the mirrors y -> -y and z -> -z
        leave t_x . e_x + t_y . e_y and t_z . e_z unchanged, so the samples
        of half a ring spacing in phi and of z >= 0 give the whole sum.
        """
        mesh, p = self.mesh, self.mesh.rings
        if mesh.shape_info is None or p == 1 or self.sources.rings != p:
            return None
        a, c = _semi_axes(mesh.shape_info)
        n = _FINE_RINGS * (mesh.n_nodes // p)
        t, wt = _gauss_legendre(n)
        # the upper half of the rings, each twice; both ends of the half spacing once
        t, wt = t[n // 2 :], 2.0 * wt[n // 2 :]
        phi = _uniform_phi(_FINE_PHASES * p)[: _FINE_PHASES // 2 + 1]
        w_phi = np.full(len(phi), 4.0 * np.pi / _FINE_PHASES)
        w_phi[[0, -1]] /= 2.0
        points, normals = _spheroid_grid(a, c, t, phi)
        weights = _spheroid_weights(a, c, np.repeat(t, len(phi)), np.outer(wt, w_phi).ravel())
        # the three translation strengths as component-major columns (3K, 3)
        columns = self._aux[2][:3].transpose(2, 1, 0).reshape(-1, 3)
        trac = _traction_product(points, normals, self.sources.locations, columns)
        k_xy = 0.5 * float(weights @ (trac[:, 0, 0] + trac[:, 1, 1]))
        k_z = float(weights @ trac[:, 2, 2])
        fine = np.array([k_xy, k_xy, k_z])
        return float(np.max(np.abs(fine / np.diag(self.grand_matrix.K) - 1.0)))

    def worst_residual(self) -> float:
        """Largest relative residual of the six auxiliary fits."""
        return max(max(r.residual_normal, r.residual_tangential) for r in self.aux_reports)

    def wrench(self, v_star: BoundaryData) -> np.ndarray:
        return compute_wrench(v_star, self.basis, self.mesh)

    def swim(self, v_star: BoundaryData):
        """Rigid velocity (xi, omega) via the wrench route."""
        return swim_velocity(self.grand_matrix, self.wrench(v_star))

    def solve(self, v_star: BoundaryData) -> SelfPropSolution:
        """Full composite solution via the lifting route (M c = beta).

        M c = beta is solved by :func:`slipswim.mobility.swim_velocity`, the
        solve of the wrench route, with its check that c reproduces beta.
        """
        lifting, report = solve_lifting(v_star, self.solver)
        t_lift = self.solver.node_traction(lifting)
        beta = -np.einsum("n,inj,nj->i", self.mesh.weights, _rigid_modes(self.mesh), t_lift)
        xi, omega = swim_velocity(self.grand_matrix, beta)
        c = np.concatenate((xi, omega))

        strengths = lifting.strengths + np.einsum("i,ikj->kj", c, self._aux[2])
        composite = FlowField(
            self.sources,
            strengths,
            source_flux=lifting.source_flux,
            source_point=lifting.source_point,
        )
        t_comp = self.solver.node_traction(composite)
        force = surface_integral(self.mesh, t_comp)
        torque = surface_integral(self.mesh, np.cross(self.mesh.nodes, t_comp))
        # relative to the lifting's tractions (a torque is a force times a length),
        # scaled before the norm squares them; zero data has zero residuals
        lift_scale = float(self.mesh.weights @ np.linalg.norm(t_lift, axis=1)) or 1.0
        force_res = float(np.linalg.norm(force / lift_scale))
        torque_res = float(np.linalg.norm(torque / (lift_scale * _length_scale(self.mesh))))
        if max(force_res, torque_res) > 1e-6:
            warnings.warn(
                f"self-propulsion residuals (force {force_res:.3e}, torque "
                f"{torque_res:.3e}, relative to the lifting tractions) exceed 1e-6; "
                "treat the result as inaccurate",
                AccuracyWarning,
                stacklevel=2,
            )
        return SelfPropSolution(
            coefficients=c,
            lifting=lifting,
            field=composite,
            xi=xi,
            omega=omega,
            force_residual=force_res,
            torque_residual=torque_res,
            lifting_report=report,
        )

    def certificate(self, re, v_star, thresholds=(1.0, 1.0)) -> NSCertificate:
        return ns_certificate(
            re, v_star, self.mesh, self.grand_matrix, self.wrench(v_star), thresholds
        )


def flux_and_carrier(v_star: BoundaryData, mesh: SurfaceMesh):
    """Boundary flux, normalized carrier trace, and flux-free remainder.

    Returns (phi, sigma_trace, beta_star): phi is the quadrature flux of the
    normal data; sigma_trace the velocity of the carrier at the centroid,
    evaluated at the nodes and normalized so its discrete flux is exactly 1;
    and beta_star = (v.n) n - phi sigma the per-node remainder, whose
    discrete flux is zero by construction.
    """
    _check_match(v_star, mesh)
    sigma_hat, _ = normalized_carrier(mesh, mesh.centroid)
    phi = surface_integral(mesh, v_star.normal_data)
    beta_star = v_star.normal_data[:, None] * mesh.normals - phi * sigma_hat
    return phi, sigma_hat, beta_star


def h_half_norm(values, mesh: SurfaceMesh) -> float:
    """Discrete H^{1/2}(surface) norm by the Gagliardo double sum.

    ||f||^2 = sum_j w_j |f_j|^2
            + sum_{j != k} w_j w_k |f_j - f_k|^2 / |x_j - x_k|^3.

    The exponent 3 is d + 2s for a two-dimensional surface at s = 1/2.
    With G the kernel w_j w_k / |x_j - x_k|^3 (zero on the diagonal) and D
    its row sums, the double sum equals 2 sum_c f_c^T (D - G) f_c over the
    Cartesian components c.  The kernel depends only on the distance, so
    on a mesh with P = ``mesh.rings`` > 1 phi rings of T = N / P nodes (a
    sphere or spheroid) it depends only on the ring shift: the T x N rows
    of ring 0, put through an FFT over the shift, give P // 2 + 1
    Hermitian T x T blocks, and f^T G f is one batched product of them
    with the ring DFT of f.  The blocks and D are built once per mesh, in
    O(N^1.5) work and memory; each call then costs O(N^1.5).  Every other
    mesh is one ring (P = 1, no FFT), whose N x N kernel is built a block
    of rows at a time on every call, in O(N^2) work and bounded memory,
    and never held.  The sums run on f over a power of two at or above its
    largest entry, so its squares cannot overflow or underflow.
    """
    f = np.asarray(values, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    if f.shape[0] != mesh.n_nodes:
        raise ValueError("field does not match the mesh")
    f, e = _unit_scale(f)
    p = mesh.rings
    t = mesh.n_nodes // p
    # node t * P + q is row t of ring q
    f_rings = f.reshape(t, p, -1)
    f_hat = _rfft(f_rings.swapaxes(0, 1), p)  # (P//2+1, T, C)
    sq = np.sum(f_rings**2, axis=(1, 2))  # |f|^2 summed over each row's P nodes
    if p > 1:
        kernel = _per_mesh(mesh, "h_half", lambda: tuple(_ring_kernel(mesh, p)))
    else:
        kernel = _ring_kernel(mesh, p)
    diag, quad = 0.0, np.zeros(len(f_hat))
    for rows, row_sums, g_hat in kernel:
        diag += float(row_sums @ sq[rows])
        quad += np.sum(f_hat[:, rows] * (g_hat @ f_hat.conj()), axis=(1, 2)).real
    total = float(np.sum(mesh.weights * np.sum(f**2, axis=1)))
    total += 2.0 * (diag - float(_mode_multiplicity(p) @ quad) / p)
    return float(np.ldexp(np.sqrt(total), e))


def _ring_kernel(mesh: SurfaceMesh, p: int):
    """Blocks (rows, D[rows], G_hat[:, rows]) of the ring-0 kernel of :func:`h_half_norm`.

    A generator: one block of ring-0 rows against all N nodes
    (``stokeslets._blocks``) is built at a time.
    """
    w, x = mesh.weights, mesh.nodes
    t = mesh.n_nodes // p
    for rows in _blocks(t, 3 * 8 * mesh.n_nodes):
        lo, hi = rows.start, rows.stop
        ring0 = slice(lo * p, hi * p, p)
        dist = np.linalg.norm(x[ring0, None, :] - x[None, :, :], axis=2)
        dist[np.arange(hi - lo), np.arange(lo, hi) * p] = np.inf  # the j = k terms are excluded
        g = w[ring0, None] * (w[None, :] / dist**3)
        yield rows, np.sum(g, axis=1), _rfft(g.reshape(hi - lo, t, p).transpose(2, 0, 1), p)


def ns_certificate(
    re: float,
    v_star: BoundaryData,
    mesh: SurfaceMesh,
    gm: GrandMatrix,
    wrench: np.ndarray,
    thresholds=(1.0, 1.0),
) -> NSCertificate:
    """Evaluate the small-Reynolds certificate for the given data.

    ``thresholds`` = (C1_user, C2_user) stand in for the nonconstructive
    constants: the certificate passes when re*|phi| < C1_user and
    re*||beta_star||_{H^{1/2}} < C2_user.  Brackets on |xi| and |omega| are
    (1/2, 3/2) times the Stokes magnitudes regardless of the outcome.
    """
    if re < 0:
        raise ValueError(f"Reynolds number must be nonnegative, got {re}")
    c1, c2 = float(thresholds[0]), float(thresholds[1])
    phi, _, beta_star = flux_and_carrier(v_star, mesh)
    bnorm = h_half_norm(beta_star, mesh)
    xi, omega = swim_velocity(gm, wrench)
    xi_mag, om_mag = float(np.linalg.norm(xi)), float(np.linalg.norm(omega))
    return NSCertificate(
        phi=float(phi),
        re=float(re),
        re_phi=float(re * abs(phi)),
        beta_star_half_norm=bnorm,
        re_beta=float(re * bnorm),
        c1_user=c1,
        c2_user=c2,
        passes=bool(re * abs(phi) < c1 and re * bnorm < c2),
        xi_bracket=(0.5 * xi_mag, 1.5 * xi_mag),
        omega_bracket=(0.5 * om_mag, 1.5 * om_mag),
    )
