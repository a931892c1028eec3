"""Self-propelled swimming solutions and low-Reynolds certificates.

The composite solution ansatz is v = sum_i c_i H_i + theta, where the H_i
are the six auxiliary fields and theta lifts the prescribed boundary data.
The coefficients solve the 6x6 system M c = beta with
beta_i = -integral of e_i . T(theta) n, and (xi, omega) = (c_1..3, c_4..6)
is the rigid-body velocity; zero net force and torque on the body are then
automatic and are re-verified here from the composite tractions.

:class:`SwimProblem` caches the expensive pieces (source placement, the
SVD factorization, the six auxiliary solves, the grand matrix) for one
(mesh, alpha) pair so that repeated boundary data cost only matrix-vector
work.

The certificate layer evaluates the quantities controlling the weakly
nonlinear (small Reynolds) regime: the boundary flux phi, the flux-free
data remainder beta_star = (v.n) n - phi sigma with its discrete H^{1/2}
norm, and velocity brackets [1/2, 3/2] times the Stokes prediction.  On
sphere and spheroid meshes the H^{1/2} norm is evaluated over the same
phi rings as :class:`SlipSolver`'s factorization, in O(N^1.5) work.  The
underlying smallness constants are not computable from the theory, so
pass/fail is always relative to user-supplied thresholds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AccuracyWarning
from .geometry import SurfaceMesh, surface_integral
from .stokeslets import FlowField, SourceSet, place_sources
from .collocation import (
    DEFAULT_SVD_TOL,
    BoundaryData,
    SlipSolver,
    SolveReport,
    _check_match,
    _mesh_ring_count,
    _mode_multiplicity,
    _rfft,
    normalized_carrier,
    rigid_trace_data,
    solve_lifting,
)
from .mobility import (
    GrandMatrix,
    _rigid_modes,
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
# Ring-0 kernel rows per block in h_half_norm (all N rows on a one-ring mesh).
_H_HALF_CHUNK = 256


@dataclass(frozen=True)
class SelfPropSolution:
    """Solution of one self-propelled Stokes problem.

    ``field`` is the composite flow (merged Stokeslet strengths plus the
    flux carrier of the lifting); ``force_residual`` and
    ``torque_residual`` are the magnitudes of the net surface traction
    integrals, the discrete self-propulsion check.
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
        stride: int = 1,
        svd_tol: float = DEFAULT_SVD_TOL,
    ):
        self.mesh = mesh
        self.alpha = float(alpha)
        self.shrink = float(shrink)
        self.stride = int(stride)
        self.svd_tol = float(svd_tol)

    @cached_property
    def sources(self) -> SourceSet:
        return place_sources(self.mesh, self.shrink, self.stride)

    @cached_property
    def solver(self) -> SlipSolver:
        return SlipSolver(self.mesh, self.sources, self.alpha, self.svd_tol)

    @cached_property
    def _aux(self):
        fields, reports = [], []
        for i in range(1, 7):
            f, r = self.solver.solve_data(rigid_trace_data(self.mesh, i))
            fields.append(f)
            reports.append(r)
        return tuple(fields), tuple(reports)

    @property
    def aux_fields(self):
        return self._aux[0]

    @property
    def aux_reports(self):
        return self._aux[1]

    @cached_property
    def basis(self):
        tractions = np.array([self.solver.node_traction(f) for f in self.aux_fields])
        return traction_basis(self.aux_fields, self.mesh, tractions=tractions)

    @cached_property
    def grand_matrix(self) -> GrandMatrix:
        return assemble_grand_matrix(self.basis, self.mesh)

    def worst_residual(self) -> float:
        """Largest auxiliary residual, with tangential rows on velocity scale."""
        return max(
            max(r.residual_normal, r.residual_tangential / max(1.0, self.alpha))
            for r in self.aux_reports
        )

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

        strengths = lifting.strengths + np.einsum(
            "i,ikj->kj", c, np.array([f.strengths for f in self.aux_fields])
        )
        composite = FlowField(
            self.sources,
            strengths,
            source_flux=lifting.source_flux,
            source_point=lifting.source_point,
        )
        t_comp = self.solver.node_traction(composite)
        force = surface_integral(self.mesh, t_comp)
        torque = surface_integral(self.mesh, np.cross(self.mesh.nodes, t_comp))
        force_res = float(np.linalg.norm(force))
        torque_res = float(np.linalg.norm(torque))
        # the residuals are sums of tractions as large as the lifting's
        lift_scale = float(self.mesh.weights @ np.linalg.norm(t_lift, axis=1))
        tol = 1e-6 * max(1.0, float(np.max(np.abs(beta))), lift_scale)
        if force_res > tol or torque_res > tol:
            warnings.warn(
                f"self-propulsion residuals (force {force_res:.3e}, torque "
                f"{torque_res:.3e}) exceed {tol:.3e}; treat the result as inaccurate",
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
    on a sphere or spheroid mesh with P phi rings of T = N / P nodes it
    depends only on the ring shift: the T x N rows of ring 0, put through
    an FFT over the shift, give P // 2 + 1 Hermitian T x T blocks, and
    f^T G f is one batched product of them with the ring DFT of f.  That
    costs O(N^1.5) per call.  Every other mesh is one ring (P = 1, no FFT),
    whose N x N kernel is built ``_H_HALF_CHUNK`` rows at a time in O(N^2)
    work.  The rings are those that :class:`SlipSolver` detects.
    """
    f = np.asarray(values, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    if f.shape[0] != mesh.n_nodes:
        raise ValueError("field does not match the mesh")
    w, x = mesh.weights, mesh.nodes
    p = _mesh_ring_count(mesh)
    t = mesh.n_nodes // p
    # node t * P + q is row t of ring q
    f_rings = f.reshape(t, p, -1)
    f_hat = _rfft(f_rings.swapaxes(0, 1), p)  # (P//2+1, T, C)
    sq = np.sum(f_rings**2, axis=(1, 2))  # |f|^2 summed over each row's P nodes
    diag, quad = 0.0, np.zeros(len(f_hat))
    for lo in range(0, t, _H_HALF_CHUNK):
        hi = min(lo + _H_HALF_CHUNK, t)
        ring0 = slice(lo * p, hi * p, p)
        dist = np.linalg.norm(x[ring0, None, :] - x[None, :, :], axis=2)
        dist[np.arange(hi - lo), np.arange(lo, hi) * p] = np.inf  # the j = k terms are excluded
        g = w[ring0, None] * w[None, :] / dist**3
        diag += float(np.sum(g, axis=1) @ sq[lo:hi])
        g_hat = _rfft(g.reshape(hi - lo, t, p).transpose(2, 0, 1), p)
        quad += np.sum(f_hat[:, lo:hi] * (g_hat @ f_hat.conj()), axis=(1, 2)).real
    total = float(np.sum(w * np.sum(f**2, axis=1)))
    total += 2.0 * (diag - float(_mode_multiplicity(p) @ quad) / p)
    return float(np.sqrt(total))


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
