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
norm, and velocity brackets [1/2, 3/2] times the Stokes prediction.  The
underlying smallness constants are not computable from the theory, so
pass/fail is always relative to user-supplied thresholds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import AccuracyWarning
from .geometry import SurfaceMesh, surface_integral
from .stokeslets import FlowField, SourceSet, place_sources
from .collocation import (
    DEFAULT_SVD_TOL,
    BoundaryData,
    SlipSolver,
    normalized_carrier,
    rigid_trace_data,
    solve_lifting,
)
from .mobility import (
    GrandMatrix,
    Wrench,
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
    "solve_selfpropelled_stokes",
    "flux_and_carrier",
    "h_half_norm",
    "ns_certificate",
]

CERTIFICATE_NOTE = (
    "pass/fail is relative to the user-supplied thresholds; the smallness "
    "constants of the underlying theory are nonconstructive"
)


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
    lifting_report: object = None


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

    def wrench(self, v_star: BoundaryData) -> Wrench:
        return compute_wrench(v_star, self.basis, self.mesh)

    def swim(self, v_star: BoundaryData):
        """Rigid velocity (xi, omega) via the wrench route."""
        return swim_velocity(self.grand_matrix, self.wrench(v_star))

    def solve(self, v_star: BoundaryData) -> SelfPropSolution:
        """Full composite solution via the lifting route (M c = beta)."""
        lifting, report = solve_lifting(v_star, self.solver)
        t_lift = self.solver.node_traction(lifting)
        beta = -np.einsum("n,inj,nj->i", self.mesh.weights, _rigid_modes(self.mesh), t_lift)
        c = np.linalg.solve(self.grand_matrix.M, beta)

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
        tol = 1e-6 * max(1.0, float(np.max(np.abs(beta))))
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
            xi=c[:3].copy(),
            omega=c[3:].copy(),
            force_residual=force_res,
            torque_residual=torque_res,
            lifting_report=report,
        )

    def certificate(self, re, v_star, thresholds=(1.0, 1.0), x0=None) -> NSCertificate:
        return ns_certificate(
            re, v_star, self.mesh, self.grand_matrix, self.wrench(v_star),
            thresholds, x0=x0,
        )


def solve_selfpropelled_stokes(
    v_star: BoundaryData,
    mesh: SurfaceMesh,
    alpha: float,
    shrink: float = 0.7,
    stride: int = 1,
    svd_tol: float = DEFAULT_SVD_TOL,
) -> SelfPropSolution:
    """One-shot self-propelled solve; see :class:`SwimProblem` for reuse."""
    return SwimProblem(mesh, alpha, shrink, stride, svd_tol).solve(v_star)


def flux_and_carrier(v_star: BoundaryData, mesh: SurfaceMesh, x0=None):
    """Boundary flux, normalized carrier trace, and flux-free remainder.

    Returns (phi, sigma_trace, beta_star): phi is the quadrature flux of the
    normal data; sigma_trace the carrier velocity at the nodes, normalized
    so its discrete flux is exactly 1; and beta_star = (v.n) n - phi sigma
    the per-node remainder, whose discrete flux is zero by construction.
    """
    if v_star.n_nodes != mesh.n_nodes:
        raise ValueError("boundary data does not match the mesh")
    x0 = mesh.centroid if x0 is None else x0
    sigma_hat, _ = normalized_carrier(mesh, x0)
    phi = surface_integral(mesh, v_star.normal_data)
    beta_star = v_star.normal_data[:, None] * mesh.normals - phi * sigma_hat
    return phi, sigma_hat, beta_star


def h_half_norm(values, mesh: SurfaceMesh, chunk: int = 256) -> float:
    """Discrete H^{1/2}(surface) norm by the Gagliardo double sum.

    ||f||^2 = sum_j w_j |f_j|^2
            + sum_{j != k} w_j w_k |f_j - f_k|^2 / |x_j - x_k|^3.

    The exponent 3 is d + 2s for a two-dimensional surface at s = 1/2.
    O(N^2) work, evaluated in row chunks.
    """
    f = np.asarray(values, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    if f.shape[0] != mesh.n_nodes:
        raise ValueError("field does not match the mesh")
    w = mesh.weights
    x = mesh.nodes
    total = float(np.sum(w * np.sum(f**2, axis=1)))
    n = mesh.n_nodes
    for lo in range(0, n, chunk):
        sl = slice(lo, min(lo + chunk, n))
        diff = np.sum((f[sl, None, :] - f[None, :, :]) ** 2, axis=2)
        dist = np.linalg.norm(x[sl, None, :] - x[None, :, :], axis=2)
        np.fill_diagonal(dist[:, sl], np.inf)  # the j = k terms are excluded
        total += float(np.sum(w[sl, None] * w[None, :] * diff / dist**3))
    return float(np.sqrt(total))


def ns_certificate(
    re: float,
    v_star: BoundaryData,
    mesh: SurfaceMesh,
    gm: GrandMatrix,
    wrench: Wrench,
    thresholds=(1.0, 1.0),
    x0=None,
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
    phi, _, beta_star = flux_and_carrier(v_star, mesh, x0=x0)
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
