"""Analytic oracles and two-sided identity checks.

Everything here recomputes a quantity along an independent route and
compares: boundary work against volume dissipation (reciprocal identity),
grand-matrix entries against dissipation plus slip terms (energy identity),
discrete resistance against the classical slip-sphere formulas, swimming
speed against the classical squirmer result, and refinement behavior.

Volume integrals over the truncated exterior domain use a product rule:
Gauss-Legendre in cos(theta), uniform phi, and Gauss-Legendre on a
logarithmic radial map from the body surface out to the truncation radius
R_t.  The integrand 2 D_i : D_j decays like r^-4, so the truncated tail
has the closed leading form (Q_i . Q_j)/(4 pi R_t) with Q the total
Stokeslet strength of each field; it is added to the volume term and its
magnitude reported, never silently dropped.

Both identity checks pair the same volume term with a boundary reading of
their own.  The volume strain of each field is evaluated once per
(shape, R_t) rule and shared across checks; it is held in a weak-keyed memo
and freed together with the field.
"""

from __future__ import annotations

import csv
import warnings
import weakref
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import GeometryError
from .geometry import (
    SurfaceMesh,
    elementary_rigid_motion,
    make_parametric_surface,
    surface_integral,
    tangential_part,
)
from .stokeslets import FlowField, SourceSet, evaluate_flow, evaluate_strain
from .collocation import BoundaryData, boundary_data_from_field, uniform_flux_data
from .mobility import ThrustBasis
from .selfprop import SwimProblem

__all__ = [
    "CheckResult",
    "analytic_sphere_resistance",
    "squirmer_oracle",
    "reciprocal_check",
    "energy_identity_check",
    "convergence_study",
    "ConvergenceRow",
    "ConvergenceStudy",
    "write_convergence_csv",
    "calibrate_slip_length",
    "random_boundary_data",
]

# Volume quadrature of the identity checks and their pass threshold.
_N_ANGULAR = 32
_N_RADIAL = 48
_IDENTITY_TOL = 0.03
# Pass threshold of each fitted slip length in calibrate_slip_length.
_CALIBRATION_TOL = 0.05
# field -> {(shape_info, r_t): volume strain}; entries die with their field.
_STRAINS = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one two-sided check; passed iff relative_error <= tolerance."""

    name: str
    lhs: float
    rhs: float
    relative_error: float
    tolerance: float
    passed: bool
    tail_bound: float | None = None


def _make_check(name, lhs, rhs, tolerance, scale=None, tail_bound=None) -> CheckResult:
    lhs, rhs = float(lhs), float(rhs)
    denom = float(scale) if scale is not None else max(abs(lhs), abs(rhs))
    if denom == 0.0:
        rel = 0.0 if lhs == rhs else np.inf
    else:
        rel = abs(lhs - rhs) / denom
    return CheckResult(name, lhs, rhs, float(rel), float(tolerance), bool(rel <= tolerance), tail_bound)


def analytic_sphere_resistance(radius: float, slip_length_b: float):
    """Classical slip-sphere translation and rotation resistances.

    K_diag = 6 pi a (1 + 2 b/a)/(1 + 3 b/a), R_diag = 8 pi a^3/(1 + 3 b/a),
    valid for any slip length b >= 0; b = 0 gives the no-slip values
    (6 pi a, 8 pi a^3) and b -> infinity the perfect-slip limit 4 pi a.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if slip_length_b < 0:
        raise ValueError("slip length must be nonnegative")
    ratio = slip_length_b / radius
    k = 6.0 * np.pi * radius * (1.0 + 2.0 * ratio) / (1.0 + 3.0 * ratio)
    r = 8.0 * np.pi * radius**3 / (1.0 + 3.0 * ratio)
    return k, r


def squirmer_oracle(b1: float) -> float:
    """Classical no-slip swimming speed of the B1 sin(theta) squirmer."""
    return 2.0 * b1 / 3.0


def _ray_radius(mesh: SurfaceMesh, t: np.ndarray) -> np.ndarray:
    """Surface radius along rays with polar cosine t, from the parametric shape."""
    if mesh.shape_info is None:
        raise GeometryError(
            "volume checks need a parametric mesh (sphere or spheroid); "
            "loaded triangle meshes carry no ray-radius information"
        )
    if mesh.shape_info[0] == "sphere":
        return np.full_like(t, mesh.shape_info[1])
    _, a, c = mesh.shape_info
    s2 = 1.0 - t**2
    return 1.0 / np.sqrt(s2 / a**2 + t**2 / c**2)


def _volume_rule(mesh: SurfaceMesh, r_t: float):
    """Quadrature points/weights for the exterior region out to radius r_t."""
    t, wt = leggauss(_N_ANGULAR)
    phi = 2.0 * np.pi * np.arange(_N_ANGULAR) / _N_ANGULAR
    w_phi = 2.0 * np.pi / _N_ANGULAR
    rho0 = _ray_radius(mesh, t)
    if np.any(rho0 >= r_t):
        raise GeometryError(f"truncation radius {r_t} does not enclose the body")

    s = np.sqrt(1.0 - t**2)
    dirs = np.stack(
        (
            np.outer(s, np.cos(phi)),
            np.outer(s, np.sin(phi)),
            np.outer(t, np.ones_like(phi)),
        ),
        axis=-1,
    )  # (n_t, n_phi, 3)

    u, wu = leggauss(_N_RADIAL)
    u = 0.5 * (u + 1.0)
    wu = 0.5 * wu
    # Log map r = rho0 (r_t/rho0)^u concentrates points near the body, where
    # the dissipation density peaks, and stretches into the r^-4 far field.
    lam = np.log(r_t / rho0)  # (n_t,)
    r = rho0[:, None] * np.exp(np.outer(lam, u))  # (n_t, n_radial)
    w_r = r**3 * lam[:, None] * wu[None, :]  # r^2 dr = r^3 lam du

    pts = dirs[:, :, None, :] * r[:, None, :, None]
    wvol = np.broadcast_to(
        wt[:, None, None] * w_phi * w_r[:, None, :], pts.shape[:3]
    )
    return pts.reshape(-1, 3), wvol.reshape(-1)


def _volume_term(i: int, j: int, basis: ThrustBasis, mesh: SurfaceMesh, r_t: float):
    """2 int D_i : D_j over the truncated exterior plus its tail, and the tail."""
    if not (1 <= i <= 6 and 1 <= j <= 6):
        raise ValueError("indices must lie in 1..6")
    pts, wvol = _volume_rule(mesh, r_t)
    fa, fb = basis.aux_fields[i - 1], basis.aux_fields[j - 1]
    key = (mesh.shape_info, r_t)
    strains = []
    for f in (fa, fb):
        memo = _STRAINS.setdefault(f, {})
        if key not in memo:
            memo[key] = evaluate_strain(f, pts)
        strains.append(memo[key])
    # closed-form leading tail of 2 int_{r > r_t} D_i : D_j dV
    tail = float(fa.total_strength @ fb.total_strength) / (4.0 * np.pi * r_t)
    pairing = 2.0 * float(np.sum(wvol * np.einsum("mab,mab->m", *strains)))
    return pairing + tail, tail


def reciprocal_check(
    i: int, j: int, basis: ThrustBasis, mesh: SurfaceMesh, r_t: float, scale=None
) -> CheckResult:
    """Boundary work of (g_j, H_i) against the volume dissipation pairing.

    lhs = sum_n w_n g_j . H_i at the nodes; rhs = 2 int D_j : D_i over the
    truncated exterior plus the closed-form tail.  ``scale`` overrides the
    denominator of the relative error (useful for near-zero off-diagonal
    pairs).
    """
    rhs, tail = _volume_term(i, j, basis, mesh, r_t)
    h_nodes, _ = evaluate_flow(basis.aux_fields[i - 1], mesh.nodes)
    lhs = float(
        surface_integral(mesh, np.einsum("nj,nj->n", basis.tractions[j - 1], h_nodes))
    )
    return _make_check(
        f"reciprocal[{i},{j}]", lhs, rhs, _IDENTITY_TOL, scale=scale, tail_bound=abs(tail)
    )


def energy_identity_check(
    i: int,
    j: int,
    basis: ThrustBasis,
    mesh: SurfaceMesh,
    alpha: float,
    r_t: float,
    scale=None,
) -> CheckResult:
    """Grand-matrix entry against dissipation plus the boundary slip term.

    lhs = M_ij recomputed from the tractions; rhs = 2 int D_i : D_j (with
    tail) + alpha sum_n w_n [H_i - e_i]_tau . [H_j - e_j]_tau.
    """
    volume, tail = _volume_term(i, j, basis, mesh, r_t)
    rigid_i, rigid_j = (elementary_rigid_motion(k, mesh.nodes) for k in (i, j))
    lhs = float(
        surface_integral(mesh, np.einsum("nj,nj->n", rigid_i, basis.tractions[j - 1]))
    )
    slip_i, slip_j = (
        tangential_part(evaluate_flow(basis.aux_fields[k - 1], mesh.nodes)[0] - e, mesh.normals)
        for k, e in ((i, rigid_i), (j, rigid_j))
    )
    slip_term = alpha * float(
        surface_integral(mesh, np.einsum("nj,nj->n", slip_i, slip_j))
    )
    rhs = volume + slip_term
    return _make_check(
        f"energy[{i},{j}]", lhs, rhs, _IDENTITY_TOL, scale=scale, tail_bound=abs(tail)
    )


@dataclass(frozen=True)
class ConvergenceRow:
    n_nodes: int
    k_value: float
    k_error: float
    symmetry_defect: float
    residual: float


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: tuple


def convergence_study(
    shape: str,
    alpha: float,
    resolutions,
    radius: float = 1.0,
    a_axis: float = 1.0,
    c_axis: float = 1.0,
    shrink: float = 0.7,
    svd_tol: float = 1e-12,
) -> ConvergenceStudy:
    """Resistance-diagonal refinement study over a list of mesh resolutions.

    Spheres are compared against the analytic slip-sphere values with
    b = 1/alpha; other shapes against Aitken extrapolation of the computed
    sequence.  Non-monotone error decay is reported through
    :func:`warnings.warn` (a ``UserWarning``), not raised.
    """
    resolutions = list(resolutions)
    if len(resolutions) < 3:
        raise ValueError("need at least three resolutions")
    k_vals, defects, residuals, sizes = [], [], [], []
    for res in resolutions:
        mesh = make_parametric_surface(
            shape, res, radius=radius, a_axis=a_axis, c_axis=c_axis
        )
        prob = SwimProblem(mesh, alpha, shrink=shrink, svd_tol=svd_tol)
        gm = prob.grand_matrix
        k_vals.append(float(np.mean(np.diag(gm.K))))
        defects.append(gm.symmetry_defect)
        residuals.append(prob.worst_residual())
        sizes.append(mesh.n_nodes)

    if shape == "sphere":
        k_ref, _ = analytic_sphere_resistance(radius, 1.0 / alpha)
    else:
        k_ref = _aitken(k_vals)

    rows = tuple(
        ConvergenceRow(
            n_nodes=sizes[m],
            k_value=k_vals[m],
            k_error=abs(k_vals[m] - k_ref) / abs(k_ref),
            symmetry_defect=defects[m],
            residual=residuals[m],
        )
        for m in range(len(resolutions))
    )
    for m in range(1, len(rows)):
        if rows[m].k_error > rows[m - 1].k_error and rows[m].k_error > 1e-12:
            warnings.warn(
                f"K error did not decrease from N={rows[m-1].n_nodes} to N={rows[m].n_nodes}",
                stacklevel=2,
            )
    return ConvergenceStudy(rows)


def _aitken(seq):
    a, b, c = seq[-3], seq[-2], seq[-1]
    denom = a - 2.0 * b + c
    if abs(denom) < 1e-14 * max(abs(a), abs(c), 1.0):
        return c
    return (a * c - b * b) / denom


def write_convergence_csv(study: ConvergenceStudy, path):
    """Write the study as CSV with columns N, value, error, defect, residual."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "value", "error", "defect", "residual"])
        for row in study.rows:
            writer.writerow(
                [
                    row.n_nodes,
                    repr(row.k_value),
                    repr(row.k_error),
                    repr(row.symmetry_defect),
                    repr(row.residual),
                ]
            )


def calibrate_slip_length(
    alphas=(0.5, 1.0, 2.0, 5.0), resolution: int = 20, shrink: float = 0.7
):
    """Fit the slip length from discrete unit-sphere resistances, one check per alpha.

    Inverting K = 6 pi (1 + 2b)/(1 + 3b) for the unit sphere gives
    b = (6 pi - K)/(3 K - 12 pi); each fitted b is compared against 1/alpha.
    This pins the operational identification between the slip coefficient
    of the boundary condition and the classical slip length.
    """
    mesh = make_parametric_surface("sphere", resolution)
    checks = []
    for alpha in alphas:
        gm = SwimProblem(mesh, alpha, shrink=shrink).grand_matrix
        k = float(np.mean(np.diag(gm.K)))
        b_fit = (6.0 * np.pi - k) / (3.0 * k - 12.0 * np.pi)
        checks.append(
            _make_check(
                f"slip-calibration[alpha={alpha:g}]",
                b_fit,
                1.0 / alpha,
                _CALIBRATION_TOL,
                scale=1.0 / alpha,
            )
        )
    return checks


def random_boundary_data(
    mesh: SurfaceMesh,
    rng: np.random.Generator,
    rigid_amplitude: float = 1.0,
    flux: float = 0.0,
) -> BoundaryData:
    """Random smooth boundary data for property tests.

    The smooth part is the trace of three random Stokeslets placed at 0.35
    times the node radius (well inside any star-shaped body), so
    the data is analytic on the surface and lies in the solver's rapidly
    convergent regime.  A random rigid trace and an optional uniform-flux
    component are added on top.
    """
    c = mesh.centroid
    picks = rng.choice(mesh.n_nodes, size=3, replace=False)
    locs = c + 0.35 * (mesh.nodes[picks] - c)
    dmin = float(
        np.min(np.linalg.norm(locs[:, None, :] - mesh.nodes[None, :, :], axis=2))
    )
    helper = FlowField(SourceSet(locs, dmin), rng.standard_normal((3, 3)))
    values, _ = evaluate_flow(helper, mesh.nodes)
    coeffs = rigid_amplitude * rng.standard_normal(6)
    for i in range(1, 7):
        values = values + coeffs[i - 1] * elementary_rigid_motion(i, mesh.nodes)
    data = boundary_data_from_field(mesh, values)
    if flux != 0.0:
        extra = uniform_flux_data(mesh, flux)
        data = BoundaryData(
            data.normal_data + extra.normal_data, data.tangential_data
        )
    return data
