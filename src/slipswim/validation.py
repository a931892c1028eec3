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
their own.  The rule's 32 uniform phi samples and sources on P phi rings
(``SourceSet.rings``, the source grid of a sphere or spheroid) share
the rotations about z by 2 pi / g, g = gcd(32, P), and the pairing is
invariant under them.  So the strain rows are built only for the 1/g of
the points with phi index below 32/g and applied, in one matrix product,
to the six auxiliary fields with their strengths rotated for each of the
g shifts; other inputs (strided or hand-built sources, odd P, P = 1) take
the same pass with g = 1.  The result for all six fields of a basis is
computed once per (shape, R_t) rule and shared across checks; it is held
in a weak-keyed memo and freed together with the fields.
"""

from __future__ import annotations

import csv
import math
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .geometry import (
    SurfaceMesh,
    _gauss_legendre,
    _semi_axes,
    _spheroid_grid,
    _uniform_phi,
    _z_rotations,
    elementary_rigid_motion,
    make_parametric_surface,
    surface_integral,
    tangential_part,
)
from .stokeslets import (
    _SYM_A,
    _SYM_B,
    FlowField,
    SourceSet,
    _sink_stress,
    _strain_product,
    evaluate_flow,
    # unused here: perfbench's traced run wraps this attribute by name
    evaluate_strain,  # noqa: F401
)
from .collocation import (
    BoundaryData,
    boundary_data_from_field,
    uniform_flux_data,
)
from .mobility import ThrustBasis
from .selfprop import SwimProblem

__all__ = [
    "CheckResult",
    "analytic_sphere_resistance",
    "analytic_spheroid_resistance",
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
# field -> {(shape_info, r_t): weighted orbit strain}; entries die with their field.
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


def analytic_spheroid_resistance(a_axis: float, c_axis: float):
    """No-slip translation resistances (K_xx, K_zz) of a prolate spheroid.

    Semi-axes (a, a, c), c >= a along z, eccentricity e = sqrt(1 - a^2/c^2)
    and L = ln((1 + e)/(1 - e)) (Chwang & Wu, J. Fluid Mech. 67, 1975):

        K_zz = 6 pi c (8/3) e^3 / (-2 e + (1 + e^2) L),
        K_xx = 6 pi c (16/3) e^3 / (2 e + (3 e^2 - 1) L).

    Both denominators are of order e^3, so below e = 1/2 they are summed as
    their series in e^2, which does not cancel; c = a gives the sphere's
    6 pi a.  The solver reaches these values as alpha -> infinity.
    """
    if a_axis <= 0 or c_axis < a_axis:
        raise ValueError("need semi-axes 0 < a <= c (a prolate spheroid)")
    e = math.sqrt(1.0 - (a_axis / c_axis) ** 2)
    if e < 0.5:
        # L = 2 atanh(e) = 2 sum e^(2k+1) / (2k+1): the denominators are
        # 2 e^3 sum_k e^(2k-2) (4k, resp. 4k+4) / (4k^2 - 1), k >= 1
        k = np.arange(1.0, 60.0)
        powers = e ** (2.0 * k - 2.0)
        s_zz = float(powers @ (4.0 * k / (4.0 * k * k - 1.0)))
        s_xx = float(powers @ ((4.0 * k + 4.0) / (4.0 * k * k - 1.0)))
        return 16.0 * np.pi * c_axis / s_xx, 8.0 * np.pi * c_axis / s_zz
    log = math.log1p(2.0 * e / (1.0 - e))
    k_zz = 6.0 * np.pi * c_axis * (8.0 / 3.0) * e**3 / (-2.0 * e + (1.0 + e * e) * log)
    k_xx = 6.0 * np.pi * c_axis * (16.0 / 3.0) * e**3 / (2.0 * e + (3.0 * e * e - 1.0) * log)
    return k_xx, k_zz


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
    a, c = _semi_axes(mesh.shape_info)
    if a == c:
        return np.full_like(t, a)
    s2 = 1.0 - t**2
    return 1.0 / np.sqrt(s2 / a**2 + t**2 / c**2)


def _volume_rule(mesh: SurfaceMesh, r_t: float):
    """Quadrature points/weights for the exterior region out to radius r_t."""
    t, wt = _gauss_legendre(_N_ANGULAR)
    w_phi = 2.0 * np.pi / _N_ANGULAR
    rho0 = _ray_radius(mesh, t)
    if np.any(rho0 >= r_t):
        raise GeometryError(f"truncation radius {r_t} does not enclose the body")

    # the unit directions on the polar grid, (n_t, n_phi, 3)
    dirs = _spheroid_grid(1.0, 1.0, t, _uniform_phi(_N_ANGULAR))[0].reshape(len(t), -1, 3)

    u, wu = _gauss_legendre(_N_RADIAL)
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


def _orbit_strains(fields, mesh: SurfaceMesh, r_t: float):
    """Weighted unique strain components of ``fields`` over the volume rule.

    The volume rule and the sources (on P = ``sources.rings`` phi rings)
    are both invariant under the rotations R_s about z by 2 pi s / g,
    g = gcd(32, P), so D_f(R_s x) = R_s D_f_s(x) R_s^T, where f_s has the
    strengths R_s^T q of the sources that R_s maps each source onto.  The
    strain is evaluated at the 1/g of the points with phi index below 32/g,
    for every field and shift in one product.  Returns one (M/g, 6, g)
    array per field, scaled by the square root of the volume weight and of
    each component's Frobenius multiplicity, so 2 int D_i : D_j is twice
    the dot product of two of them.
    """
    sources = fields[0].sources
    if any(f.sources is not sources for f in fields):
        raise ValueError("the auxiliary fields must share one source set")
    p = sources.rings
    g = math.gcd(_N_ANGULAR, p)
    pts, wvol = _volume_rule(mesh, r_t)
    ring0 = (slice(None), slice(_N_ANGULAR // g))
    pts = pts.reshape(_N_ANGULAR, _N_ANGULAR, -1, 3)[ring0].reshape(-1, 3)
    wvol = wvol.reshape(_N_ANGULAR, _N_ANGULAR, -1)[ring0].reshape(-1)
    rot = _z_rotations(g)
    # shift s moves source ring q onto ring q + s P / g
    q = np.array([f.strengths.reshape(-1, p, 3) for f in fields])
    cols = np.array([np.roll(q, -s * (p // g), axis=2) @ rot[s] for s in range(g)])
    cols = cols.reshape(g, len(fields), -1, 3).T.reshape(-1, len(fields) * g)
    comps = _strain_product(pts, sources.locations, cols).reshape(len(pts), 6, len(fields), g)
    for c, f in enumerate(fields):
        if f.source_flux != 0.0:
            # the sink at x0 seen from R_s x is the sink at R_s^T x0 seen from x
            for s in range(g):
                sink = _sink_stress(f.source_point @ rot[s], pts)
                comps[:, :, c, s] += 0.5 * f.source_flux * sink[:, _SYM_A, _SYM_B]
    mult = np.where(np.equal(_SYM_A, _SYM_B), 1.0, 2.0)
    comps *= np.sqrt(np.outer(wvol, mult))[:, :, None, None]
    return [np.ascontiguousarray(comps[:, :, c]) for c in range(len(fields))]


def _volume_term(i: int, j: int, basis: ThrustBasis, mesh: SurfaceMesh, r_t: float):
    """2 int D_i : D_j over the truncated exterior plus its tail, and the tail."""
    if not (1 <= i <= 6 and 1 <= j <= 6):
        raise ValueError("indices must lie in 1..6")
    fa, fb = basis.aux_fields[i - 1], basis.aux_fields[j - 1]
    key = (mesh.shape_info, r_t)
    if any(key not in _STRAINS.get(f, {}) for f in (fa, fb)):
        for f, comps in zip(basis.aux_fields, _orbit_strains(basis.aux_fields, mesh, r_t)):
            _STRAINS.setdefault(f, {})[key] = comps
    # closed-form leading tail of 2 int_{r > r_t} D_i : D_j dV
    tail = float(fa.total_strength @ fb.total_strength) / (4.0 * np.pi * r_t)
    pairing = 2.0 * float(np.vdot(_STRAINS[fa][key], _STRAINS[fb][key]))
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
    k_error_estimate: float


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
    sequence.  Each row also holds ``SwimProblem.k_error_estimate``
    (largest over the diagonal of K, where ``k_error`` is that of its
    mean), and a row past the CLI's limit is reported like any other.  A
    rise of the estimate (not of the error, which need not be monotone) is
    reported through :func:`warnings.warn` (a ``UserWarning``), not raised.
    """
    resolutions = list(resolutions)
    if len(resolutions) < 3:
        raise ValueError("need at least three resolutions")
    k_vals, defects, residuals, estimates, sizes = [], [], [], [], []
    for res in resolutions:
        mesh = make_parametric_surface(
            shape, res, radius=radius, a_axis=a_axis, c_axis=c_axis
        )
        prob = SwimProblem(mesh, alpha, shrink=shrink, svd_tol=svd_tol)
        gm = prob.grand_matrix
        k_vals.append(float(np.mean(np.diag(gm.K))))
        defects.append(gm.symmetry_defect)
        residuals.append(prob.worst_residual())
        estimates.append(prob.k_error_estimate)
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
            k_error_estimate=estimates[m],
        )
        for m in range(len(resolutions))
    )
    for prev, row in zip(rows, rows[1:]):
        if row.k_error_estimate > prev.k_error_estimate and row.k_error_estimate > 1e-12:
            warnings.warn(
                f"K error estimate did not decrease from N={prev.n_nodes} to N={row.n_nodes}",
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
    """Write the study as CSV with columns N, value, error, defect, residual, estimate."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "value", "error", "defect", "residual", "estimate"])
        for row in study.rows:
            writer.writerow(
                [
                    row.n_nodes,
                    repr(row.k_value),
                    repr(row.k_error),
                    repr(row.symmetry_defect),
                    repr(row.residual),
                    repr(row.k_error_estimate),
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
