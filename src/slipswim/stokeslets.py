"""Free-space Stokes singularities and interior source management.

The exterior solution is represented as a superposition of point forces
(Stokeslets) placed strictly inside the body, optionally augmented by one
potential point source that carries net boundary flux.  Decay at infinity
is then automatic and velocity, pressure, stress and strain are all
analytic expressions; unit viscosity is assumed throughout, consistent
with the stress T(v, p) = -p I + 2 D(v).

Kernels (r = x - y, d = |r|, rhat = r/d):

    velocity   (1/8 pi) (strength/d + rhat (rhat . strength)/d)
    pressure   (1/4 pi) (rhat . strength)/d^2
    stress     -(3/4 pi) rhat rhat (rhat . strength)/d^2
    strain     (1/8 pi) (rhat . strength) (I - 3 rhat rhat)/d^2

The point source is the sink -r/(4 pi d^3); through any enclosing surface
whose normals point back toward the source (the package convention of
normals oriented out of the fluid) its flux is +1.  Its pressure vanishes
and its stress is pure strain, -(1/2 pi)(I - 3 rhat rhat)/d^3.

Each singularity has one batch kernel:

* the Stokeslet row kernel: from one pass over the displacements (rhat
  and 1/d, no d^3, so the rows stay finite on tiny bodies) it writes the
  velocity and the traction rows seen along a frame e_a per point,
  e_a . G and e_a . (T n).  ``velocity_matrix``, ``traction_matrix`` and
  ``evaluate_flow`` use the x, y, z frame; ``SlipSolver`` uses each
  node's frame (n, t1, t2), which gives its slip rows directly;
* the Stokeslet strain rows (the six unique components of D), behind
  ``evaluate_strain`` and the volume pass of the identity checks in
  ``validation``, which applies them to many strength columns at once;
* the sink stress, which also gives the sink's traction and strain.

Every pass over points, here and in ``selfprop``'s H^{1/2} norm, takes
them in blocks under one rule (:func:`_blocks`): each block's temporaries
are about ``_ROW_BYTES``, however many points there are.  The batch
evaluators are one row product (:func:`_row_product`), which keeps
results reproducible for a fixed thread count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningWarning, PlacementError, SingularEvaluationError
from .geometry import (
    SurfaceMesh,
    _gauss_legendre,
    _length_scale,
    _semi_axes,
    _spheroid_grid,
    _uniform_phi,
)

__all__ = [
    "SourceSet",
    "FlowField",
    "point_source_velocity",
    "place_sources",
    "evaluate_flow",
    "evaluate_strain",
    "point_source_traction",
    "velocity_matrix",
    "traction_matrix",
]

# Source rings per node ring in theta on a sphere or spheroid: three nodes
# to every two sources along a meridian, an oversampled least-squares fit.
_SOURCE_RING_RATIO = 2.0 / 3.0
# Every second node of any other mesh carries a source: K < N, as the fit needs.
_DEFAULT_STRIDE = 2
# A distance below this share of the largest coordinate of its two ends is rounding.
_SINGULAR_REL = 1e-12
# Bytes of one block's temporaries in every pass over points; small enough to stay in cache.
_ROW_BYTES = 2 * 2**20
# Index pairs (a, b) of the six unique components of a symmetric 3x3 tensor.
_SYM_A = (0, 1, 2, 0, 0, 1)
_SYM_B = (0, 1, 2, 1, 2, 2)


def _coincide(d, points, locations) -> bool:
    """Whether some point's distances ``d`` (M, K) or (M,) to the locations are rounding."""
    loc = np.max(np.abs(locations))
    if d.min() > _SINGULAR_REL * max(np.max(np.abs(points)), loc):
        return False  # far from rounding even on the batch's largest scale
    scale = np.maximum(np.abs(points).max(axis=1), loc)
    return bool(np.any(d.reshape(len(points), -1).min(axis=1) <= _SINGULAR_REL * scale))


def _blocks(n: int, item_bytes: int):
    """Slices of range(n), each about ``_ROW_BYTES`` of items of ``item_bytes`` (one at least)."""
    step = max(1, _ROW_BYTES // item_bytes)
    for lo in range(0, n, step):
        yield slice(lo, min(lo + step, n))


def point_source_velocity(x0, points):
    """Velocity of the unit-flux potential sink at ``x0`` over an (M, 3) batch (pressure is zero)."""
    x0 = np.asarray(x0, dtype=float).reshape(3)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    r = pts - x0[None, :]
    d = np.linalg.norm(r, axis=1)
    if _coincide(d, pts, x0):
        raise SingularEvaluationError("evaluation point coincides with the point source")
    return -r / (4.0 * np.pi * d[:, None] ** 3)


def _sink_stress(x0, points) -> np.ndarray:
    """Stress of the unit-flux sink at ``x0`` over an (M, 3) batch: (M, 3, 3)."""
    r = points - x0[None, :]
    d = np.linalg.norm(r, axis=1)
    if _coincide(d, points, x0):
        raise SingularEvaluationError("evaluation point coincides with the point source")
    rhat = r / d[:, None]
    return -(np.eye(3)[None] - 3.0 * np.einsum("ma,mb->mab", rhat, rhat)) / (
        2.0 * np.pi * d[:, None, None] ** 3
    )


def point_source_traction(x0, points, normals):
    """Traction T n of the unit-flux sink at an (M, 3) batch of surface points."""
    x0 = np.asarray(x0, dtype=float).reshape(3)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    nrm = np.asarray(normals, dtype=float).reshape(-1, 3)
    return np.einsum("mab,mb->ma", _sink_stress(x0, pts), nrm)


@dataclass(frozen=True)
class SourceSet:
    """Interior Stokeslet locations paired with a surface mesh.

    ``min_surface_distance`` is the smallest source-to-surface distance;
    small values flag an ill-conditioned collocation matrix.  On a sphere
    or spheroid grid it is the depth wherever that is exact, else, as on
    every other mesh, the smallest source-to-node distance.

    ``rings`` is the number of phi rings the sources follow, as
    ``SurfaceMesh.rings`` is for nodes: source ring q (every P-th source
    from q) is ring 0 rotated about z by 2 pi q / P, and ring 0 is
    symmetric under y -> -y and, with entry j onto entry n_t - 1 - j,
    under z -> -z.  Only :func:`place_sources` sets it; hand-built sets
    have 1 and take the dense route.  Non-finite locations are rejected.
    """

    locations: np.ndarray
    min_surface_distance: float
    rings: int = field(default=1, init=False)

    def __post_init__(self):
        locs = np.asarray(self.locations, dtype=float)
        if locs.ndim != 2 or locs.shape[1] != 3:
            raise ValueError("source locations must be (K, 3)")
        if not np.all(np.isfinite(locs)):
            raise ValueError("source locations must be finite")
        object.__setattr__(self, "locations", locs)
        locs.setflags(write=False)

    @property
    def count(self) -> int:
        return len(self.locations)


def _nearest_nodes(mesh: SurfaceMesh, points) -> np.ndarray:
    """Index of the nearest node of each of a (K, 3) batch of points, a block at a time."""
    nearest = np.empty(len(points), dtype=np.intp)
    for sl in _blocks(len(points), 3 * 8 * mesh.n_nodes):
        nearest[sl] = np.argmin(np.linalg.norm(points[sl, None, :] - mesh.nodes, axis=2), axis=1)
    return nearest


def _inside_body(mesh: SurfaceMesh, points):
    """Nearest-node half-space test for a (K, 3) batch of points.

    Returns (inside, offset): ``offset[k]`` is points[k] minus its nearest
    node, and the point counts as inside when that offset has a positive
    component along the node's normal (normals point into the body).
    """
    nearest = _nearest_nodes(mesh, points)
    offset = points - mesh.nodes[nearest]
    return np.einsum("kj,kj->k", offset, mesh.normals[nearest]) > 0, offset


def place_sources(mesh: SurfaceMesh, shrink: float, stride: int | None = None) -> SourceSet:
    """Place the Stokeslet sources of a mesh.

    A sphere or spheroid mesh (one with ``rings`` P > 1) gets a grid of its
    own, oversampled against the nodes as in Barnett & Betcke (J. Comput.
    Phys. 227, 2008): n_t = round(2T/3) Gauss-Legendre rings in cos(theta)
    for the mesh's T, times its P phi samples, ordered theta-major like the
    nodes, each source at depth (1 - shrink) times the smallest semi-axis
    along the inward normal.  The set records the P rings, and source j of
    ring 0 mirrors source n_t - 1 - j under z -> -z.  Placement is
    analytic: every source must pass the ellipsoid's inside test, and the
    minimum surface distance is the depth wherever the depth is below the
    smallest radius of curvature, min(a^2/c, c^2/a), where each source's
    nearest surface point is its foot; elsewhere it is the nearest-node
    distance of the ring-0 sources (every ring is ring 0 rotated, and so
    are the nodes).

    Every other mesh shrinks its node cloud toward the centroid: sources
    sit at centroid + shrink*(node - centroid) for every stride-th node,
    which stays inside any body star-shaped about its centroid, and a
    local half-space test against the nearest surface node rejects
    sources that escape non-star-shaped geometries.  Such sets have one
    ring.

    Parameters
    ----------
    mesh : SurfaceMesh
    shrink : float in (0, 1)
        Source depth; on a sphere the sources land on the sphere of
        radius shrink times its radius.
    stride : int >= 1, optional
        Keep every stride-th node, so K = ceil(N/stride); by default 2, as
        ``SlipSolver`` needs K < N.  On meshes without rings only (a sphere
        or spheroid raises ValueError for stride > 1).
    """
    if not 0.0 < shrink < 1.0:
        raise PlacementError(f"shrink must lie in (0, 1), got {shrink}")
    if stride is not None and stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride}")
    if mesh.rings > 1:
        if stride not in (None, 1):
            raise ValueError(
                f"stride applies to triangle meshes only; a sphere or spheroid places its "
                f"sources on a grid (got stride {stride})"
            )
        locs, min_dist = _grid_sources(mesh, shrink)
    else:
        c = mesh.centroid
        locs = c + shrink * (mesh.nodes[:: stride or _DEFAULT_STRIDE] - c)
        inside, offset = _inside_body(mesh, locs)
        if not np.all(inside):
            raise PlacementError(
                "source placement escaped the body; the surface is not star-shaped "
                "about its centroid (try a smaller shrink)"
            )
        min_dist = float(np.linalg.norm(offset, axis=1).min())
    scale = _length_scale(mesh)
    if min_dist < 0.01 * scale:
        warnings.warn(
            f"minimum source-to-surface distance {min_dist:.3g} is below "
            f"{0.01 * scale:.3g}; expect severe ill-conditioning",
            ConditioningWarning,
            stacklevel=2,
        )
    sources = SourceSet(locs, min_dist)
    object.__setattr__(sources, "rings", mesh.rings)
    return sources


def _grid_sources(mesh: SurfaceMesh, shrink: float):
    """A sphere's or spheroid's source grid (see :func:`place_sources`) and its distance."""
    a, c = _semi_axes(mesh.shape_info)
    p = mesh.rings
    n_t = round(_SOURCE_RING_RATIO * (mesh.n_nodes // p))
    depth = (1.0 - shrink) * min(a, c)
    points, normals = _spheroid_grid(a, c, _gauss_legendre(n_t)[0], _uniform_phi(p))
    locs = points + depth * normals
    level = (locs[:, 0] / a) ** 2 + (locs[:, 1] / a) ** 2 + (locs[:, 2] / c) ** 2
    if not np.all(level < 1.0):
        raise PlacementError(
            f"{np.count_nonzero(level >= 1.0)} sources of the grid lie outside the body "
            "(try a larger shrink)"
        )
    if depth < min(a * (a / c), c * (c / a)):
        return locs, depth
    ring0 = locs[::p]
    offset = ring0 - mesh.nodes[_nearest_nodes(mesh, ring0)]
    return locs, float(np.linalg.norm(offset, axis=1).min())


@dataclass(frozen=True, eq=False)
class FlowField:
    """Exterior Stokes solution: Stokeslet strengths plus an optional flux source.

    ``source_flux`` is the strength multiplying the unit-flux sink kernel at
    ``source_point``; solvers rescale it so the *discrete* flux through the
    collocation mesh matches the prescribed boundary flux exactly.  Fields
    compare and hash by identity, so per-field results can be memoized.
    """

    sources: SourceSet
    strengths: np.ndarray
    source_flux: float = 0.0
    source_point: np.ndarray | None = None

    def __post_init__(self):
        q = np.asarray(self.strengths, dtype=float)
        if q.shape != (self.sources.count, 3):
            raise ValueError(
                f"strengths must be ({self.sources.count}, 3), got {q.shape}"
            )
        object.__setattr__(self, "strengths", q)
        q.setflags(write=False)
        if self.source_flux != 0.0:
            if self.source_point is None:
                raise ValueError("nonzero source_flux requires a source_point")
            object.__setattr__(
                self, "source_point", np.asarray(self.source_point, dtype=float).reshape(3)
            )

    @property
    def total_strength(self) -> np.ndarray:
        """Sum of Stokeslet strengths: the net momentum input of the field."""
        return self.strengths.sum(axis=0)


def evaluate_flow(field: FlowField, points):
    """Velocity and pressure of ``field`` at one point or an (M, 3) batch."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = pts.reshape(-1, 3)
    flow = _row_product(pts, field.sources.locations, field.strengths[None], 4, _flow_rows)
    vel, prs = flow[:, :3, 0], flow[:, 3, 0]
    if field.source_flux != 0.0:
        vel += field.source_flux * point_source_velocity(field.source_point, pts)
    if single:
        return vel[0], float(prs[0])
    return vel, prs


def _flow_rows(sl, rhat, inv, out):
    """The x, y, z velocity rows and the pressure row (out[:, 3]) of :func:`evaluate_flow`."""
    _rows_along(rhat, inv, _xyz_frames(len(inv)), vel=out[:, :3])
    np.multiply(rhat, (inv * inv * (1.0 / (4.0 * np.pi)))[:, None], out=out[:, 3])


def evaluate_strain(field: FlowField, points) -> np.ndarray:
    """Strain tensor D(v) of ``field`` at an (M, 3) batch of points."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    comps = _strain_product(pts, field.sources.locations, field.strengths[None])
    out = np.empty((len(pts), 3, 3))
    out[:, _SYM_A, _SYM_B] = out[:, _SYM_B, _SYM_A] = comps[..., 0]
    if field.source_flux != 0.0:
        # potential flow: the strain is half the sink stress
        out += 0.5 * field.source_flux * _sink_stress(field.source_point, pts)
    return out


def _strain_rows(sl, rhat, inv, out):
    """The six strain rows per point, in the order (_SYM_A, _SYM_B), written into ``out``.

    Each entry (delta_ab - 3 rhat_a rhat_b) rhat_c / (8 pi d^2) is written as
    (rhat_a rhat_b - delta_ab / 3) times -3 rhat_c / (8 pi d^2), in ``rhat`` and ``inv``.
    """
    dyad = np.empty((len(rhat), 6, rhat.shape[2]))
    np.multiply(rhat, rhat, out=dyad[:, :3])
    dyad[:, :3] -= 1.0 / 3.0
    np.multiply(rhat[:, :1], rhat[:, 1:], out=dyad[:, 3:5])
    np.multiply(rhat[:, 1], rhat[:, 2], out=dyad[:, 5])
    inv *= inv * (-3.0 / (8.0 * np.pi))
    rhat *= inv[:, None]
    np.multiply(dyad[:, :, None], rhat[:, None], out=out)


def _strain_product(points, locations, strengths) -> np.ndarray:
    """Unique strain components (M, 6, C) of C sets of strengths (C, K, 3): :func:`_row_product`."""
    return _row_product(points, locations, strengths, 6, _strain_rows)


def _traction_product(points, normals, locations, strengths) -> np.ndarray:
    """Tractions T n (M, 3, C) of strengths (C, K, 3) at (M, 3) points with (M, 3) normals."""

    def rows(sl, rhat, inv, out):
        _rows_along(rhat, inv, _xyz_frames(len(inv)), normals[sl], trac=out)

    return _row_product(points, locations, strengths, 3, rows)


def _row_product(points, locations, strengths, a, rows) -> np.ndarray:
    """(M, A, C): A kernel rows per point of (M, 3) points applied to C sets of strengths.

    ``strengths`` (C, K, 3) on the (K, 3) ``locations`` become the kernel's
    columns (3K, C) here, once, component-major: entry c K + k for strength
    component c of source k.  Per block of points (:func:`_blocks`),
    ``rows(sl, rhat, inv, out)`` writes the rows of the points ``sl`` into
    ``out``, (m, A, 3, K), from :func:`_unit_displacements`, and one
    product applies them to all columns.
    """
    m, k = len(points), len(locations)
    columns = strengths.transpose(2, 1, 0).reshape(3 * k, -1)
    out = np.empty((m, a, columns.shape[1]))
    buf = None
    for sl in _blocks(m, a * 3 * 8 * k):
        rhat, inv = _unit_displacements(points[sl], locations)
        if buf is None:  # the first block is the largest
            buf = np.empty((len(inv), a, 3, k))
        block = buf[: len(inv)]
        rows(sl, rhat, inv, block)
        out[sl] = (block.reshape(a * len(inv), -1) @ columns).reshape(len(inv), a, -1)
    return out


def _unit_displacements(points, locations):
    """rhat (M, 3, K) and 1/d (M, K) of (M, 3) points against (K, 3) locations.

    This is the one displacement pass of the Stokeslet and strain rows.
    Nothing smaller than 1/d^2 is formed from it, so the rows stay finite
    down to d ~ 1e-150.
    """
    r = points[:, :, None] - locations.T
    d = np.sqrt(np.einsum("mck,mck->mk", r, r))
    if _coincide(d, points, locations):
        raise SingularEvaluationError("evaluation point coincides with a source")
    inv = np.divide(1.0, d, out=d)
    r *= inv[:, None]
    return r, inv


def _rows_along(rhat, inv, frames, normals=None, vel=None, trac=None):
    """Stokeslet velocity and traction rows along per-point frames, written into ``vel``/``trac``.

    ``frames`` (M, A, 3) holds A vectors e_a per point, ``normals`` (M, 3)
    the traction normals.  Both outputs are (M, A, 3, K): row (m, a),
    column c K + k for strength component c of source k, as in
    :func:`_row_product`.  The entries are

        vel    e_a . G e_c    = ((e_a)_c + (rhat . e_a) rhat_c) / (8 pi d)
        trac   e_a . T_c n    = -(3/4 pi) (rhat . n)(rhat . e_a) rhat_c / d^2

    Either output may be None.
    """
    re = frames @ rhat
    if vel is not None:
        np.multiply(re[:, :, None], rhat[:, None], out=vel)
        vel += frames[..., None]
        vel *= (inv * (1.0 / (8.0 * np.pi)))[:, None, None]
    if trac is not None:
        rn = (normals[:, None] @ rhat)[:, 0]
        re *= (rn * inv * inv * (-3.0 / (4.0 * np.pi)))[:, None]
        np.multiply(re[:, :, None], rhat[:, None], out=trac)


def _frame_rows(points, frames, locations, normals=None, vel=None, trac=None):
    """:func:`_rows_along` over (M, 3) points, a block (:func:`_blocks`) at a time."""
    for sl in _blocks(len(points), frames.shape[1] * 3 * 8 * len(locations)):
        rhat, inv = _unit_displacements(points[sl], locations)
        _rows_along(
            rhat, inv, frames[sl], None if normals is None else normals[sl],
            None if vel is None else vel[sl], None if trac is None else trac[sl],
        )


def _xyz_frames(m):
    """The x, y, z frame at each of m points, (m, 3, 3), as a read-only view."""
    return np.broadcast_to(np.eye(3), (m, 3, 3))


def _source_major(rows) -> np.ndarray:
    """(M, 3, 3, K) component-major rows to the (3M, 3K) matrix with column 3k + c."""
    m, k = len(rows), rows.shape[3]
    return rows.swapaxes(2, 3).reshape(3 * m, 3 * k)


def velocity_matrix(points, sources: SourceSet) -> np.ndarray:
    """Dense (3M, 3K) map from stacked strengths to stacked velocities.

    Row block m holds the three velocity components at points[m]; column
    block k the three strength components of source k.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    out = np.empty((len(pts), 3, 3, sources.count))
    _frame_rows(pts, _xyz_frames(len(pts)), sources.locations, vel=out)
    return _source_major(out)


def traction_matrix(points, normals, sources: SourceSet) -> np.ndarray:
    """Dense (3M, 3K) map from stacked strengths to stacked tractions T n."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    nrm = np.asarray(normals, dtype=float).reshape(-1, 3)
    out = np.empty((len(pts), 3, 3, sources.count))
    _frame_rows(pts, _xyz_frames(len(pts)), sources.locations, normals=nrm, trac=out)
    return _source_major(out)
