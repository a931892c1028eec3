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

Each singularity has one batch kernel: the Stokeslet velocity and traction
rows behind ``velocity_matrix``/``traction_matrix`` and the sink stress.
The batch evaluators are chunked matrix-vector products over them, which
keeps results reproducible for a fixed thread count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningWarning, PlacementError, SingularEvaluationError
from .geometry import SurfaceMesh

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

_SINGULAR_DIST = 1e-12
_CHUNK = 512


def _displacements(points, sources):
    r = points[:, None, :] - sources[None, :, :]
    d = np.linalg.norm(r, axis=2)
    if d.min() < _SINGULAR_DIST:
        raise SingularEvaluationError("evaluation point coincides with a source")
    return r, d


def point_source_velocity(x0, points):
    """Velocity of the unit-flux potential sink at ``x0`` over an (M, 3) batch (pressure is zero)."""
    x0 = np.asarray(x0, dtype=float).reshape(3)
    r = np.asarray(points, dtype=float).reshape(-1, 3) - x0[None, :]
    d = np.linalg.norm(r, axis=1)
    if d.min() < _SINGULAR_DIST:
        raise SingularEvaluationError("evaluation point coincides with the point source")
    return -r / (4.0 * np.pi * d[:, None] ** 3)


def _sink_stress(x0, points) -> np.ndarray:
    """Stress of the unit-flux sink at ``x0`` over an (M, 3) batch: (M, 3, 3)."""
    r = points - x0[None, :]
    d = np.linalg.norm(r, axis=1)
    if d.min() < _SINGULAR_DIST:
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

    ``min_surface_distance`` is the smallest source-to-node distance; small
    values flag an ill-conditioned collocation matrix.
    """

    locations: np.ndarray
    min_surface_distance: float

    def __post_init__(self):
        locs = np.asarray(self.locations, dtype=float)
        if locs.ndim != 2 or locs.shape[1] != 3:
            raise ValueError("source locations must be (K, 3)")
        object.__setattr__(self, "locations", locs)
        locs.setflags(write=False)

    @property
    def count(self) -> int:
        return len(self.locations)


def _inside_body(mesh: SurfaceMesh, points):
    """Nearest-node half-space test for a (K, 3) batch of points.

    Returns (inside, offset): ``offset[k]`` is points[k] minus its nearest
    node, and the point counts as inside when that offset has a positive
    component along the node's normal (normals point into the body).  The
    nearest nodes are found a block of points at a time to bound the memory.
    """
    nearest = np.empty(len(points), dtype=np.intp)
    for lo in range(0, len(points), _CHUNK):
        dist = np.linalg.norm(points[lo : lo + _CHUNK, None, :] - mesh.nodes, axis=2)
        nearest[lo : lo + _CHUNK] = np.argmin(dist, axis=1)
    offset = points - mesh.nodes[nearest]
    return np.einsum("kj,kj->k", offset, mesh.normals[nearest]) > 0, offset


def place_sources(mesh: SurfaceMesh, shrink: float, stride: int = 1) -> SourceSet:
    """Place Stokeslet sources by shrinking the node cloud toward the centroid.

    Sources sit at centroid + shrink*(node - centroid) for every stride-th
    node, which stays inside any body star-shaped about its centroid; a
    local half-space test against the nearest surface node rejects sources
    that escape non-star-shaped geometries.

    Parameters
    ----------
    mesh : SurfaceMesh
    shrink : float in (0, 1)
        Contraction factor; on the unit sphere the sources land on the
        radius-``shrink`` sphere.
    stride : int >= 1
        Keep every stride-th node, so K = ceil(N/stride).
    """
    if not 0.0 < shrink < 1.0:
        raise PlacementError(f"shrink must lie in (0, 1), got {shrink}")
    if stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride}")
    c = mesh.centroid
    locs = c + shrink * (mesh.nodes[::stride] - c)
    inside, offset = _inside_body(mesh, locs)
    if not np.all(inside):
        raise PlacementError(
            "source placement escaped the body; the surface is not star-shaped "
            "about its centroid (try a smaller shrink)"
        )
    min_dist = float(np.linalg.norm(offset, axis=1).min())
    scale = np.sqrt(mesh.area / (4.0 * np.pi))
    if min_dist < 0.01 * scale:
        warnings.warn(
            f"minimum source-to-surface distance {min_dist:.3g} is below "
            f"{0.01 * scale:.3g}; expect severe ill-conditioning",
            ConditioningWarning,
            stacklevel=2,
        )
    return SourceSet(locs, min_dist)


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
    vel = np.empty_like(pts)
    prs = np.empty(len(pts))
    q = field.strengths
    for lo in range(0, len(pts), _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        r, d = _displacements(pts[sl], field.sources.locations)
        vel[sl] = (_velocity_rows(r, d) @ q.ravel()).reshape(-1, 3)
        prs[sl] = np.sum(np.einsum("mkj,kj->mk", r, q) / d**3, axis=1) / (4.0 * np.pi)
    if field.source_flux != 0.0:
        vel += field.source_flux * point_source_velocity(field.source_point, pts)
    if single:
        return vel[0], float(prs[0])
    return vel, prs


def evaluate_strain(field: FlowField, points) -> np.ndarray:
    """Strain tensor D(v) of ``field`` at an (M, 3) batch of points."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    out = np.zeros((len(pts), 3, 3))
    q = field.strengths
    eye = np.eye(3)
    for lo in range(0, len(pts), _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        r, d = _displacements(pts[sl], field.sources.locations)
        rhat = r / d[..., None]
        f = np.einsum("mkj,kj->mk", rhat, q) / d**2
        out[sl] = (
            np.sum(f, axis=1)[:, None, None] * eye[None]
            - 3.0 * np.einsum("mk,mka,mkb->mab", f, rhat, rhat)
        ) / (8.0 * np.pi)
    if field.source_flux != 0.0:
        # potential flow: the strain is half the sink stress
        out += 0.5 * field.source_flux * _sink_stress(field.source_point, pts)
    return out


def _velocity_rows(r, d) -> np.ndarray:
    """(3M, 3K) velocity rows from (M, K, 3) displacements and (M, K) distances."""
    blk = (
        np.eye(3)[None, None] / d[..., None, None]
        + r[..., :, None] * r[..., None, :] / d[..., None, None] ** 3
    ) / (8.0 * np.pi)
    m, k = d.shape
    return blk.transpose(0, 2, 1, 3).reshape(3 * m, 3 * k)


def velocity_matrix(points, sources: SourceSet) -> np.ndarray:
    """Dense (3M, 3K) map from stacked strengths to stacked velocities.

    Row block m holds the three velocity components at points[m]; column
    block k the three strength components of source k.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    out = np.empty((3 * len(pts), 3 * sources.count))
    for lo in range(0, len(pts), _CHUNK):
        r, d = _displacements(pts[lo : lo + _CHUNK], sources.locations)
        out[3 * lo : 3 * lo + 3 * len(d)] = _velocity_rows(r, d)
    return out


def traction_matrix(points, normals, sources: SourceSet) -> np.ndarray:
    """Dense (3M, 3K) map from stacked strengths to stacked tractions T n."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    nrm = np.asarray(normals, dtype=float).reshape(-1, 3)
    m3, k3 = 3 * len(pts), 3 * sources.count
    out = np.empty((m3, k3))
    for lo in range(0, len(pts), _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        r, d = _displacements(pts[sl], sources.locations)
        rhat = r / d[..., None]
        rn = np.einsum("mkj,mj->mk", rhat, nrm[sl])
        blk = (
            -(3.0 / (4.0 * np.pi))
            * (rn / d**2)[..., None, None]
            * rhat[..., :, None]
            * rhat[..., None, :]
        )
        nm = blk.shape[0]
        out[3 * lo : 3 * lo + 3 * nm] = blk.transpose(0, 2, 1, 3).reshape(3 * nm, k3)
    return out
