"""slipswim: boundary collocation for self-propelled bodies in slip-coupled Stokes flow.

The public names below are imported from their submodules on first use, so
``import slipswim`` (and ``import slipswim.cli``) loads no numpy: the CLI
can cap the BLAS thread pools before numpy first starts them.
"""

import importlib

_EXPORTS = {
    "errors": (
        "AccuracyWarning", "BasisRankError", "ConditioningWarning", "ConfigError",
        "GeometryError", "MeshFormatError", "PlacementError", "SingularEvaluationError",
        "SlipswimError", "SolverError",
    ),
    "geometry": (
        "SurfaceMesh", "elementary_rigid_motion", "load_triangle_mesh",
        "make_parametric_surface", "surface_integral", "tangential_part",
    ),
    "stokeslets": (
        "FlowField", "SourceSet", "evaluate_flow", "evaluate_strain", "place_sources",
        "point_source_velocity", "traction_matrix", "velocity_matrix",
    ),
    "collocation": (
        "BoundaryData", "SlipSolver", "SolveReport", "rigid_trace_data", "solve_lifting",
        "squirmer_data", "uniform_flux_data",
    ),
    "mobility": (
        "GrandMatrix", "ThrustBasis", "assemble_grand_matrix", "compute_wrench",
        "invert_grand_matrix", "swim_velocity", "thrust_projection", "traction_basis",
    ),
    "selfprop": (
        "NSCertificate", "SelfPropSolution", "SwimProblem", "flux_and_carrier",
        "h_half_norm", "ns_certificate",
    ),
    "validation": (
        "CheckResult", "analytic_sphere_resistance", "calibrate_slip_length",
        "convergence_study", "energy_identity_check", "random_boundary_data",
        "reciprocal_check", "squirmer_oracle",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
