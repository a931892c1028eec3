"""slipswim: boundary collocation for self-propelled bodies in slip-coupled Stokes flow."""

from .errors import (
    AccuracyWarning,
    BasisRankError,
    ConditioningWarning,
    ConfigError,
    GeometryError,
    MeshFormatError,
    PlacementError,
    SingularEvaluationError,
    SlipswimError,
    SolverError,
)
from .geometry import (
    RigidMotion,
    SurfaceMesh,
    elementary_rigid_motion,
    load_triangle_mesh,
    make_parametric_surface,
    surface_integral,
    tangential_part,
)
from .stokeslets import (
    FlowField,
    SourceSet,
    evaluate_flow,
    evaluate_strain,
    evaluate_traction,
    place_sources,
    point_source_velocity,
    stokeslet_stress,
    stokeslet_velocity,
    traction_matrix,
    velocity_matrix,
)
from .collocation import (
    BoundaryData,
    SlipSolver,
    SolveReport,
    rigid_trace_data,
    solve_lifting,
    squirmer_data,
    uniform_flux_data,
)
from .mobility import (
    GrandMatrix,
    ThrustBasis,
    Wrench,
    assemble_grand_matrix,
    compute_wrench,
    invert_grand_matrix,
    swim_velocity,
    thrust_projection,
    traction_basis,
)
from .selfprop import (
    NSCertificate,
    SelfPropSolution,
    SwimProblem,
    flux_and_carrier,
    h_half_norm,
    ns_certificate,
    solve_selfpropelled_stokes,
)
from .validation import (
    CheckResult,
    analytic_sphere_resistance,
    calibrate_slip_length,
    convergence_study,
    energy_identity_check,
    random_boundary_data,
    reciprocal_check,
    squirmer_oracle,
)

__version__ = "0.1.0"
