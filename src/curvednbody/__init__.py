"""Fixed points and rotating rings of the curved three-body problem on the sphere."""

from .errors import (
    CurvedNBodyError,
    DegenerateBasis,
    DegenerateShape,
    DegenerateSpectrum,
    InconsistentPair,
    InputError,
    InvalidConfiguration,
    IOFailure,
    NoConvergence,
    NoGrowthWindow,
    NonpositiveMass,
    NotAdmissible,
    NotAFixedPoint,
    NumericalFailure,
    PolarSingularity,
    SingularConfiguration,
    StepFailure,
)
from .geometry import (
    MassVector,
    RingConfiguration,
    SphereConfiguration,
    force_function,
    force_gradient,
    force_hessian_blocks,
    geodesic_distance,
    to_cartesian,
)
from .fixedpoints import (
    AdmissibleMassTriple,
    TriangleShape,
    admissibility_value,
    as_mass_triple,
    fixed_point_residual,
    is_admissible,
    isosceles_bound_check,
    masses_from_shape,
    ring_from_shape,
    shape_from_masses,
    shape_mass_defect,
    solve_fixed_point_numeric,
)
from .reduction import (
    JacobiConstants,
    LyapunovCertificate,
    ReducedState,
    hessian_alpha_beta,
    integrate_reduced,
    lyapunov_certificate,
    reduced_force_function,
    reduced_hamiltonian,
    rest_point_from_shape,
    to_jacobi,
)
from .stability import (
    LinearizationBlocks,
    StabilityReport,
    assemble_L_from_blocks,
    assemble_L_general,
    assemble_blocks,
    classify,
    invariant_subspaces,
    lambda1_closed_form,
    null_structure_check,
    omega_critical,
    spectral_analysis,
)
from .dynamics import (
    GrowthFit,
    PhaseState,
    TrajectoryRecord,
    growth_rate_experiment,
    hamiltonian,
    integrate,
    make_field,
    relative_equilibrium,
)

__version__ = "0.1.0"
