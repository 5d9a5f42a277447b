"""Linear differential-algebraic equations d/dt Ex(t) = Ax(t) + f(t).

Pseudo-resolvent calculus for matrix pencils, every left or right
pseudo-resolvent taken from one certified inverse of lam E - A: Wong-type
subspace chains, staircase decoupling, resolvent-growth index estimates and
dissipativity certificates, degenerate semigroups on the regular subspace,
and decoupled solves with exact or sampled forcing derivatives, with
reference discretizations of a coupled heat/wave system and an RLC
transmission line.
"""

from .chains import (
    RestrictedGenerator,
    StaircaseForm,
    SubspaceChain,
    build_chain,
    build_staircase,
    check_decomposition,
    restricted_generator,
    staircase_from_chain,
    y_impli_check,
)
from .exceptions import (
    AdaeError,
    ChainNotStabilized,
    ChainStalled,
    GridTooCoarse,
    InsufficientSmoothness,
    NotInResolventSet,
    NotInjectiveOnVk,
    PatternViolation,
    SingularPencil,
    StepSingular,
)
from .forcing import ForcingSignal, PolynomialForcing, SampledForcing
from .growth import (
    GrowthCertificate,
    LambdaGrid,
    TractabilityChain,
    certify_D1,
    certify_D1_from,
    certify_D2,
    check_Dk,
    check_left_dissipativity,
    estimate_G_index,
    estimate_R_index,
    index_comparison_report,
    tractability_chain,
)
from .io import (
    pencil_from_dict,
    pencil_to_dict,
    read_pencil_json,
    read_trajectory_csv,
    write_pencil_json,
    write_trajectory_csv,
)
from .models import (
    HeatWaveConfig,
    RLCConfig,
    RLCModel,
    WeierstrassSpec,
    heat_wave_pencil,
    rlc_pencil,
    weierstrass_pencil,
)
from .numerics import (
    DEFAULT_POLICY,
    Subspace,
    TolerancePolicy,
    inclusion_distance,
    null_basis,
    qz_canonical,
    range_basis,
    subspace_distance,
    subspace_intersection,
)
from .pencil import (
    MatrixPencil,
    pseudo_resolvent,
    pseudo_resolvent_residual,
)
from .semigroup import (
    degenerate_semigroup,
    laplace_consistency,
)
from .solver import (
    SolveReport,
    implicit_euler_reference,
    residuals,
    solve_decoupled,
    solve_homogeneous,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
