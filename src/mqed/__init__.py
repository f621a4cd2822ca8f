"""Quantized electromagnetic fields in linear, anisotropic, spatially and
temporally dispersive magnetodielectric media.

The package maps coupling tensors to susceptibility kernels, solves the
Laplace-domain constitutive/Maxwell system through a 6x6 matrix inversion,
produces the mode-coefficient tensors of the field operators, and verifies
the scheme's consistency claims (fluctuation-dissipation, gauge freedom,
free-space limit, canonical commutators).
"""

# defined before the layer imports: `scenario` records it in each manifest
__version__ = "0.1.0"

from .conductor import conductor_modes, q_kernel_consistency
from .couplings import (
    CouplingModel,
    GaugeTransform,
    apply_gauge,
    coupling_from_target,
    drude,
    eval_coupling,
    gaussian_anisotropic,
    lorentz_isotropic,
    rotation_gauge,
    tabulated,
    tabulated_from_csv,
    zero_coupling,
)
from .modes import (
    LambdaMatrix,
    ModeCoefficients,
    assemble_lambda,
    invert_lambda,
    lambda_reality_scan,
    mode_coefficients,
)
from .noise import noise_commutator, noise_current_coefficient, pdot_continuity
from .observables import (
    FieldOperatorRepresentation,
    constitutive_roundtrip,
    equal_time_commutators,
    field_representation,
    maxwell_residual,
    vacuum_spectrum,
)
from .quadrature import QuadratureSpec
from .response import (
    LaplaceResponse,
    chi_kernel,
    chi_spectrum,
    conductor_Q,
    kk_check,
    laplace_response,
)
# scenario, and io through it, so that `import mqed` loads every pipeline layer
from .scenario import invert_chi, parse_scenario, run_scenario
from .tensors import (
    NATURAL,
    PhysicalConstants,
    PolarizationTriad,
    curl_symbol,
    hermitian_sqrt,
    transverse_projector,
    triad,
)
