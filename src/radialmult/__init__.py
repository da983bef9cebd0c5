"""Radial symmetrization of Fourier multiplier operators on periodic grids.

The package discretizes R^n as a torus [-L/2, L/2)^n with N points per
axis, represents multiplier operators M_phi = F^-1 (phi . ) F on that
grid, and computes the rotation average of a symbol over SO(n) two
independent ways (sphere quadrature and rotation quadrature).  Operator
norm estimators and a positivity check let every structural property of
the averaging map be certified numerically: idempotence, radiality,
fixed points, norm contractivity and positivity preservation.
"""

from .grid import FrequencyGrid, GridFunction, make_grid, transform, lp_norm
from .symbols import (
    Symbol,
    NamedSymbol,
    SampledSymbol,
    RadialSymbol,
    RadialProfile,
    make_named_symbol,
    eval_symbol,
    sample_symbol,
    parse_symbol_spec,
)
from .rotation import (
    Rotation,
    RotationQuadrature,
    SphereQuadrature,
    haar_rotation,
    so_quadrature,
    sphere_quadrature,
    rotated_symbol,
    c4_rotations,
    octahedral_rotations,
)
from .radialize import spherical_mean, project, project_mc, radial_deviation, default_radii
from .multiplier import (
    MultiplierOperator,
    apply,
    apply_vector,
    rotate_function,
    conjugated_apply,
    average_conjugated,
    kernel,
    positivity_report,
    PositivityReport,
)
from .norms import (
    NormEstimate,
    norm_p2_exact,
    norm_lower_power,
    norm_upper_kernel,
    contraction_report,
    ContractionReport,
)

__version__ = "0.1.0"
