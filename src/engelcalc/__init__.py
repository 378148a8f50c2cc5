"""Exterior calculus and Engel/contact structure tools on product charts."""

__version__ = "0.1.0"

from .expr import (
    ScalarExpr,
    Constant,
    NamedConstant,
    Variable,
    parse_scalar_expr,
    partial_derivative,
    evaluate,
    evaluate_many,
    simplify,
    substitute,
    free_variables,
    to_text,
)
from .charts import (
    Chart,
    CoordinateAxis,
    SamplePlan,
    VectorField,
    KForm,
    sample_points,
    lie_bracket,
    fd_lie_bracket,
    exterior_derivative,
    wedge,
    interior_product,
    lie_derivative_form,
    coordinate_field,
    volume_form,
    product_chart,
    base_chart_of,
)
from .structures import (
    Distribution2,
    EngelPair,
    VerificationReport,
    Tolerances,
    check_contact_3d,
    check_even_contact,
    check_engel_pair,
    check_engel_frame,
    annihilator_1form,
    characteristic_vector_field,
    check_characteristic,
)
from .prolongation import (
    ContactFrame,
    prolong,
    deprolong,
    development_profile,
)
from .invariants import (
    LegendrianLineField,
    twisting_number,
    minimal_twisting_number,
    induced_legendrian_line,
    line_angle_distance,
    BoundaryConventionWarning,
)
from .extension import (
    ExtensionSpec,
    extend,
    verify_extension_identities,
    extend_family,
)

__all__ = [name for name in dir() if not name.startswith("_")]
