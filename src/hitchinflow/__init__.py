"""Numerical stable-form toolkit and Hitchin flow integrator.

The package is organized in layers:

* :mod:`hitchinflow.forms` -- dense exterior algebra on R^n (n <= 8):
  wedge, interior product, pullback, metric pairing, Hodge star, in
  float or exact-rational coefficients.
* :mod:`hitchinflow.stable` -- stable 2-/3-forms on R^6: the quartic
  invariant, associated (para-)complex structure and metric, structure
  classification, theta deformations, and the quadratic inverses used
  by the flow.
* :mod:`hitchinflow.g2spin7` -- G2/G2* structures on R^7 and
  Spin(7)/Spin0(3,4) structures on R^8, with associated metrics,
  volumes, dual 4-forms and the line-bundle split assembly.
* :mod:`hitchinflow.homogeneous` -- Chevalley-Eilenberg calculus on
  reductive homogeneous spaces (structure constants, invariant form
  bases, d, Lie derivatives, the fiber projection).
* :mod:`hitchinflow.ode` -- rk4 and Dormand-Prince rk45 with a
  continuous extension, on any y' = f(t, y); no geometry.
* :mod:`hitchinflow.flow` -- the invariant Hitchin flow: the generic
  cocalibrated evolution and the degenerate line-bundle system with its
  singular startup and monitors, advanced by :mod:`hitchinflow.ode`.
* :mod:`hitchinflow.verify` -- the exact-rational model identity suite.
* :mod:`hitchinflow.cli` -- the scenario runner.
"""

from .forms import (
    KForm,
    SymBilinear,
    embed,
    form_pairing,
    hodge,
    interior,
    pullback,
    restrict,
    volume_form,
    wedge,
)
from .stable import (
    StructureClass,
    assoc_J,
    assoc_metric,
    classify_pair,
    iota,
    k_endomorphism,
    lambda_invariant,
    model_pair,
    solve_wedge_omega,
    theta_deform,
)
from .g2spin7 import (
    EightClass,
    SevenClass,
    assoc_4form,
    build_Phi,
    build_phi,
    bundle_Phi,
    metric_vol_from_phi,
    model_phi,
    model_seven,
    seven_structure,
    solve_dstar,
)
from .homogeneous import (
    InvariantForm,
    LieAlgebraPresentation,
    ReductiveSplit,
    ce_differential,
    invariant_basis,
    lie_derivative,
    pi_project,
    space,
    structure_constants,
    su3_basis,
)
from .flow import (
    DegenerateFlowState,
    FlowConfig,
    GenericFlowState,
    Trajectory,
    cocal_residual,
    deform_state,
    flat7_problem,
    generic_problem,
    generic_rhs,
    generic_state_from_split,
    integrate,
    mirror_seed,
    n11_problem,
    smoothness_check,
    startup_seed,
    torsion_residual,
)
from .verify import verify_identities

__all__ = [
    # forms
    "KForm", "SymBilinear", "wedge", "interior", "pullback", "hodge",
    "volume_form", "embed", "restrict", "form_pairing",
    # stable
    "StructureClass", "k_endomorphism", "lambda_invariant", "assoc_J",
    "assoc_metric", "classify_pair", "theta_deform", "iota",
    "solve_wedge_omega", "model_pair",
    # g2spin7
    "SevenClass", "EightClass", "build_phi",
    "metric_vol_from_phi", "assoc_4form", "build_Phi", "bundle_Phi",
    "seven_structure", "solve_dstar", "model_phi", "model_seven",
    # homogeneous
    "LieAlgebraPresentation", "ReductiveSplit", "InvariantForm",
    "structure_constants", "invariant_basis", "ce_differential",
    "lie_derivative", "pi_project", "space", "su3_basis",
    # flow
    "FlowConfig", "DegenerateFlowState", "GenericFlowState", "Trajectory",
    "n11_problem", "flat7_problem", "generic_problem", "smoothness_check",
    "startup_seed", "mirror_seed", "generic_rhs",
    "cocal_residual", "integrate", "torsion_residual", "deform_state",
    "generic_state_from_split",
    # verify
    "verify_identities",
]

__version__ = "0.1.0"
