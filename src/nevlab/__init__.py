"""Growth functionals, explicit inequality checks, and orbit constructions
for meromorphic functions that stay within a closed evaluation family.

Everything is organized around three layers:

* ``fnmodel``: symbolic-ish function expressions with overflow-safe log
  evaluation, divisors, and polynomial root finding;
* ``nevanlinna`` / ``boundslab``: circle averages, counting functions, the
  characteristic, and the explicit bound verifiers built on them;
* ``algmap`` / ``constructor``: fractional-power maps, their orbits, and the
  function families built from escaping orbit clouds.
"""

from .algmap import (
    AlgebraicMap,
    InvarianceReport,
    Orbit,
    binomial_shift_map,
    escape_probe,
    invariance_census,
    orbit,
    polynomialize,
)
from .boundslab import (
    AsymSample,
    BorelResult,
    BoundConfig,
    BoundReport,
    GrowthProbe,
    PolyPair,
    SmtResult,
    asym_ratio,
    borel_closed_form,
    borel_probe,
    first_stable_radius,
    growth_lemma_probe,
    k_constant,
    lemma1_check,
    pestimate_check,
    smt_check,
)
from .constructor import (
    CorpusMember,
    CounterexampleKit,
    OrbitFamily,
    build_orbit_family,
    build_orbit_function,
    corpus,
    counterexample_kit,
    counterexample_preimages,
    divisor_cloud,
    figure_family,
    identity_probe_points,
    identity_residuals,
    left_figure_map,
    left_figure_seeds,
    right_figure_map,
    right_figure_seeds,
)
from .fnmodel import (
    BranchAmbiguity,
    Const,
    Difference,
    Divisor,
    Exp,
    ExpPoly,
    FunctionExpr,
    GrowthConditionError,
    IdenticalComposition,
    InsufficientGrowth,
    NonIntegerResidual,
    NonMonotone,
    OpaqueExpr,
    OrbitCollision,
    OrderMismatch,
    OverflowSignal,
    PoleSignal,
    Polynomial,
    Product,
    QuadratureFailure,
    Quotient,
    RationalFromDivisor,
    RootFindFailure,
    ToolkitError,
    cluster_roots,
    compose_poly,
    logplus,
    parse_complex,
    poly_roots,
    preimages_in_disc,
    subtract,
)
from .nevanlinna import (
    BalanceSample,
    CharacteristicSample,
    HyperOrderEstimate,
    argument_principle_count,
    characteristic,
    characteristic_sweep,
    counting,
    fmt_delta,
    hyperorder_estimate,
    jensen_lhs_rhs,
    log_radii,
    n_count,
    proximities,
    proximity,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
