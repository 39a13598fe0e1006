"""Growth functionals, explicit inequality checks, and orbit constructions
for meromorphic functions that stay within a closed evaluation family.

Everything is organized around three layers:

* ``fnmodel``: symbolic-ish function expressions with overflow-safe log
  evaluation, on ``core`` (errors, records, polynomials), ``roots``
  (polynomial root finding), ``divisor`` (divisors and their sums),
  ``circles`` and ``kinks`` (circle forms, closed means and the certified
  level-set searches) and ``apoints`` (the a-points of a rational);
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
from .core import (
    BranchAmbiguity,
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
    QuadratureFailure,
    RootFindFailure,
    ToolkitError,
    logplus,
    parse_complex,
)
from .divisor import Divisor, cluster_roots
from .fnmodel import (
    Const,
    Exp,
    ExpPoly,
    FunctionExpr,
    Product,
    Quotient,
    RationalFromDivisor,
    compose_poly,
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
from .roots import poly_roots

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
