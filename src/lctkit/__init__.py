"""Singularity exponents, volume oracles, and Kahler-Einstein certificates.

Four capabilities, one package:

* :mod:`lctkit.lct` computes complex singularity exponents (log
  canonical thresholds) and Arnold multiplicities exactly for the
  computable classes: log resolutions, principal monomials, diagonal
  ideals, direct and separated sums.
* :mod:`lctkit.volume` estimates sublevel-set volumes by seeded
  Monte-Carlo and recovers the exponent by log-log regression, an
  independent numerical oracle for the exact values.
* :mod:`lctkit.bergman` realizes the Bergman-kernel approximation of a
  radial weight on the disk in closed form and checks its sandwich and
  pointwise bounds exactly.
* :mod:`lctkit.fano` certifies Kahler-Einstein existence for weighted
  Del Pezzo hypersurfaces through exact arithmetic criteria, and scans
  weight boxes.

The command line lives in :mod:`lctkit.cli` (``lctkit`` or
``python -m lctkit``).
"""

from .errors import InsufficientDataError, InvalidInputError, LctError, NotFanoError
from .extrational import INFINITY, ExtRational
from .lct import (
    Diagonal,
    DirectSum,
    DivisorRecord,
    MonomialIdealSpec,
    PrincipalMonomial,
    ResolutionData,
    SeparatedSum,
    arnold_multiplicity,
    lct_from_resolution,
    lct_monomial,
    lelong_sandwich,
    parse_spec,
    scale_arnold,
    spec_to_text,
    truncation_gap_bound,
)
from .volume import (
    DEFAULT_SEED,
    ExponentFit,
    FitConfig,
    SampledPotential,
    SemicontinuityReport,
    binomial_family,
    estimate_sublevel_volume,
    fit_exponent,
    potential_from_spec,
    semicontinuity_experiment,
)
from .bergman import (
    BergmanApprox,
    RadialWeight,
    build_approx,
    eval_psi_m,
    eval_tail_bound,
    lelong_of_psi_m,
    lower_bound_constant,
    minimal_degree,
)
from .fano import (
    Certificate,
    FletcherReport,
    INCONCLUSIVE,
    KE_CERTIFIED,
    KE_CERTIFIED_REFINED,
    NOT_FANO,
    NOT_ORBIFOLD,
    REFINED_CURVE_CHECKS,
    ScanConfig,
    ScanReport,
    WeightSystem,
    anticanonical_data,
    certify,
    curve_bound_check,
    fletcher_check,
    rho,
    rho_refined,
    scan,
    weighted_monomials,
)

__version__ = "0.1.0"
