"""Counterfactual attribution for ordinal outcomes.

Point identification and sharp bounds for the probability of necessity
(event probability among treated units with a given observed outcome) and
the probability of causation (its unconditional twin under randomization),
over a three-level assumption ladder, with LP and sampling self-checks.
"""

from .bounds import (
    BoundsResult,
    Method,
    UnsupportedEventError,
    monotone_consistent,
    pc_bounds,
    pn_bounds_marginal,
    pn_bounds_monotone,
)
from .core import (
    ATOL,
    Assumptions,
    CausalAttributionError,
    Conditioning,
    EventSpec,
    EventSpecError,
    InvalidDistributionError,
    JointProbabilityMatrix,
    MarginalPair,
    OrdinalDistribution,
    ZeroEvidenceError,
    allowed_mask,
    make_event,
    pn_from_joint,
)
from .identify import (
    FalsificationError,
    FalsificationReport,
    falsification_check,
    gap_sequence,
    identify_joint,
    pc_point,
    pn_point,
)
from .ingest import (
    ContingencyTable,
    DataFormatError,
    IncompatibleSourcesError,
    Source,
    StratifiedTable,
    counterfactual_margin_experimental,
    counterfactual_margin_unconfounded,
    empirical_margin,
    load_strata_json,
    load_table,
    randomized_margins,
)
from .lp import CertificateError, LpError, LpInfeasibleError, pn_bounds_lp
from .oracle import (
    ConstructionError,
    SamplingError,
    VerificationReport,
    endpoint_witnesses,
    draw_samples,
    verify_bounds,
)

__all__ = [
    "ATOL",
    "Assumptions",
    "BoundsResult",
    "CausalAttributionError",
    "CertificateError",
    "Conditioning",
    "ConstructionError",
    "ContingencyTable",
    "DataFormatError",
    "EventSpec",
    "EventSpecError",
    "FalsificationError",
    "FalsificationReport",
    "IncompatibleSourcesError",
    "InvalidDistributionError",
    "JointProbabilityMatrix",
    "LpError",
    "LpInfeasibleError",
    "MarginalPair",
    "Method",
    "OrdinalDistribution",
    "SamplingError",
    "Source",
    "StratifiedTable",
    "UnsupportedEventError",
    "VerificationReport",
    "ZeroEvidenceError",
    "allowed_mask",
    "counterfactual_margin_experimental",
    "counterfactual_margin_unconfounded",
    "empirical_margin",
    "endpoint_witnesses",
    "draw_samples",
    "falsification_check",
    "gap_sequence",
    "identify_joint",
    "load_strata_json",
    "load_table",
    "make_event",
    "monotone_consistent",
    "pc_bounds",
    "pc_point",
    "pn_bounds_lp",
    "pn_bounds_marginal",
    "pn_bounds_monotone",
    "pn_from_joint",
    "pn_point",
    "randomized_margins",
    "verify_bounds",
]

__version__ = "0.1.0"
