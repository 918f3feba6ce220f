"""Schur rings over Z_2^n with circulant structure: weight-class
arithmetic, complete S-sets, orbit actions under rotation, reversal and
decimation, periodic autocorrelation, and Hadamard matrix construction,
verification and exhaustive search at desk scale."""

from .errors import (
    InvalidCore,
    InvalidCoreOrder,
    InvalidLength,
    InvalidWeight,
    LengthMismatch,
    NotCoprime,
    NotHadamard,
    RingAxiomViolation,
    ScaleExceeded,
    TheoremViolation,
    Z2SchurError,
)
from .sequences import (
    BinarySequence,
    divisors,
    make_sequence,
    units,
)
from .weight_ring import (
    QuantityVector,
    WeightClassSet,
    class_product,
    class_size,
    even_odd_unions,
    is_sgroup,
    structure_constant_closed,
    structure_constant_oracle,
    verify_ring,
)
from .ssets import (
    CompleteSSet,
    complete_maximal,
    count_theorem_checks,
    find_complete_ssets,
    maximal_target_weights,
    member_interval,
    predicted_profile,
)
from .orbits import (
    GROUPS,
    Orbit,
    burnside_count,
    canonical_rep,
    census,
    classify,
    cyclic_period,
    enumerate_orbits,
    fd_partition,
    fd_partition_check,
    invariance_check,
    necklace_count,
    orbit_members,
    orbit_product_decomposition,
    spartition_axiom_check,
    square_freeness_check,
)
from .autocorr import (
    AutocorrVector,
    cross_sum_identity,
    cross_theta,
    decimation_permutes,
    flat_offpeak,
    periodic_autocorrelation,
    periodic_correlation,
    random_identity_trials,
    sum_identity,
    theta,
    verify_identities,
)
from .hadamard import (
    BUILTIN_H12,
    ContainmentReport,
    SearchResult,
    SignMatrix,
    StructureVerdict,
    border_core,
    circulant_feasible_weights,
    core_partition_verdict,
    exhaustive_core_partition_search,
    exhaustive_structured_search,
    is_hadamard,
    normalize_into_complete,
    paley_core,
    partition_parity_verdict,
    search_circulant_hadamard,
)

__version__ = "0.1.0"
