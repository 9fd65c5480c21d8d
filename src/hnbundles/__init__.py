"""Exact Harder-Narasimhan polygon calculus for bundle classes.

Public surface: the canonical bundle value type and its algebra
(:mod:`hnbundles.bundle`), the exact degree and dimension calculus
(:mod:`hnbundles.degrees`), the subbundle/quotient decision procedures
(:mod:`hnbundles.criteria`), the degeneration engine
(:mod:`hnbundles.degeneration`), the enumeration and verification harness
(:mod:`hnbundles.verify`), SVG polygon overlays (:mod:`hnbundles.render`),
and the CLI (:mod:`hnbundles.cli`, installed as ``hnb``).
"""

from .bundle import (
    BundleParseError,
    HNBundle,
    InternalConsistencyError,
    PolygonVertex,
    PreconditionError,
    SegmentVector,
    ZERO,
    bundle_from_json,
    bundle_to_json,
    canonicalize,
    format_bundle,
    parse_bundle,
    stable,
    summand_difference,
)
from .criteria import (
    hn_common_prefix,
    is_quotient,
    is_subbundle,
    rank_condition,
    slopewise_dominates,
    strip_common_slopes,
)
from .degeneration import (
    DecompositionTriple,
    DegenerationTrace,
    NormalizationStep,
    NormalizedTriple,
    build_e1,
    decompose_mrs,
    degeneration_chain,
    degeneration_step,
    degeneration_trace,
    max_slope_reduction,
    normalize_triple,
)
from .degrees import (
    StratumReport,
    c_value,
    deg_nonneg,
    deg_nonneg_oracle,
    dim_hom,
    image_term,
    stratum_dim,
    stratum_report,
)
from .render import render_svg, write_svg
from .verify import (
    CHECKS,
    PAIR_UNIVERSE,
    TRIPLE_UNIVERSE,
    UniverseSpec,
    VerificationReport,
    admissible_slopes,
    enumerate_bundles,
    enumerate_candidate_images,
    run_checks,
    verify_degeneration,
    verify_equivalence,
    verify_invariance,
    verify_key_inequality,
    verify_oracles,
    verify_stratification_dimension,
)

__version__ = "0.1.0"
