"""Exact Harder-Narasimhan polygon calculus for bundle classes.

Public surface: the canonical bundle value type and its algebra
(:mod:`hnbundles.bundle`), the exact degree and dimension calculus
(:mod:`hnbundles.degrees`), the subbundle/quotient decision procedures
(:mod:`hnbundles.criteria`), the degeneration engine
(:mod:`hnbundles.degeneration`), the enumeration and verification harness
(:mod:`hnbundles.verify`), SVG polygon overlays (:mod:`hnbundles.render`),
and the CLI (:mod:`hnbundles.cli`, installed as ``hnb``).

Importing the package loads none of these modules: each name below is
imported from its module on first access (PEP 562), so a caller that needs
only ``bundle`` and ``criteria`` never pays for ``verify`` or ``render``.
"""

from importlib import import_module

# Submodule -> the public names the package re-exports from it.
_EXPORTS = {
    "bundle": (
        "BundleParseError", "HNBundle", "InternalConsistencyError", "PolygonVertex",
        "PreconditionError", "ZERO", "bundle_from_json", "bundle_to_json",
        "canonicalize", "format_bundle", "parse_bundle", "stable", "summand_difference",
    ),
    "criteria": (
        "hn_common_prefix", "is_quotient", "is_subbundle", "rank_condition",
        "slopewise_dominates", "strip_common_slopes",
    ),
    "degeneration": (
        "DecompositionTriple", "DegenerationTrace", "NormalizationStep", "NormalizedTriple",
        "build_e1", "decompose_mrs", "degeneration_chain", "degeneration_step",
        "degeneration_trace", "max_slope_reduction", "normalize_triple",
    ),
    "degrees": (
        "StratumReport", "c_value", "codimension", "deg_nonneg", "deg_nonneg_oracle",
        "dim_hom", "image_term", "stratum_dim", "stratum_dimension", "stratum_report",
    ),
    "render": ("render_svg", "write_svg"),
    "verify": (
        "CHECKS", "PAIR_UNIVERSE", "TRIPLE_UNIVERSE", "UniverseSpec", "VerificationReport",
        "admissible_slopes", "enumerate_bundles", "enumerate_candidate_images", "run_checks",
        "verify_degeneration", "verify_equivalence", "verify_invariance",
        "verify_key_inequality", "verify_oracles", "verify_stratification_dimension",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SOURCE})
