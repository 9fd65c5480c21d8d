"""Exact dimension calculus for spaces of bundle maps.

Everything here reduces to one number: ``deg_nonneg(V, W)``, the degree of
the nonnegative-slope part of Hom(V, W) = dual(V) (x) W.  It is computed
without forming the tensor product: writing the HN polygons of V and W as
sequences of integer segment vectors, each pair (v, w) with
slope(v) <= slope(w) contributes the two-dimensional cross product
``v x w``, and those contributions sum to the degree.  The value is a
nonnegative integer and vanishes whenever mu_min(V) >= mu_max(W).

``deg_nonneg_oracle`` recomputes the same number along the direct route
(expand the tensor product into stable summands, keep slopes >= 0, take the
degree).  The two routes are kept independent on purpose; the verification
harness checks them against each other over entire universes.

Derived quantities:

* ``dim_hom(E, F)``   = deg_nonneg(E, F), the dimension of the space of
  maps E -> F.
* ``stratum_dim(E, F, Q)`` = dimension of the locus of maps whose image is
  Q, when that locus is nonempty:
  deg_nonneg(E, Q) + deg_nonneg(Q, F) - deg_nonneg(Q, Q).
* ``c_value(E, F, Q)`` = dim_hom(E, F) - stratum_dim(E, F, Q), the
  codimension of the Q-stratum.  It is total in all three arguments so the
  harness can probe boundary behavior.

Both stratum formulas split into a part that reads F and one that does not:
``image_term(E, Q)`` = deg_nonneg(Q, Q) - deg_nonneg(E, Q), and then
stratum_dim = deg_nonneg(Q, F) - image_term and c_value = deg_nonneg(E, F)
+ image_term - deg_nonneg(Q, F).  Every degree a formula reads can be
passed in as a keyword instead of looked up: ``qq_degree`` (deg_nonneg(Q,
Q)) and ``eq_degree`` (deg_nonneg(E, Q)) to image_term, ``term`` and
``qf_degree`` (deg_nonneg(Q, F)) to both stratum formulas, and
``ef_degree`` (deg_nonneg(E, F)) to c_value and dim_hom.  A caller that
evaluates many triples keeps each value where it is shared - deg_nonneg
per pair, the term per (E, Q) - and looks each up once; the formulas stay
stated here only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bundle import HNBundle, InternalConsistencyError

__all__ = [
    "deg_nonneg",
    "deg_nonneg_oracle",
    "dim_hom",
    "image_term",
    "stratum_dim",
    "c_value",
    "StratumReport",
    "stratum_report",
]


@lru_cache(maxsize=None)
def deg_nonneg(v: HNBundle, w: HNBundle) -> int:
    """Degree of the slope->=0 part of Hom(v, w), by segment cross products."""
    total = 0
    w_segments = w.segment_vectors
    for a_rank, a_degree in v.segment_vectors:
        for b_rank, b_degree in w_segments:
            # Ranks are positive, so the cross product a x b is >= 0 exactly
            # when slope(a) <= slope(b); equal slopes contribute 0 either way.
            cross = a_rank * b_degree - a_degree * b_rank
            if cross > 0:
                total += cross
    return total


def deg_nonneg_oracle(v: HNBundle, w: HNBundle) -> int:
    """Same value as :func:`deg_nonneg` via tensor expansion; oracle route only."""
    return v.dual().tensor(w).filter(0, ">=").degree


def dim_hom(e: HNBundle, f: HNBundle, *, ef_degree: int | None = None) -> int:
    """Dimension of the space of bundle maps e -> f.

    ``ef_degree``, when given, must be ``deg_nonneg(e, f)``.
    """
    return deg_nonneg(e, f) if ef_degree is None else ef_degree


def image_term(e: HNBundle, q: HNBundle, *, qq_degree: int | None = None,
               eq_degree: int | None = None) -> int:
    """deg_nonneg(q, q) - deg_nonneg(e, q), the part of both stratum formulas without F.

    ``qq_degree`` and ``eq_degree``, when given, must be ``deg_nonneg(q, q)``
    and ``deg_nonneg(e, q)``.
    """
    if qq_degree is None:
        qq_degree = deg_nonneg(q, q)
    if eq_degree is None:
        eq_degree = deg_nonneg(e, q)
    return qq_degree - eq_degree


def stratum_dim(e: HNBundle, f: HNBundle, q: HNBundle, *, term: int | None = None,
                qf_degree: int | None = None) -> int:
    """Dimension of the stratum of maps e -> f with image q.

    Pure arithmetic in all three arguments; the caller decides whether the
    stratum is nonempty (see the criteria module).  A negative value cannot
    arise for an admissible q and is reported as an internal error.
    ``term`` and ``qf_degree``, when given, must be ``image_term(e, q)``
    and ``deg_nonneg(q, f)``.
    """
    if term is None:
        term = image_term(e, q)
    if qf_degree is None:
        qf_degree = deg_nonneg(q, f)
    value = qf_degree - term
    if value < 0:
        raise InternalConsistencyError(
            f"stratum dimension formula gave {value} < 0 for E={e}, F={f}, Q={q}"
        )
    return value


def c_value(e: HNBundle, f: HNBundle, q: HNBundle, *, term: int | None = None,
            qf_degree: int | None = None, ef_degree: int | None = None) -> int:
    """Codimension of the q-stratum inside Hom(e, f); total in all arguments.

    ``term``, ``qf_degree`` and ``ef_degree``, when given, must be
    ``image_term(e, q)``, ``deg_nonneg(q, f)`` and ``deg_nonneg(e, f)``; a
    caller that already holds them passes them.
    """
    if term is None:
        term = image_term(e, q)
    if qf_degree is None:
        qf_degree = deg_nonneg(q, f)
    if ef_degree is None:
        ef_degree = deg_nonneg(e, f)
    return ef_degree + term - qf_degree


@dataclass(frozen=True)
class StratumReport:
    """One candidate image with its stratum dimension and codimension."""

    image: HNBundle
    stratum_dimension: int
    c_value: int


def stratum_report(e: HNBundle, f: HNBundle, q: HNBundle) -> StratumReport:
    """Build a consistent report; c_value == dim_hom - stratum_dimension."""
    return StratumReport(q, stratum_dim(e, f, q), c_value(e, f, q))
