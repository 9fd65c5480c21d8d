"""Exact dimension calculus for spaces of bundle maps.

Everything here reduces to one number: ``deg_nonneg(V, W)``, the degree of
the nonnegative-slope part of Hom(V, W) = dual(V) (x) W.  It is computed
without forming the tensor product, on the integer keys: each pair of a
summand a/b of V (multiplicity m) and a summand c/d of W (multiplicity n)
with a/b < c/d contributes m*n*(b*c - a*d), the cross product of their HN
segments (m*b, m*a) and (n*d, n*c), and those contributions sum to the
degree.  The value is a nonnegative integer and vanishes whenever
mu_min(V) >= mu_max(W).

The values are memoized on the pair of keys ``(V._key, W._key)``, not on
the bundles, so a lookup hashes and compares integer tuples in C and calls
no ``HNBundle.__hash__`` or ``__eq__``, and equal but distinct bundles share
one entry.  ``deg_nonneg`` carries the memo's ``cache_info`` and
``cache_clear``.

``deg_nonneg_oracle`` recomputes the same number along the direct route
(expand the tensor product into stable summands, keep slopes >= 0, take the
degree).  The two routes are kept independent on purpose; the verification
harness checks them against each other over entire universes.

Derived quantities, each stated once on integers, as a function of the
deg_nonneg values it reads:

* ``image_term(qq, eq)`` = qq - eq, the part of both stratum formulas that
  does not read F, for qq = deg_nonneg(Q, Q) and eq = deg_nonneg(E, Q);
* ``stratum_dimension(qf, term)`` = qf - term, the dimension of the locus
  of maps E -> F whose image is Q, when that locus is nonempty, for qf =
  deg_nonneg(Q, F) and term = image_term(qq, eq);
* ``codimension(ef, term, qf)`` = ef + term - qf, the codimension of that
  locus inside Hom(E, F), for ef = deg_nonneg(E, F).

The bundle forms read the degrees and apply them: ``dim_hom(E, F)`` =
deg_nonneg(E, F), the dimension of the space of maps E -> F, and
``stratum_dim(E, F, Q)`` and ``c_value(E, F, Q)``, so that c_value =
dim_hom - stratum_dim.  c_value is total in all three arguments so the
harness can probe boundary behavior.  A caller that evaluates many triples
keeps each degree where it is shared and calls the integer forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bundle import HNBundle, InternalConsistencyError, PreconditionError
from .criteria import is_quotient

__all__ = [
    "deg_nonneg",
    "deg_nonneg_oracle",
    "image_term",
    "stratum_dimension",
    "codimension",
    "dim_hom",
    "stratum_dim",
    "c_value",
    "StratumReport",
    "stratum_report",
]


@lru_cache(maxsize=None)
def _degree(v_key: tuple[tuple[int, int, int], ...], w_key: tuple[tuple[int, int, int], ...]
            ) -> int:
    """deg_nonneg on the keys of V and W: m*n*(b*c - a*d) summed over a/b < c/d."""
    total = 0
    for a, b, m in v_key:
        # w's key descends, so its c/d > a/b, where b*c - a*d > 0 (b, d > 0), are a prefix.
        for c, d, n in w_key:
            cross = b * c - a * d
            if cross <= 0:
                break
            total += m * n * cross
    return total


def deg_nonneg(v: HNBundle, w: HNBundle) -> int:
    """Degree of the slope->=0 part of Hom(v, w), memoized on the two keys."""
    return _degree(v._key, w._key)


deg_nonneg.cache_info, deg_nonneg.cache_clear = _degree.cache_info, _degree.cache_clear


def deg_nonneg_oracle(v: HNBundle, w: HNBundle) -> int:
    """Same value as :func:`deg_nonneg` via tensor expansion; oracle route only."""
    return v.dual().tensor(w).filter(0, ">=").degree


def image_term(qq_degree: int, eq_degree: int) -> int:
    """deg_nonneg(Q, Q) - deg_nonneg(E, Q), the part of both stratum formulas without F."""
    return qq_degree - eq_degree


def stratum_dimension(qf_degree: int, term: int) -> int:
    """deg_nonneg(Q, F) - image_term, the dimension of the Q-stratum when it is nonempty."""
    return qf_degree - term


def codimension(ef_degree: int, term: int, qf_degree: int) -> int:
    """deg_nonneg(E, F) + image_term - deg_nonneg(Q, F), the codimension of the Q-stratum."""
    return ef_degree + term - qf_degree


def _negative_stratum(e: HNBundle, f: HNBundle, q: HNBundle, value: int) -> str:
    """The internal error's text for a negative stratum dimension of (e, f, q)."""
    return f"stratum dimension formula gave {value} < 0 for E={e}, F={f}, Q={q}"


def dim_hom(e: HNBundle, f: HNBundle) -> int:
    """Dimension of the space of bundle maps e -> f."""
    return deg_nonneg(e, f)


def stratum_dim(e: HNBundle, f: HNBundle, q: HNBundle) -> int:
    """Dimension of the stratum of maps e -> f with image q.

    Pure arithmetic in all three arguments; the caller decides whether the
    stratum is nonempty (see the criteria module).  A negative value means
    that q is no image of a map e -> f: it raises :class:`PreconditionError`
    when q is not a quotient of e.  A quotient q of e has image_term <= 0,
    so its value is at least deg_nonneg(q, f) >= 0, whatever f; a negative
    value there is reported as an internal error.
    """
    value = stratum_dimension(deg_nonneg(q, f), image_term(deg_nonneg(q, q), deg_nonneg(e, q)))
    if value < 0:
        if not is_quotient(q, e):
            raise PreconditionError(f"Q={q} is not a quotient of E={e}, so no map has image Q")
        raise InternalConsistencyError(_negative_stratum(e, f, q, value))
    return value


def c_value(e: HNBundle, f: HNBundle, q: HNBundle) -> int:
    """Codimension of the q-stratum inside Hom(e, f); total in all arguments."""
    term = image_term(deg_nonneg(q, q), deg_nonneg(e, q))
    return codimension(deg_nonneg(e, f), term, deg_nonneg(q, f))


@dataclass(frozen=True)
class StratumReport:
    """One candidate image with its stratum dimension and codimension."""

    image: HNBundle
    stratum_dimension: int
    c_value: int


def stratum_report(e: HNBundle, f: HNBundle, q: HNBundle) -> StratumReport:
    """Build a consistent report; c_value == dim_hom - stratum_dimension."""
    return StratumReport(q, stratum_dim(e, f, q), c_value(e, f, q))
