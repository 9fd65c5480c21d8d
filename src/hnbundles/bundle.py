"""Exact algebra of Harder-Narasimhan (HN) bundle classes.

The isomorphism class of a vector bundle on the Fargues-Fontaine curve is
determined by its HN decomposition: a finite multiset of stable slopes with
multiplicities.  :class:`HNBundle` stores that multiset in strictly
descending slope order, which is the unique canonical form; the empty
multiset is the zero bundle.

Slopes are exact rationals (:class:`fractions.Fraction`) and ranks/degrees
are arbitrary-precision integers, so nothing in this package ever rounds.
The stable class of slope ``p/q`` (lowest terms, ``q > 0``) has rank ``q``
and degree ``p``; rank and degree of a general bundle are the
multiplicity-weighted sums over its summands.

A bundle's identity is an integer key, one ``(p, q, multiplicity)`` triple
per summand, built and hashed once when the value is made; equality and
hashing compare that key and never touch a ``Fraction``.  ``dual()`` is
memoized on the instance, with a back-link, so ``v.dual().dual() is v``.
Only outside input is validated: the public constructor, :func:`stable`,
:func:`canonicalize`, :func:`parse_bundle` and :func:`bundle_from_json`
check and reject, while the library's own operations, whose results are
canonical by construction, build their values without re-checking them.

Bundles also have a bit-exact text form used by the CLI and by all JSON
reports::

    bundle  := summand ("," summand)* | "0"
    summand := slope (":" mult)?
    slope   := ["-"] digits ("/" digits)?
    mult    := digits

``"1,-1"`` is O(1) + O(-1), ``"3/2:2"`` is O(3/2) with multiplicity 2, and
the lone token ``"0"`` is the zero bundle.  Because ``"0"`` is reserved,
the trivial line bundle O prints as ``"0:1"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Union

SlopeLike = Union[Fraction, int, str]

__all__ = [
    "BundleParseError",
    "PreconditionError",
    "InternalConsistencyError",
    "SegmentVector",
    "PolygonVertex",
    "HNBundle",
    "ZERO",
    "stable",
    "canonicalize",
    "summand_difference",
    "parse_bundle",
    "format_bundle",
    "bundle_to_json",
    "bundle_from_json",
]


class BundleParseError(ValueError):
    """Text or JSON input does not describe a bundle."""


class PreconditionError(ValueError):
    """An operation's stated precondition is violated.

    ``condition`` carries the short name of the violated condition for
    operations that number their preconditions (the degeneration pipeline);
    it is ``None`` elsewhere.
    """

    def __init__(self, message: str, condition: str | None = None):
        super().__init__(message)
        self.condition = condition


class InternalConsistencyError(RuntimeError):
    """An identity that is guaranteed by construction failed to hold."""


def _as_slope(value: SlopeLike) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"not a rational slope: {value!r}") from exc


class SegmentVector(NamedTuple):
    """One HN polygon segment as the integer vector (rank, degree)."""

    rank: int
    degree: int

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)

    def cross(self, other: "SegmentVector") -> int:
        """Two-dimensional cross product ``rank*degree' - degree*rank'``."""
        return self.rank * other.degree - self.degree * other.rank


class PolygonVertex(NamedTuple):
    """HN polygon vertex: cumulative (rank, degree) of a slope-descending prefix."""

    x: int
    y: int


_COMPARATORS = {
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
}


@dataclass(frozen=True, eq=False)
class HNBundle:
    """A bundle class in canonical form: ((slope, multiplicity), ...).

    Slopes strictly descending, multiplicities >= 1; ``()`` is the zero
    bundle.  Use :func:`canonicalize`, :func:`stable` or
    :func:`parse_bundle` to build values from loose input.  Instances are
    immutable, hashable, and safe to share across threads.
    """

    summands: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        cleaned: list[tuple[Fraction, int]] = []
        previous: Fraction | None = None
        for entry in self.summands:
            lam, mult = entry
            lam = _as_slope(lam)
            if not isinstance(mult, int) or mult < 1:
                raise ValueError(f"multiplicity must be a positive integer, got {mult!r}")
            if previous is not None and lam >= previous:
                raise ValueError("summand slopes must be strictly descending")
            previous = lam
            cleaned.append((lam, mult))
        _settle(self, tuple(cleaned))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not HNBundle:
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    # basic invariants

    @property
    def is_zero(self) -> bool:
        return not self.summands

    @cached_property
    def rank(self) -> int:
        return sum(m * lam.denominator for lam, m in self.summands)

    @cached_property
    def degree(self) -> int:
        return sum(m * lam.numerator for lam, m in self.summands)

    @property
    def slope(self) -> Fraction:
        """degree/rank; undefined (raises) for the zero bundle."""
        if self.is_zero:
            raise PreconditionError("slope of the zero bundle is undefined")
        return Fraction(self.degree, self.rank)

    @property
    def mu_max(self) -> Fraction:
        if self.is_zero:
            raise PreconditionError("mu_max of the zero bundle is undefined")
        return self.summands[0][0]

    @property
    def mu_min(self) -> Fraction:
        if self.is_zero:
            raise PreconditionError("mu_min of the zero bundle is undefined")
        return self.summands[-1][0]

    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(lam for lam, _ in self.summands)

    def multiplicity(self, lam: SlopeLike) -> int:
        """Multiplicity of the stable summand of the given slope (0 if absent)."""
        lam = _as_slope(lam)
        for s, m in self.summands:
            if s == lam:
                return m
        return 0

    def has_integer_slopes(self) -> bool:
        return self._integer_slopes

    @cached_property
    def _integer_slopes(self) -> bool:
        """Whether every slope is an integer, read once per instance off the integer key."""
        return all(q == 1 for _, q, _ in self._key)

    @cached_property
    def slope_pairs(self) -> frozenset[tuple[int, int]]:
        """The slopes as reduced ``(numerator, denominator)`` pairs, read off the key."""
        return frozenset([(p, q) for p, q, _ in self._key])

    # ------------------------------------------------------------------
    # algebra

    def dual(self) -> "HNBundle":
        """Slopewise negation; an involution preserving rank, negating degree.

        Computed once per instance: the dual links back, so
        ``v.dual().dual() is v``.
        """
        dual = self._dual
        if dual is None:
            dual = _trusted(tuple((-lam, m) for lam, m in reversed(self.summands)))
            dual.__dict__["_dual"] = self
            self.__dict__["_dual"] = dual
        return dual

    def direct_sum(self, other: "HNBundle") -> "HNBundle":
        mine, theirs = self.summands, other.summands
        merged: list[tuple[Fraction, int]] = []
        i = j = 0
        while i < len(mine) and j < len(theirs):
            (a, ma), (b, mb) = mine[i], theirs[j]
            if a == b:
                merged.append((a, ma + mb))
                i += 1
                j += 1
            elif a > b:
                merged.append(mine[i])
                i += 1
            else:
                merged.append(theirs[j])
                j += 1
        return _trusted(tuple(merged) + mine[i:] + theirs[j:])

    __add__ = direct_sum

    def filter(self, mu: SlopeLike, mode: str) -> "HNBundle":
        """Summands whose slope compares to ``mu`` under ``mode``.

        ``mode`` is one of ``">="``, ``">"``, ``"<="``, ``"<"``.  For every
        ``mu``, the ``">="`` and ``"<"`` parts recover the whole bundle.
        """
        try:
            keep = _COMPARATORS[mode]
        except KeyError:
            raise ValueError(f"mode must be one of {sorted(_COMPARATORS)}, got {mode!r}")
        mu = _as_slope(mu)
        return _trusted(tuple((lam, m) for lam, m in self.summands if keep(lam, mu)))

    def twist(self, amount: SlopeLike) -> "HNBundle":
        """Shift every slope by an integer; rank preserved, degree shifts by amount*rank.

        Only integer twists are supported: twisting by a rank-1 line bundle
        moves each stable summand to the stable summand of shifted slope
        with the same multiplicity.  A non-integer twist would instead be a
        tensor product, which :meth:`tensor` provides.
        """
        amount = _as_slope(amount)
        if amount.denominator != 1:
            raise PreconditionError(f"twist requires an integer amount, got {amount}")
        n = amount.numerator
        return _trusted(tuple((lam + n, m) for lam, m in self.summands))

    def vertical_stretch(self, factor: int) -> "HNBundle":
        """Scale the HN polygon vertically by a positive integer factor.

        Every y-coordinate of the polygon is multiplied by ``factor`` while
        segment widths are preserved, so each slope ``lam`` becomes
        ``factor*lam`` and multiplicities are readjusted to keep ``m * s``
        invariant per segment.  The readjusted multiplicity is always an
        integer: the denominator of ``factor*lam`` divides that of ``lam``.
        """
        if not isinstance(factor, int) or factor < 1:
            raise PreconditionError(f"stretch factor must be a positive integer, got {factor!r}")
        out: list[tuple[Fraction, int]] = []
        for lam, m in self.summands:
            width = m * lam.denominator
            new = lam * factor
            if width % new.denominator:
                raise InternalConsistencyError(
                    f"segment width {width} not divisible by stretched denominator {new.denominator}"
                )
            out.append((new, width // new.denominator))
        return _trusted(tuple(out))

    def tensor(self, other: "HNBundle") -> "HNBundle":
        """Tensor product, summand pair by summand pair.

        Uses the standard decomposition of a product of stable classes:
        O(a) (x) O(b) is semistable of slope a+b and rank
        denom(a)*denom(b), hence O(a+b) with multiplicity
        denom(a)*denom(b)/denom(a+b).  Rank is multiplicative and degree
        bilinear.  This exists as background plumbing and as the
        independent oracle route for the degree calculus; the main code
        paths never rely on it.
        """
        pieces: list[tuple[Fraction, int]] = []
        for a, ma in self.summands:
            for b, mb in other.summands:
                lam = a + b
                product_rank = ma * mb * a.denominator * b.denominator
                if product_rank % lam.denominator:
                    raise InternalConsistencyError(
                        f"tensor rank {product_rank} not divisible by denom({lam})"
                    )
                pieces.append((lam, product_rank // lam.denominator))
        return canonicalize(pieces)

    # ------------------------------------------------------------------
    # polygon

    @cached_property
    def segment_vectors(self) -> tuple[SegmentVector, ...]:
        """One (rank, degree) vector per HN segment, slope-descending."""
        return tuple(
            SegmentVector(m * lam.denominator, m * lam.numerator) for lam, m in self.summands
        )

    @cached_property
    def polygon(self) -> tuple[PolygonVertex, ...]:
        """Vertices of the HN polygon, starting at (0, 0)."""
        vertices = [PolygonVertex(0, 0)]
        x = y = 0
        for seg in self.segment_vectors:
            x += seg.rank
            y += seg.degree
            vertices.append(PolygonVertex(x, y))
        return tuple(vertices)

    # ------------------------------------------------------------------
    # presentation

    def __str__(self) -> str:
        return format_bundle(self)

    def __repr__(self) -> str:
        return f"HNBundle({format_bundle(self)!r})"


def _settle(bundle: HNBundle, summands: tuple[tuple[Fraction, int], ...]) -> None:
    """Store canonical summands with their integer key and its hash.

    The hash reads the numerators zigzag-encoded (p >= 0 as 2p, p < 0 as
    -2p - 1): CPython hashes -1 like -2, so hashing the raw key would make
    every pair of bundles that differ only there collide.
    """
    key = tuple([(lam.numerator, lam.denominator, m) for lam, m in summands])
    state = bundle.__dict__
    state["summands"] = summands
    state["_key"] = key
    state["_hash"] = hash(tuple([(2 * p if p >= 0 else -2 * p - 1, q, m) for p, q, m in key]))
    state["_dual"] = None


def _trusted(summands: tuple[tuple[Fraction, int], ...]) -> HNBundle:
    """Bundle from summands that are canonical by construction; nothing is re-checked.

    Callers guarantee reduced ``Fraction`` slopes in strictly descending
    order and multiplicities >= 1.
    """
    bundle = object.__new__(HNBundle)
    _settle(bundle, summands)
    return bundle


ZERO = HNBundle(())


def stable(lam: SlopeLike) -> HNBundle:
    """The stable class O(lam): rank = denominator, degree = numerator."""
    return HNBundle(((_as_slope(lam), 1),))


def canonicalize(pairs: Iterable[tuple[SlopeLike, int]]) -> HNBundle:
    """Merge, sort descending, and drop zero multiplicities; idempotent."""
    tally: dict[Fraction, int] = {}
    for lam, mult in pairs:
        lam = _as_slope(lam)
        if not isinstance(mult, int) or mult < 0:
            raise ValueError(f"multiplicity must be a nonnegative integer, got {mult!r}")
        if mult:
            tally[lam] = tally.get(lam, 0) + mult
    return _trusted(tuple((lam, tally[lam]) for lam in sorted(tally, reverse=True)))


def summand_difference(whole: HNBundle, part: HNBundle) -> HNBundle:
    """Multiset difference ``whole - part``; ``part`` must embed summand-wise."""
    remaining: list[tuple[Fraction, int]] = []
    theirs = part.summands
    j = 0
    for lam, m in whole.summands:
        used = 0
        if j < len(theirs) and theirs[j][0] == lam:
            used = theirs[j][1]
            j += 1
        if used > m:
            raise ValueError(f"{part} is not a summand-wise part of {whole}")
        if m - used:
            remaining.append((lam, m - used))
    # Both sides descend, so a slope of part missing from whole stops the walk early.
    if j < len(theirs):
        raise ValueError(f"{part} is not a summand-wise part of {whole}")
    return _trusted(tuple(remaining))


# ----------------------------------------------------------------------
# text grammar and JSON form

_SLOPE_RE = re.compile(r"-?\d+(?:/\d+)?\Z")
_MULT_RE = re.compile(r"\d+\Z")


def parse_bundle(text: str) -> HNBundle:
    """Parse the bundle grammar; raises :class:`BundleParseError` on bad input.

    Input summands may appear in any order and with repeats; the result is
    canonical.  The lone token ``"0"`` is the zero bundle.
    """
    if not isinstance(text, str):
        raise BundleParseError(f"expected a bundle string, got {type(text).__name__}")
    body = text.strip()
    if not body:
        raise BundleParseError("empty bundle string")
    if body == "0":
        return ZERO
    pairs: list[tuple[Fraction, int]] = []
    for token in body.split(","):
        token = token.strip()
        slope_text, colon, mult_text = token.partition(":")
        slope_text = slope_text.strip()
        if not _SLOPE_RE.fullmatch(slope_text):
            raise BundleParseError(f"bad slope {slope_text!r} in bundle {text!r}")
        try:
            lam = Fraction(slope_text)
        except ZeroDivisionError:
            raise BundleParseError(f"zero denominator in slope {slope_text!r}")
        if colon:
            mult_text = mult_text.strip()
            if not _MULT_RE.fullmatch(mult_text):
                raise BundleParseError(f"bad multiplicity {mult_text!r} in bundle {text!r}")
            mult = int(mult_text)
        else:
            mult = 1
        pairs.append((lam, mult))
    return canonicalize(pairs)


def format_bundle(bundle: HNBundle) -> str:
    """Canonical text: descending slopes, ``:mult`` only when mult > 1.

    The zero bundle prints as ``"0"``; the trivial line bundle prints as
    ``"0:1"`` so that parse(format(V)) == V for every bundle.
    """
    if bundle.is_zero:
        return "0"
    parts = [f"{lam}" if m == 1 else f"{lam}:{m}" for lam, m in bundle.summands]
    text = ",".join(parts)
    return "0:1" if text == "0" else text


def bundle_to_json(bundle: HNBundle) -> dict:
    """JSON object form: {"summands": [{"slope": "3/2", "mult": 2}, ...]}."""
    return {
        "summands": [{"slope": str(lam), "mult": m} for lam, m in bundle.summands]
    }


def bundle_from_json(data: dict) -> HNBundle:
    if not isinstance(data, dict) or "summands" not in data:
        raise BundleParseError("bundle JSON must be an object with a 'summands' list")
    entries = data["summands"]
    if not isinstance(entries, list):
        raise BundleParseError("'summands' must be a list")
    pairs: list[tuple[Fraction, int]] = []
    for entry in entries:
        try:
            slope_text = entry["slope"]
            mult = entry["mult"]
        except (TypeError, KeyError):
            raise BundleParseError(f"bad summand entry {entry!r}")
        if not isinstance(slope_text, str) or not _SLOPE_RE.fullmatch(slope_text.strip()):
            raise BundleParseError(f"bad slope {slope_text!r}")
        if not isinstance(mult, int):
            raise BundleParseError(f"bad multiplicity {mult!r}")
        pairs.append((Fraction(slope_text.strip()), mult))
    try:
        return canonicalize(pairs)
    except ValueError as exc:
        raise BundleParseError(str(exc))
