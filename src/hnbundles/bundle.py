"""Exact algebra of Harder-Narasimhan (HN) bundle classes.

The isomorphism class of a vector bundle on the Fargues-Fontaine curve is
determined by its HN decomposition: a finite multiset of stable slopes with
multiplicities.  :class:`HNBundle` stores that multiset in strictly
descending slope order, which is the unique canonical form; the empty
multiset is the zero bundle.

A bundle is one integer key, a ``(p, q, multiplicity)`` triple per summand
of slope ``p/q`` (lowest terms, ``q > 0``), of rank ``q`` and degree ``p``.
Every operation works on the key and compares slopes by cross-multiplying,
so nothing in this package ever rounds; ``summands``, ``slopes()``,
``slope``, ``mu_max`` and ``mu_min`` are views that build exact
:class:`fractions.Fraction` values when read, and no bundle stores one.
The key is hashed once, when the value is made; equality and hashing
compare it.  ``dual()`` is memoized on the instance, with a back-link, so
``v.dual().dual() is v``; zero is its own dual.  A ``verify.Universe`` links
the duals of its pool in advance (:func:`_link_duals`): a member whose dual
is also a member gets that member as its dual, so ``dual()`` builds no
second, equal copy, and the ``deg_nonneg`` memo, keyed by pool members,
finds a dual by identity.

Only outside input is validated, and one function, ``_as_slope``, reads
every slope from outside, at every entry point from the constructor to
:func:`parse_bundle`, :func:`bundle_from_json`, the CLI slope flags and
``verify.UniverseSpec``: it takes an ``int``, a ``Fraction`` or a string in
the grammar's slope form below, and refuses floats and bools.  The
library's own operations, whose results are canonical by construction,
build their keys without re-checking them.

Bundles also have a bit-exact text form used by the CLI and by all JSON
reports::

    bundle  := summand ("," summand)* | "0"
    summand := slope (":" mult)?
    slope   := ["-"] digits ("/" digits)?
    mult    := digits
    digits  := [0-9]+

``"1,-1"`` is O(1) + O(-1), ``"3/2:2"`` is O(3/2) with multiplicity 2, and
the lone token ``"0"`` is the zero bundle.  Because ``"0"`` is reserved,
the trivial line bundle O prints as ``"0:1"``.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import gcd
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
    """Text, JSON or a slope from outside does not describe a bundle."""


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


# The slope token of the bundle grammar (see the module docstring).
_SLOPE_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?\Z")


def _as_slope(value: SlopeLike) -> tuple[int, int]:
    """``value`` in lowest terms as ``(numerator, denominator)``, denominator > 0.

    The one reader of slopes from outside: an ``int`` but not a ``bool``, a
    ``Fraction``, or a string holding the grammar's slope token (whitespace
    around it allowed).  Anything else, a zero denominator included, raises
    :class:`BundleParseError`.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    match = _SLOPE_RE.fullmatch(value.strip()) if isinstance(value, str) else None
    if match is None:
        raise BundleParseError(f"not a rational slope: {value!r}")
    p, q = int(match[1]), int(match[2] or 1)
    if not q:
        raise BundleParseError(f"zero denominator in slope {value.strip()!r}")
    g = gcd(p, q)
    return p // g, q // g


def _slope_text(p: int, q: int) -> str:
    """The slope p/q as ``str(Fraction(p, q))`` prints it."""
    return f"{p}" if q == 1 else f"{p}/{q}"


class SegmentVector(NamedTuple):
    """One HN polygon segment as the integer vector (rank, degree)."""

    rank: int
    degree: int

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)


class PolygonVertex(NamedTuple):
    """HN polygon vertex: cumulative (rank, degree) of a slope-descending prefix."""

    x: int
    y: int


_COMPARATORS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


class HNBundle:
    """A bundle class in canonical form, built from ((slope, multiplicity), ...).

    Slopes strictly descending, multiplicities >= 1; ``()`` is the zero
    bundle.  Use :func:`canonicalize`, :func:`stable` or
    :func:`parse_bundle` to build values from loose input.  An instance
    holds its integer key, the key's hash, the dual link and cached integer
    properties.  Instances are immutable, hashable, and thread-safe.
    """

    def __init__(self, summands: Iterable[tuple[SlopeLike, int]]) -> None:
        key: list[tuple[int, int, int]] = []
        for lam, mult in summands:
            p, q = _as_slope(lam)
            if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
                raise ValueError(f"multiplicity must be a positive integer, got {mult!r}")
            if key and p * key[-1][1] >= key[-1][0] * q:
                raise ValueError("summand slopes must be strictly descending")
            key.append((p, q, mult))
        _settle(self, tuple(key))

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"HNBundle is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

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
    def summands(self) -> tuple[tuple[Fraction, int], ...]:
        """``((slope, multiplicity), ...)``, slopes built from the key when read."""
        return tuple([(Fraction(p, q), m) for p, q, m in self._key])

    @property
    def is_zero(self) -> bool:
        return not self._key

    @cached_property
    def rank(self) -> int:
        return sum(m * q for _, q, m in self._key)

    @cached_property
    def degree(self) -> int:
        return sum(m * p for p, _, m in self._key)

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
        return Fraction(*self._key[0][:2])

    @property
    def mu_min(self) -> Fraction:
        if self.is_zero:
            raise PreconditionError("mu_min of the zero bundle is undefined")
        return Fraction(*self._key[-1][:2])

    def slopes(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(p, q) for p, q, _ in self._key])

    def multiplicity(self, lam: SlopeLike) -> int:
        """Multiplicity of the stable summand of the given slope (0 if absent)."""
        slope = _as_slope(lam)
        for p, q, m in self._key:
            if (p, q) == slope:
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
        ``v.dual().dual() is v``, and zero is its own dual.
        """
        dual = self._dual
        if dual is None:
            if self._key:
                dual = _trusted(_dual_key(self._key))
                dual.__dict__["_dual"] = self
            else:
                dual = self
            self.__dict__["_dual"] = dual
        return dual

    def direct_sum(self, other: "HNBundle") -> "HNBundle":
        mine, theirs = self._key, other._key
        merged: list[tuple[int, int, int]] = []
        i = j = 0
        while i < len(mine) and j < len(theirs):
            (a, b, ma), (c, d, mc) = mine[i], theirs[j]
            order = a * d - c * b  # a/b against c/d, with b, d > 0
            if not order:
                merged.append((a, b, ma + mc))
                i += 1
                j += 1
            elif order > 0:
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
        a, b = _as_slope(mu)
        # p/q against a/b is p*b against a*q, since q, b > 0.
        return _trusted(tuple([s for s in self._key if keep(s[0] * b, a * s[1])]))

    def twist(self, amount: SlopeLike) -> "HNBundle":
        """Shift every slope by an integer; rank preserved, degree shifts by amount*rank.

        Only integer twists are supported: twisting by a rank-1 line bundle
        moves each stable summand to the stable summand of shifted slope
        with the same multiplicity.  A non-integer twist would instead be a
        tensor product, which :meth:`tensor` provides.
        """
        n, d = _as_slope(amount)
        if d != 1:
            raise PreconditionError(f"twist requires an integer amount, got {_slope_text(n, d)}")
        return _trusted(tuple([(p + n * q, q, m) for p, q, m in self._key]))

    def vertical_stretch(self, factor: int) -> "HNBundle":
        """Scale the HN polygon vertically by a positive integer factor.

        Every y-coordinate of the polygon is multiplied by ``factor`` while
        segment widths are preserved: each slope ``p/q`` becomes
        ``(factor*p/g)/(q/g)`` with multiplicity ``m*g``, where ``g =
        gcd(factor*p, q)``, so the width ``m*q`` of every segment is kept.
        """
        if isinstance(factor, bool) or not isinstance(factor, int) or factor < 1:
            raise PreconditionError(f"stretch factor must be a positive integer, got {factor!r}")
        out: list[tuple[int, int, int]] = []
        for p, q, m in self._key:
            g = gcd(factor * p, q)
            out.append((factor * p // g, q // g, m * g))
        return _trusted(tuple(out))

    def tensor(self, other: "HNBundle") -> "HNBundle":
        """Tensor product, summand pair by summand pair.

        Uses the standard decomposition of a product of stable classes:
        O(a/b) (x) O(c/d) is semistable of slope (ad + cb)/(bd) and rank bd,
        hence g copies of the stable class of that slope, g = gcd(ad + cb,
        bd).  Rank is multiplicative and degree bilinear.  This exists as
        background plumbing and as the independent oracle route for the
        degree calculus; the main code paths never rely on it.
        """
        tally: dict[tuple[int, int], int] = {}
        for a, b, ma in self._key:
            for c, d, mc in other._key:
                g = gcd(a * d + c * b, b * d)
                slope = ((a * d + c * b) // g, b * d // g)
                tally[slope] = tally.get(slope, 0) + ma * mc * g
        return _from_tally(tally)

    # ------------------------------------------------------------------
    # polygon

    @cached_property
    def segment_vectors(self) -> tuple[SegmentVector, ...]:
        """One (rank, degree) vector per HN segment, slope-descending."""
        return tuple([SegmentVector(m * q, m * p) for p, q, m in self._key])

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


def _settle(bundle: HNBundle, key: tuple[tuple[int, int, int], ...]) -> None:
    """Store a canonical integer key and its hash.

    The hash reads the numerators zigzag-encoded (p >= 0 as 2p, p < 0 as
    -2p - 1): CPython hashes -1 like -2, so hashing the raw key would make
    every pair of bundles that differ only there collide.
    """
    state = bundle.__dict__
    state["_key"] = key
    state["_hash"] = hash(tuple([(2 * p if p >= 0 else -2 * p - 1, q, m) for p, q, m in key]))
    state["_dual"] = None


def _trusted(key: tuple[tuple[int, int, int], ...]) -> HNBundle:
    """Bundle from a key that is canonical by construction; nothing is re-checked.

    Callers guarantee slopes ``p/q`` in lowest terms with ``q > 0``, strictly
    descending, and multiplicities >= 1.
    """
    bundle = object.__new__(HNBundle)
    _settle(bundle, key)
    return bundle


def _dual_key(key: tuple[tuple[int, int, int], ...]) -> tuple[tuple[int, int, int], ...]:
    """The key of the dual: every slope negated, so the order reverses."""
    return tuple([(-p, q, m) for p, q, m in reversed(key)])


def _link_duals(bundles: list[HNBundle]) -> None:
    """Make each bundle's dual the one of ``bundles`` equal to it, where there is one.

    Both ends are linked at once, and only where neither dual is computed
    yet, so ``v.dual().dual() is v`` keeps holding; a bundle whose dual is
    not among ``bundles`` is left alone.  Zero, when present, is linked to
    itself.
    """
    by_key = {v._key: v for v in bundles}
    for v in bundles:
        if v._dual is None:
            twin = by_key.get(_dual_key(v._key))
            if twin is not None and twin._dual is None:
                v.__dict__["_dual"] = twin
                twin.__dict__["_dual"] = v


_DESCENDING = cmp_to_key(lambda s, t: t[0] * s[1] - s[0] * t[1])


def _from_tally(tally: dict[tuple[int, int], int]) -> HNBundle:
    """Bundle of ``{(p, q): multiplicity >= 1}``, slopes sorted by cross-multiplying."""
    return _trusted(tuple([(p, q, tally[p, q]) for p, q in sorted(tally, key=_DESCENDING)]))


ZERO = HNBundle(())


def stable(lam: SlopeLike) -> HNBundle:
    """The stable class O(lam): rank = denominator, degree = numerator."""
    return HNBundle(((lam, 1),))


def canonicalize(pairs: Iterable[tuple[SlopeLike, int]]) -> HNBundle:
    """Merge, sort descending, and drop zero multiplicities; idempotent."""
    tally: dict[tuple[int, int], int] = {}
    for lam, mult in pairs:
        slope = _as_slope(lam)
        if isinstance(mult, bool) or not isinstance(mult, int) or mult < 0:
            raise ValueError(f"multiplicity must be a nonnegative integer, got {mult!r}")
        if mult:
            tally[slope] = tally.get(slope, 0) + mult
    return _from_tally(tally)


def summand_difference(whole: HNBundle, part: HNBundle) -> HNBundle:
    """Multiset difference ``whole - part``; ``part`` must embed summand-wise."""
    remaining: list[tuple[int, int, int]] = []
    theirs = part._key
    j = 0
    for p, q, m in whole._key:
        used = 0
        if j < len(theirs) and theirs[j][:2] == (p, q):
            used = theirs[j][2]
            j += 1
        if used > m:
            raise ValueError(f"{part} is not a summand-wise part of {whole}")
        if m - used:
            remaining.append((p, q, m - used))
    # Both sides descend, so a slope of part missing from whole stops the walk early.
    if j < len(theirs):
        raise ValueError(f"{part} is not a summand-wise part of {whole}")
    return _trusted(tuple(remaining))


# ----------------------------------------------------------------------
# text grammar and JSON form

_MULT_RE = re.compile(r"[0-9]+\Z")


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
    pairs: list[tuple[str, int]] = []
    for token in body.split(","):
        slope_text, colon, mult_text = token.partition(":")
        slope_text = slope_text.strip()
        if not _SLOPE_RE.fullmatch(slope_text):
            raise BundleParseError(f"bad slope {slope_text!r} in bundle {text!r}")
        if colon:
            mult_text = mult_text.strip()
            if not _MULT_RE.fullmatch(mult_text):
                raise BundleParseError(f"bad multiplicity {mult_text!r} in bundle {text!r}")
            mult = int(mult_text)
        else:
            mult = 1
        pairs.append((slope_text, mult))
    return canonicalize(pairs)


def format_bundle(bundle: HNBundle) -> str:
    """Canonical text: descending slopes, ``:mult`` only when mult > 1.

    The zero bundle prints as ``"0"``; the trivial line bundle prints as
    ``"0:1"`` so that parse(format(V)) == V for every bundle.
    """
    if bundle.is_zero:
        return "0"
    parts = [_slope_text(p, q) if m == 1 else f"{_slope_text(p, q)}:{m}"
             for p, q, m in bundle._key]
    text = ",".join(parts)
    return "0:1" if text == "0" else text


def bundle_to_json(bundle: HNBundle) -> dict:
    """JSON object form: {"summands": [{"slope": "3/2", "mult": 2}, ...]}."""
    return {
        "summands": [{"slope": _slope_text(p, q), "mult": m} for p, q, m in bundle._key]
    }


def bundle_from_json(data: dict) -> HNBundle:
    if not isinstance(data, dict) or "summands" not in data:
        raise BundleParseError("bundle JSON must be an object with a 'summands' list")
    entries = data["summands"]
    if not isinstance(entries, list):
        raise BundleParseError("'summands' must be a list")
    pairs: list[tuple[str, int]] = []
    for entry in entries:
        try:
            slope_text, mult = entry["slope"], entry["mult"]
        except (TypeError, KeyError):
            raise BundleParseError(f"bad summand entry {entry!r}")
        if not isinstance(slope_text, str):
            raise BundleParseError(f"bad slope {slope_text!r}")
        pairs.append((slope_text, mult))
    try:
        return canonicalize(pairs)
    except ValueError as exc:
        raise BundleParseError(str(exc))
