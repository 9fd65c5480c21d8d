"""Rows over one fixed pool of bundles, by pool position.

* :class:`_Table` - a dict that fills a missing key on its first read and
  keeps it;
* :func:`_flags`  - the bits of a mask over the pool as one byte each;
* :class:`_Lanes` - rows packed into ints, one lane per pool position,
  on which one call of an integer formula of :mod:`hnbundles.degrees`
  evaluates it at every position at once;
* :class:`_Sublanes` - rows packed the same way over some of the pool's
  positions, read cell by cell.

:mod:`hnbundles.verify` builds its universe's tables from these.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, cached_property, partial
from math import ceil
from typing import Callable

from .bundle import HNBundle, _trusted

_BITS_TO_BYTES = bytes.maketrans(b"01", b"\0\1")
# By bit b: the table that maps a byte to a lane's sign byte, set where the byte has bit b.
_BIT_TO_SIGNS = [bytes([x >> b & 1 and 0x80 for x in range(256)]) for b in range(8)]


def _flags(mask: int, size: int) -> bytes:
    """Bits 0, ..., size - 1 of ``mask`` as one byte each: 1 where the bit is set, else 0."""
    return format(mask, f"0{size}b")[::-1].encode().translate(_BITS_TO_BYTES)


class _Table(dict):
    """A dict that fills a missing key with ``fill(key)`` and keeps it, unless the fill raises."""

    __slots__ = ("_fill",)

    def __init__(self, fill: Callable) -> None:
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


class _Lanes:
    """Rows over one pool packed into ints, one lane of ``width`` bits per pool position.

    A packed int holds x_i * 2**(i * width) summed over the positions i, x_i
    being its lane i.  Packed ints add, subtract and scale lane by lane,
    exactly.

    The width is a multiple of 8, fixed at build from a bound computed over
    the pool.  deg_nonneg(V, W) <= rank(V) * rank(W) * (largest slope -
    smallest slope), so with R the largest rank, ``bound``, the larger of R
    * R * (ceil(slope span) + 1) and every deg(V^{>=0}), exceeds every
    degree, multiplicity and rank, and 2**(width - 1) > 4 * bound + 4 keeps
    every value a lane check tests (at most 4 * bound + 1 in size: a sum
    of at most four degrees, less one, or a difference of two codimensions
    less deg(F^{>=0}) - deg(Q^{>=0})) inside [-2**(width - 1),
    2**(width - 1)).  Adding ``bias``, 2**(width - 1) in every lane, then
    makes every lane nonnegative without a carry between lanes, so the top
    bit of a lane, its sign bit, is set exactly when the lane is >= 0.  A
    lane mask has the sign bit of each of its lanes set, so ``bias`` is
    also the mask of every lane, ANDing a biased value with a mask keeps
    the lanes of the mask that are >= 0, and ``mask.bit_count()`` counts
    the lanes of a mask.  ``ones`` holds 1 in every lane.

    ``degree`` is the deg_nonneg the rows are built from; it is additive in
    each argument, so with M_s the packed multiplicity of the slope s (lane
    Q holds the multiplicity of s in Q):

    * ``diagonal``     - deg(Q, Q) in lane Q;
    * ``into[F]``      - deg(., F), the sum over s of deg(O(s), F) * M_s;
    * ``outof[E]``     - deg(E, .), the sum over s of deg(E, O(s)) * M_s;
    * ``below[r]``     - the mask of the lanes of rank < r;
    * ``nonneg``       - deg(V^{>=0}) in lane V, the degrees p * m of V's
                         summands p/q with p >= 0, off the keys;
    * ``above[p, q]``  - rank(V^{>p/q}) in lane V, the ranks q' * m of V's
                         summands p'/q' > p/q, off the keys;
    * ``dominated[F]`` - the mask of the Q that F slopewise dominates:
                         column F of the relation ``dominating``, whose
                         entry L has bit U set when U dominates L;
    * ``quotients(E)`` - the mask of the Q that are quotients of E: column
                         E of ``dual_dominating``.

    The degree rows are built at their first read: the diagonal, and the
    multiplicity rows M_s with the line bundles O(s) that ``into`` and
    ``outof`` read, so a run that reads only the masks asks no degree and
    builds no bundle.  deg(O(p/q), F) and deg(E, O(p/q)) are at most q * R
    * (ceil(slope span) + 1), so a row built from such values has its lanes
    in [0, bound]; a row that reads a value past that cap, or a diagonal
    with a lane outside [0, bound] (only a faulty degree route makes one),
    is None.

    A relation is packed at its first column read, each entry as
    ceil(n / 8) little-endian bytes, n the pool size, the entries joined.
    Column U is then byte U // 8 of every entry, one strided slice, whose
    bit U % 8 a ``translate`` table turns into the sign byte of each lane.
    """

    def __init__(self, pool: list[HNBundle], dominating: list[int], dual_dominating: list[int],
                 degree: Callable[[HNBundle, HNBundle], int]) -> None:
        size = len(pool)
        ranks = [v.rank for v in pool]
        top = max(ranks, default=0)
        slopes = {(p, q): None for v in pool for p, q, _ in v._key}
        span = (max(Fraction(p, q) for p, q in slopes) - min(Fraction(p, q) for p, q in slopes)
                if slopes else 0)
        reach = ceil(span) + 1
        nonneg = [sum([p * m for p, _, m in v._key if p >= 0]) for v in pool]
        self.bound = bound = max([top * top * reach, *nonneg])
        width = 8
        while 1 << width - 1 <= 4 * bound + 4:
            width += 8
        step = width // 8
        self.width = width
        self.ones = int.from_bytes((b"\1" + bytes(step - 1)) * size, "little")
        self.bias = self.ones << width - 1
        lane = (1 << width) - 1

        # These close over locals, not over self, so the tables form no cycle.
        def pack(values: list[int]) -> int:
            """The packed row with values[i] in lane i, each in [0, 2**width)."""
            return int.from_bytes(b"".join([x.to_bytes(step, "little") for x in values]), "little")

        def at(row: int, i: int) -> int:
            """Lane i of a packed row whose lanes are all nonnegative."""
            return row >> i * width & lane

        def spread(flags: bytes, bit: int = 0) -> int:
            """The lane mask of the lanes whose byte in ``flags`` has bit ``bit`` set."""
            lanes = bytearray(size * step)
            lanes[step - 1::step] = flags.translate(_BIT_TO_SIGNS[bit])
            return int.from_bytes(lanes, "little")

        def signs(mask: int) -> bytes:
            """The sign byte of each lane of a mask, by position: nonzero on its lanes."""
            return mask.to_bytes(size * step, "little")[step - 1::step]

        def positions(mask: int) -> list[int]:
            """The positions of a mask's lanes, ascending."""
            return list(itertools.compress(range(size), signs(mask)))

        @cache
        def basis() -> tuple[list[int], list[HNBundle], list[int]]:
            """Per slope p/q of the pool: its packed multiplicities, O(p/q), and its cap."""
            columns = {slope: bytearray(size * step) for slope in slopes}
            for i, v in enumerate(pool):
                for p, q, m in v._key:
                    columns[p, q][i * step:(i + 1) * step] = m.to_bytes(step, "little")
            return ([int.from_bytes(column, "little") for column in columns.values()],
                    [_trusted(((p, q, 1),)) for p, q in columns],
                    [q * top * reach for _, q in columns])

        def row(profile: list[int]) -> int | None:
            """The sum of profile[s] * M_s, or None when a value passes its cap."""
            packs, _, caps = basis()
            if all(0 <= h <= cap for h, cap in zip(profile, caps)):
                return sum([h * packed for h, packed in zip(profile, packs)])
            return None

        def diagonal() -> int | None:
            """deg(Q, Q) in lane Q, or None when a lane leaves [0, bound]."""
            degrees = [degree(v, v) for v in pool]
            return pack(degrees) if all(0 <= d <= bound for d in degrees) else None

        self._diagonal = diagonal
        self.into = _Table(lambda f: row([degree(line, pool[f]) for line in basis()[1]]))
        self.outof = _Table(lambda e: row([degree(pool[e], line) for line in basis()[1]]))
        self.below = [spread(bytes([rank < r for rank in ranks])) for r in range(top + 2)]
        self.nonneg = pack(nonneg)
        # a/b > p/q exactly when a*q > p*b, since b, q > 0.
        self.above = _Table(lambda t: pack([
            sum([b * m for a, b, m in v._key if a * t[1] > t[0] * b]) for v in pool]))
        entry = (size + 7) // 8
        relations = (dominating, dual_dominating)
        packed = _Table(lambda k: b"".join([bits.to_bytes(entry, "little") for bits in relations[k]]))

        def column(k: int, u: int) -> int:
            """Column u of relation k: the mask of the lanes whose entry has bit u set."""
            return spread(packed[k][u >> 3::entry], u & 7)

        self.dominated = _Table(partial(column, 0))
        self.quotients = partial(column, 1)
        self.at, self.spread, self.signs, self.positions = at, spread, signs, positions

    @cached_property
    def diagonal(self) -> int | None:
        return self._diagonal()


class _Sublanes:
    """Rows over some positions of a pool, lane k for ``fs[k]``, as wide as its ``_Lanes``.

    Every value a lane check of the pool tests fits in a lane here too.
    ``cells[F][V]`` is a table of single values by pool position, and
    ``reads`` gives, by V, the lanes whose cells V's row holds, as an int of
    flags, one byte per lane, nonzero where read.  ``rows[V]`` packs
    cells[F][V] on those lanes, each read once, and 0 elsewhere; V has no row
    when one of its cells lies outside [0, bound].  ``biased[t]`` holds t +
    bias in every lane, and from the pool's rows off the keys:

    * ``nonneg``               - deg(F^{>=0}) in lane F; ``nonneg_of(V)`` is
                                 deg(V^{>=0}) for any pool position V;
    * ``gaps[r, (p, q)]``      - r - rank(F^{>-p/q}) + bias, the stall rule's
                                 rank(S) - rank(F^{>mu_min(dual(S))}) for an
                                 S of rank r with mu_max(S) = p/q; 0 in every
                                 lane when there is no S or r lies outside
                                 [0, bound], so that no lane passes.
    """

    def __init__(self, lanes: _Lanes, fs: list[int], cells: dict, reads: dict[int, int]) -> None:
        width, bound, at = lanes.width, lanes.bound, lanes.at
        half = 1 << width - 1
        self.fs = fs
        self.ones = ones = int.from_bytes((b"\1" + bytes(width // 8 - 1)) * len(fs), "little")
        self.bias = bias = ones << width - 1
        self.biased = _Table(lambda t: t * ones + bias)
        self.nonneg_of = partial(at, lanes.nonneg)
        self.nonneg = sum([at(lanes.nonneg, fi) << k * width for k, fi in enumerate(fs)])
        shifted = list(zip(range(0, len(fs) * width, width), [cells[fi] for fi in fs]))
        self.rows = rows = {}
        for vi, wanted in reads.items():
            row = 0
            for shift, into_f in itertools.compress(shifted, wanted.to_bytes(len(fs), "little")):
                value = into_f[vi]
                if not 0 <= value <= bound:
                    break
                row |= value << shift
            else:
                rows[vi] = row

        def gap(key: tuple[int, tuple[int, int] | None]) -> int:
            r, top = key
            if top is None or not 0 <= r <= bound:
                return 0
            above = lanes.above[-top[0], top[1]]
            return sum([r + half - at(above, fi) << k * width for k, fi in enumerate(fs)])

        self.gaps = _Table(gap)
