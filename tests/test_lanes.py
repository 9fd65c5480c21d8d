"""The packed rows of a universe (``lanes._Lanes``) against the per-cell degree formulas."""

from __future__ import annotations

import itertools

import pytest

from hnbundles import UniverseSpec, ZERO, deg_nonneg, stable, verify
from hnbundles.criteria import dominators
from hnbundles.degrees import c_value, codimension, image_term, stratum_dimension
from hnbundles.lanes import _Lanes

SMALL_INT = UniverseSpec(max_rank=3, slope_min=-2, slope_max=2, max_denominator=1)
SMALL = UniverseSpec(max_rank=3, slope_min=-2, slope_max=2, max_denominator=2)
# The universe of the benchmark's triples workload.
TRIPLES = UniverseSpec(max_rank=4, slope_min=-2, slope_max=2, max_denominator=1)
SPECS = {"small-int": SMALL_INT, "small": SMALL, "triples": TRIPLES}


def _unpack(lanes, packed):
    """Every lane of ``packed`` as a signed integer."""
    half = 1 << lanes.width - 1
    step = lanes.width // 8
    size = (lanes.ones.bit_length() - 1) // lanes.width + 1
    data = (packed + lanes.bias).to_bytes(size * step, "little")
    return [int.from_bytes(data[i:i + step], "little") - half for i in range(0, size * step, step)]


def _lanes(pool):
    keys = [v._key for v in pool]
    return _Lanes(pool, dominators(keys), dominators([v.dual()._key for v in pool]), deg_nonneg)


def _check_every_cell(pool, lanes):
    """Each lane of both degree rows, the diagonal, the image term and the codimension."""
    degree = [[deg_nonneg(v, w) for w in pool] for v in pool]
    size = len(pool)
    assert _unpack(lanes, lanes.diagonal) == [degree[q][q] for q in range(size)]
    terms = {}
    for e in range(size):
        assert _unpack(lanes, lanes.outof[e]) == degree[e]
        terms[e] = image_term(lanes.diagonal, lanes.outof[e])
        assert _unpack(lanes, terms[e]) == [image_term(degree[q][q], degree[e][q])
                                            for q in range(size)]
    for f in range(size):
        into_f = lanes.into[f]
        assert _unpack(lanes, into_f) == [degree[v][f] for v in range(size)]
        for e in range(size):
            ef = lanes.at(into_f, e)
            assert ef == degree[e][f]
            assert _unpack(lanes, codimension(ef * lanes.ones, terms[e], into_f)) == [
                codimension(ef, image_term(degree[q][q], degree[e][q]), degree[q][f])
                for q in range(size)]
        assert _unpack(lanes, stratum_dimension(into_f, terms[0])) == [
            stratum_dimension(degree[q][f], image_term(degree[q][q], degree[0][q]))
            for q in range(size)]


@pytest.mark.parametrize("spec", list(SPECS.values()), ids=list(SPECS))
def test_every_lane_cell_equals_the_per_cell_formula(spec):
    universe = verify.Universe(spec)
    _check_every_cell(universe.pool, universe.lanes)


def test_lanes_stay_exact_past_64_bits():
    # Degrees of 2 * 10**20 and more: no pool of a spec reaches them under the pool cap.
    big = 10**20
    pool = [ZERO, stable(big), stable(0), stable(-big), stable(big).direct_sum(stable(-big)),
            stable(big).direct_sum(stable(0)).direct_sum(stable(-big))]
    lanes = _lanes(pool)
    assert lanes.width > 64 and lanes.bound >= 9 * 2 * big
    assert max(deg_nonneg(v, w) for v, w in itertools.product(pool, repeat=2)) > 2**64
    _check_every_cell(pool, lanes)


def test_a_lane_mask_holds_the_sign_bit_of_each_lane():
    lanes = verify.Universe(SMALL_INT).lanes
    size = len(verify.bundle_pool(SMALL_INT))
    flags = bytes(i % 3 == 0 for i in range(size))
    mask = lanes.spread(flags)
    assert mask.bit_count() == sum(flags)
    assert lanes.positions(mask) == [i for i in range(size) if flags[i]]
    assert mask & lanes.bias == mask == lanes.ones << lanes.width - 1 & mask
    # A biased value keeps exactly the sign bits of its lanes that are >= 0.
    values = [(-1) ** i * (i % 7) for i in range(size)]
    packed = sum(v << i * lanes.width for i, v in enumerate(values))
    assert lanes.positions(packed + lanes.bias & lanes.bias) == [
        i for i, v in enumerate(values) if v >= 0]


def test_oracles_name_the_route_that_disagrees(monkeypatch):
    spec = UniverseSpec(max_rank=2, slope_min=-1, slope_max=1, max_denominator=1)
    universe = verify.Universe(spec)
    pool = universe.pool
    w = len(pool) - 1
    # Lane 1 of one row, one too high.
    universe.lanes.into[w] += 1 << universe.lanes.width
    count, lines, _ = verify.CHECKS["oracles"][0](universe)
    assert count == len(pool) ** 2
    value = deg_nonneg(pool[1], pool[w])
    assert lines == [f"V={pool[1]} W={pool[w]}: lanes disagrees: cross-product={value} "
                     f"tensor-route={value} lanes={value + 1}"]
    monkeypatch.setattr(verify, "deg_nonneg_oracle", lambda v, w: deg_nonneg(v, w) + 1)
    count, lines, _ = verify.CHECKS["oracles"][0](verify.Universe(spec))
    assert len(lines) == count and all("tensor-route disagrees" in line for line in lines)


LANE_CONDITIONS = {
    "key-inequality": verify.GENERAL_CONDITIONS,
    "stratification": verify.ConditionSet((), verify.PAIR_CONDITIONS, ()),
}


@pytest.mark.parametrize("name", list(LANE_CONDITIONS))
def test_a_lane_that_disagrees_with_its_cell_fails_its_group(name):
    # Lane E of the row into F, one too high.  Every lane test passes with it, so only the
    # comparison with deg_nonneg(E, F), read per cell, fails the group; the per-triple rerun
    # passes it, so the line names the disagreement.
    check = verify.CHECKS[name][0]
    count = check(verify.Universe(SMALL_INT))[0]
    universe = verify.Universe(SMALL_INT)
    pool, lanes = universe.pool, universe.lanes
    ei, fi = next((ei, fi) for ei, fi, group in verify._lane_groups(universe, LANE_CONDITIONS[name])
                  if group)
    lanes.into[fi] += 1 << ei * lanes.width
    assert check(universe)[:2] == (count, [
        f"E={pool[ei]} F={pool[fi]}: the lane route fails this group, the per-triple route passes it"])


@pytest.mark.parametrize("spec", list(SPECS.values()), ids=list(SPECS))
def test_every_packed_codimension_of_a_chain_equals_the_per_triple_one(monkeypatch, spec):
    # The check's own packed values: the first codimension calls of each chain's lane test are
    # c_0, ..., c_r, one per member, biased, with one lane per F of E, of which the chain's
    # mask holds its own F.
    universe = verify.Universe(spec)
    pool, width = universe.pool, universe.lanes.width
    chains, values = [], []
    passes, codimension_ = verify._chain_passes, verify.codimension

    def recording_passes(lanes, checked, qi, mask):
        fs = [fi for k, fi in enumerate(lanes.fs) if mask >> (k + 1) * width - 1 & 1]
        chains.append((checked, qi, lanes, fs, len(values)))
        return passes(lanes, checked, qi, mask)

    monkeypatch.setattr(verify, "_chain_passes", recording_passes)
    monkeypatch.setattr(verify, "codimension",
                        lambda *args: values.append(codimension_(*args)) or values[-1])
    count, lines, findings = verify.CHECKS["degeneration"][0](universe)
    assert not lines and not findings
    assert len({(checked.positions[0], qi) for checked, qi, _, _, _ in chains}) == len(chains)
    assert sum(len(fs) for _, _, _, fs, _ in chains) == count > 0
    for checked, qi, lanes, fs, first in chains:
        lane_of = {fi: k for k, fi in enumerate(lanes.fs)}
        for i, vi in enumerate(checked.positions):
            biased = values[first + i]
            c = [(biased >> lane_of[fi] * width & (1 << width) - 1) - (1 << width - 1)
                 for fi in fs]
            assert c == [c_value(pool[vi], pool[fi], pool[qi]) for fi in fs]


def test_a_chain_that_only_its_lanes_fail_is_named_by_one_line():
    # Lane F of the packed deg(F^{>=0}) row, one too high: the first-drop rule fails on that lane
    # of every chain whose F it is, and of every chain whose Q it is.  The per-triple rerun sums
    # deg(F^{>=0}) off the keys and passes each of them, so each is one line naming its chain.
    check = verify.CHECKS["degeneration"][0]
    universe = verify.Universe(SMALL_INT)
    pool, lanes = universe.pool, universe.lanes
    triples = [(ei, fi, qi) for ei, fi, group in verify._lane_groups(universe,
                                                                      verify.REDUCED_CONDITIONS)
               for qi in lanes.positions(group)]
    pushed = triples[0][1]
    lanes.nonneg += 1 << pushed * lanes.width
    expected = sorted({f"E={pool[ei]} Q={pool[qi]}: the lane route fails this chain, "
                       "the per-triple route passes it"
                       for ei, fi, qi in triples if pushed in (fi, qi)})
    count, lines, findings = check(universe)
    assert (count, sorted(lines), findings) == (len(triples), expected, [])
    assert 0 < len(expected) < len({(ei, qi) for ei, _, qi in triples})
