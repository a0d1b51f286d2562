"""Weyl orbits of lines, planes and hyperplanes through 6, 7, 8 points:
member counts, censuses, witnesses, closure, budget handling."""

from collections import Counter
from itertools import combinations
from math import factorial

import pytest

from cremona import weyl

HYPERPLANE_CENSUS_8 = {
    "(1;11110000)": 70,
    "(2;22111110)": 168,
    "(3;22222220)": 8,
    "(3;32222111)": 280,
    "(4;33332221)": 280,
    "(4;43222222)": 56,
    "(5;44333322)": 420,
    "(6;44444432)": 56,
    "(6;54443333)": 280,
    "(7;55544443)": 280,
    "(7;64444444)": 8,
    "(8;65555544)": 168,
    "(9;66665555)": 70,
    "(10;76666666)": 8,
}


def test_line_orbit_8():
    res = weyl.line_orbit(8)
    assert len(res.members) == 36
    assert dict(res.type_census) == {"line": 28, "quartic": 8}
    members = set(res.members)
    for i, j in combinations(range(1, 9), 2):
        assert weyl.line_record(i, j) in members
    for k in range(1, 9):
        assert weyl.quartic_record(k) in members


def test_plane_orbit_8():
    res = weyl.plane_orbit(8)
    assert len(res.members) == 204
    assert dict(res.type_census) == {
        "S1": 56, "S3": 56, "S6": 56, "S10": 28, "S15": 8}


def test_template_arrays_are_members():
    members = set(weyl.plane_orbit(8).members)
    assert weyl.s1_plane(1, 2, 3) in members
    assert weyl.s3_cubic(8, 1) in members
    assert weyl.s6_sextic(6, 7, 8) in members
    assert weyl.s10_surface(7, 8) in members
    assert weyl.s15_surface(1) in members


TEMPLATES = {"line": weyl.line_record, "quartic": weyl.quartic_record,
             "S1": weyl.s1_plane, "S3": weyl.s3_cubic, "S6": weyl.s6_sextic,
             "S10": weyl.s10_surface, "S15": weyl.s15_surface}


def _rebuild(tag, idx, s):
    if tag in ("S6", "S10", "S15"):
        return TEMPLATES[tag](*idx)
    return TEMPLATES[tag](*idx, s=s)


def _nudged(rec):
    # rec with one live slot moved by +1 or -1, for every live slot
    s = rec.s
    if isinstance(rec, weyl.CurveRecord):
        yield weyl.CurveRecord(s, rec.d + 1, rec.m)
        yield weyl.CurveRecord(s, rec.d - 1, rec.m)
        for i in range(s):
            for e in (1, -1):
                m = list(rec.m)
                m[i] += e
                yield weyl.CurveRecord(s, rec.d, m)
        return
    fields = [rec.d, *rec.m, *rec.n, *rec.mline]
    live = ([0] + [1 + i for i in range(s)]
            + [9 + k - 1 for k in weyl.quartic_slots(s)]
            + [17 + p for p, (_, j) in enumerate(weyl.PAIRS8) if j <= s])
    for pos in live:
        for e in (1, -1):
            f = list(fields)
            f[pos] += e
            yield weyl.SurfaceRecord(s, f[0], f[1:9], f[9:17], f[17:])


@pytest.mark.parametrize("s, n_curves, n_planes",
                         [(6, 15, 20), (7, 22, 42), (8, 36, 204)])
def test_classification_table_is_exact(s, n_curves, n_planes):
    # the BFS orbits are the reference, so the table is not checked
    # against the weyl_lines/weyl_planes it serves
    lines, planes_bfs = weyl.line_orbit(s).members, weyl.plane_orbit(s).members
    curves, planes = weyl._named_cycles(s)
    assert len(curves) == n_curves and len(planes) == n_planes
    assert set(curves) == set(lines)
    assert set(planes) == set(planes_bfs)
    for members, classify in ((lines, weyl.classify_curve),
                              (planes_bfs, weyl.classify_surface)):
        for rec in members:
            tag, idx = classify(rec)
            assert _rebuild(tag, idx, s) == rec
            assert all(classify(r) == ("Other", ()) for r in _nudged(rec))
    # the two tables stay apart: a curve never reads as a plane
    assert weyl.classify_surface(weyl.line_record(1, 2, s=s)) == ("Other", ())


@pytest.mark.parametrize("s", weyl.POINT_COUNTS)
def test_closed_forms_equal_bfs_members(s):
    # the library reads the orbits off templates and lattice equations;
    # the breadth-first search must give the same tuples, in the same order
    assert weyl.weyl_lines(s) == weyl.line_orbit(s).members
    assert weyl.weyl_planes(s) == weyl.plane_orbit(s).members
    assert weyl.weyl_divisors(s) == weyl.divisor_orbit(s).members


def test_divisor_orbit_8_census_frozen():
    res = weyl.divisor_orbit(8)
    assert len(res.members) == 2152
    assert dict(res.type_census) == HYPERPLANE_CENSUS_8


def test_divisor_census_matches_multinomials():
    # each type contributes one labeled record per distinct arrangement of
    # its multiplicity pattern, so the count is a multinomial coefficient
    for tag, n in weyl.divisor_orbit(8).type_census.items():
        mults = Counter(tag[tag.index(";") + 1:-1])
        multinomial = factorial(8)
        for v in mults.values():
            multinomial //= factorial(v)
        assert multinomial == n, tag


def test_orbits_7():
    assert len(weyl.line_orbit(7).members) == 22
    assert dict(weyl.line_orbit(7).type_census) == {"line": 21, "quartic": 1}
    assert len(weyl.plane_orbit(7).members) == 42
    assert dict(weyl.plane_orbit(7).type_census) == {"S1": 35, "S3": 7}
    res = weyl.divisor_orbit(7)
    assert len(res.members) == 57
    assert dict(res.type_census) == {
        "(1;1111000)": 35, "(2;2211111)": 21, "(3;2222222)": 1}


def test_orbits_6():
    assert len(weyl.line_orbit(6).members) == 15
    assert dict(weyl.line_orbit(6).type_census) == {"line": 15}
    assert len(weyl.plane_orbit(6).members) == 20
    assert dict(weyl.plane_orbit(6).type_census) == {"S1": 20}
    res = weyl.divisor_orbit(6)
    assert len(res.members) == 15
    assert dict(res.type_census) == {"(1;111100)": 15}


def test_witnesses_reach_every_member():
    for s in (6, 7, 8):
        for res in (weyl.line_orbit(s), weyl.plane_orbit(s)):
            assert set(res.witnesses) == set(res.members)
            assert res.seed in res.witnesses
            for member, word in res.witnesses.items():
                assert weyl.apply_word(res.seed, word) == member


def test_divisor_witnesses_reach_every_member():
    res = weyl.divisor_orbit(8)
    assert set(res.witnesses) == set(res.members)
    for member, word in res.witnesses.items():
        assert weyl.apply_word(res.seed, word) == member


def test_members_closed_under_generators():
    for res in (weyl.line_orbit(8), weyl.plane_orbit(8)):
        apply5 = (weyl.cremona5_curve if isinstance(res.seed, weyl.CurveRecord)
                  else weyl.cremona5_surface)
        members = set(res.members)
        contracted = set(res.contracted)
        for rec in res.members:
            for centers in combinations(range(1, 9), 5):
                img = apply5(rec, centers)
                if img.d > 0:
                    assert img in members
                else:
                    assert weyl.canonical_form(img)[0] in contracted


def test_line_orbit_contracted_records():
    res = weyl.line_orbit(8)
    # only one contraction shape shows up: a line whose two points are
    # both among the five centers
    assert len(res.contracted) == 1
    (rec,) = res.contracted
    assert rec.d == -2


def test_orbit_of_permuted_seed_matches():
    res = weyl.orbit(weyl.s1_plane(2, 5, 7))
    assert res.members == weyl.plane_orbit(8).members


def test_orbit_data_stays_nonnegative():
    for s in (6, 7, 8):
        for rec in weyl.line_orbit(s).members:
            assert rec.d > 0 and min(rec.m) >= 0
        for rec in weyl.plane_orbit(s).members:
            assert rec.d > 0
            assert min(rec.m) >= 0 and min(rec.n) >= 0 and min(rec.mline) >= 0
        for rec in weyl.divisor_orbit(s).members:
            assert rec.d > 0 and min(rec.m) >= 0


def test_plane_mline_values_in_013():
    for rec in weyl.plane_orbit(8).members:
        assert set(rec.mline) <= {0, 1, 3}


def test_orbit_budget():
    with pytest.raises(weyl.OrbitBudgetExceededError):
        weyl.orbit(weyl.line_record(1, 2), budget=10)


@pytest.mark.parametrize("budget", [40.9, "100", True, 36.0])
def test_orbit_budget_must_be_an_int(budget):
    # refused, not truncated (int(40.9) would cap the orbit at 40)
    with pytest.raises(ValueError, match="budget must hold integers"):
        weyl.orbit(weyl.line_record(1, 2), budget=budget)


def test_weyl_convenience_lists():
    assert len(weyl.weyl_lines(8)) == 36
    assert len(weyl.weyl_planes(8)) == 204
    assert len(weyl.weyl_divisors(8)) == 2152
    assert len(weyl.weyl_planes(7)) == 42
    assert len(weyl.weyl_lines(6)) == 15
