"""The line and quartic terms counted over the value classes of m, and the
report's listing, against a brute-force scan of every point pair and every
seven point subset; plus the bounds on both."""

import random
import time
from itertools import combinations
from math import comb

import pytest

from cremona import cli, linsys, weyl

F = linsys.FatPointDivisor


def brute(D):
    # (lines, quartics, deep, h1corr) straight from the definitions: every
    # pair and every seven labels, in lex order; on at most eight points a
    # quartic is named by its Q_k slot, the label it misses
    s, d, m = D.s, D.d, D.m
    labels = range(1, s + 1)
    lines = {}
    for i, j in combinations(labels, 2):
        k = m[i - 1] + m[j - 1] - d
        if k > 0:
            lines[(i, j)] = k
    quartics = {}
    for sub in combinations(labels, 7):
        k = sum(m[i - 1] for i in sub) - 4 * d
        if k > 0:
            if s <= 8:
                (missing,) = set(weyl.quartic_slots(s)) - set(sub)
                quartics[missing] = k
            else:
                quartics[sub] = k
    deep = [("line", idx, k) for idx, k in lines.items() if k >= 2]
    deep += [("quartic", idx if s > 8 else (idx,), k)
             for idx, k in sorted(quartics.items()) if k >= 2]
    h1 = sum(comb(2 + k, 4) for *_, k in deep)
    return lines, quartics, tuple(deep), h1


def seeded_divisors(seed, count, most=14):
    rng = random.Random(seed)
    for _ in range(count):
        s = rng.randint(1, most)
        d = rng.randint(-2, 6)
        yield F(s, d, tuple(rng.randint(-2, max(d, 0) + 2) for _ in range(s)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_counts_and_report_match_the_scan(seed):
    # s = 1..14 with d <= 0 and negative entries among them; the listing
    # order is part of the answer (the --json report prints it)
    for D in seeded_divisors(seed, 150):
        lines, quartics, deep, h1 = brute(D)
        assert linsys.h1_correction(D) == h1
        assert linsys.wdim(D, lines_only=True) == linsys.chi(D) + h1
        rep = linsys.base_locus_report(D)
        assert list(rep.lines.items()) == list(lines.items())
        assert list(rep.quartics.items()) == sorted(quartics.items())
        assert rep.deep_curves == deep
        assert rep.h1corr == h1


def test_counts_on_repeated_values_past_eight_points():
    # few value classes with many points each, where the counts multiply
    # binomials instead of visiting subsets
    rng = random.Random(4)
    for _ in range(40):
        s = rng.randint(9, 14)
        d = rng.randint(0, 4)
        values = rng.sample(range(-1, d + 3), 2)
        D = F(s, d, tuple(rng.choice(values) for _ in range(s)))
        *_, h1 = brute(D)
        assert linsys.h1_correction(D) == h1


def test_h1_correction_past_the_old_subset_bound():
    # (1; 1^40): lines have k = 1 and add nothing, each of the C(40, 7)
    # quartics has k = 3 and adds C(5, 4) = 5
    D = F(40, 1, (1,) * 40)
    start = time.perf_counter()
    assert linsys.h1_correction(D) == 5 * comb(40, 7) == 93_217_800
    assert time.perf_counter() - start < 0.1
    assert linsys.wdim(D, lines_only=True) == linsys.chi(D) + 93_217_800
    # (3; 1^24): no curve has k > 0
    assert linsys.h1_correction(F(24, 3, (1,) * 24)) == 0


def test_report_past_23_points_counts_before_listing():
    rep = linsys.base_locus_report(F(24, 3, (1,) * 24))
    assert rep.lines == {} and rep.quartics == {} and rep.deep_curves == ()
    # the two points of value 5 meet in a line with k = 10 - 3 = 7 and
    # each meets every other point in a line with k = 6 - 3 = 3; the
    # quartics through both have k = 10 + 5 - 12 = 3, the rest k <= -1
    D = F(26, 3, (5, 5) + (1,) * 24)
    rep = linsys.base_locus_report(D)
    assert rep.lines == {(1, 2): 7, **{(i, j): 3 for i in (1, 2)
                                       for j in range(3, 27)}}
    assert len(rep.quartics) == comb(24, 5)
    assert set(rep.quartics.values()) == {3}
    assert next(iter(rep.quartics)) == (1, 2, 3, 4, 5, 6, 7)
    assert list(rep.quartics) == sorted(rep.quartics)
    assert rep.h1corr == linsys.h1_correction(D) == (
        comb(9, 4) + (48 + comb(24, 5)) * comb(5, 4))


def test_report_refuses_what_it_would_list(monkeypatch):
    # the bound counts listed curves, quartics or lines, not subsets
    monkeypatch.setattr(linsys, "MAX_QUARTIC_SUBSETS", 100)
    with pytest.raises(ValueError, match="276 lines with k > 0 on 24 points "
                       "are more than the scan covers"):
        linsys.base_locus_report(F(24, 1, (1,) * 24))
    # 66 lines with k > 0 pass; the C(21, 4) quartics through the three
    # points of value 3 (k = 9 + 8 - 16 = 1) do not
    with pytest.raises(ValueError, match="5985 quartics with k > 0 on 24 "
                       "points are more than the scan covers"):
        linsys.base_locus_report(F(24, 4, (3, 3, 3) + (2,) * 21))
    with pytest.raises(ValueError, match="792 quartics with k > 0"):
        linsys.base_locus_report(F(12, 1, (1,) * 12))
    monkeypatch.undo()
    assert len(linsys.base_locus_report(F(12, 1, (1,) * 12)).quartics) == 792


def test_count_state_bound():
    # every subset of at most seven of 23 points: no input on 23 points or
    # fewer can hold more states than that
    assert linsys.MAX_COUNT_STATES == sum(comb(23, n) for n in range(8))


def test_counts_refuse_past_the_state_bound(monkeypatch):
    # distinct powers of two give every subset its own sum, so the states
    # grow as the subsets do; a small bound shows the refusal without
    # running anything large
    D = F(12, 0, tuple(2 ** i for i in range(12)))
    expected = linsys.h1_correction(D)
    monkeypatch.setattr(linsys, "MAX_COUNT_STATES", 200)
    with pytest.raises(ValueError, match="counting the quartics takes more "
                       "than 200 states"):
        linsys.h1_correction(D)
    monkeypatch.setattr(linsys, "MAX_COUNT_STATES", 20)
    with pytest.raises(ValueError, match="counting the lines takes more "
                       "than 20 states"):
        linsys.h1_correction(D)
    monkeypatch.undo()
    assert linsys.h1_correction(D) == expected


def test_cli_report_past_23_points(capsys, tmp_path):
    src = tmp_path / "d.json"
    src.write_text('{"kind": "divisor", "s": 24, "d": 3, "m": [%s]}'
                   % ", ".join(["1"] * 24))
    rc = cli.main(["report", "--in", str(src)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines() == [
        f"chi={linsys.chi(F(24, 3, (1,) * 24))} "
        f"wdim(lines-only)={linsys.chi(F(24, 3, (1,) * 24))} h1corr=0",
        "lines: none", "quartics: none"]


def test_report_walk_takes_no_step_that_lists_nothing(monkeypatch):
    # the quartic walk descends only where its best completion has k > 0,
    # so each pair walk it ends in lists at least one pair; the first pair
    # walk of a report is the line listing, which may be empty
    results = []
    pair_walk = linsys._pair_walk

    def recorded(ranked, start, base):
        results.append(pair_walk(ranked, start, base))
        return results[-1]

    monkeypatch.setattr(linsys, "_pair_walk", recorded)
    for D in seeded_divisors(5, 150):
        if D.s > 8:
            results.clear()
            linsys.base_locus_report(D)
            assert all(results[1:])
