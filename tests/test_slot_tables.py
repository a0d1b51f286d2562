"""The record-level Cremona maps of weyl, p3 and p4 read precomputed slot
tables.  Each map is compared here with a reference copy of the formula as
it read before the tables (index arithmetic rebuilt on every call), on
seeded records with negative entries too and, for the five-point map, on
every center set; the normalizing words are pinned by a digest over
seeded plane pairs."""

import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from cremona import p3, p4, weyl

PAIR_POS = weyl.PAIR_POS
SRC = str(Path(__file__).resolve().parents[1] / "src")


# -- reference formulas ------------------------------------------------

def ref_cremona5_surface(rec, centers):
    c = weyl._check_centers(rec.s, centers)
    m, n, ml = rec.m, rec.n, rec.mline
    mtot = sum(m[i - 1] for i in c)
    ltot = sum(ml[PAIR_POS[q]] for q in combinations(c, 2))
    d2 = 6 * rec.d - 3 * mtot + ltot
    m2, n2, ml2 = list(m), list(n), list(ml)
    for i in c:
        rest = [r for r in c if r != i]
        lsum = sum(ml[PAIR_POS[q]] for q in combinations(rest, 2))
        m2[i - 1] = 3 * rec.d - 2 * (mtot - m[i - 1]) + lsum
    for q in combinations(c, 2):
        rest = [r for r in c if r not in q]
        lsum = sum(ml[PAIR_POS[p]] for p in combinations(rest, 2))
        ml2[PAIR_POS[q]] = rec.d - sum(m[r - 1] for r in rest) + lsum
    a, b, k = (x for x in range(1, 9) if x not in c)
    ml2[PAIR_POS[(a, b)]] = n[k - 1]
    ml2[PAIR_POS[(a, k)]] = n[b - 1]
    ml2[PAIR_POS[(b, k)]] = n[a - 1]
    n2[a - 1] = ml[PAIR_POS[(b, k)]]
    n2[b - 1] = ml[PAIR_POS[(a, k)]]
    n2[k - 1] = ml[PAIR_POS[(a, b)]]
    return weyl.SurfaceRecord(rec.s, d2, tuple(m2), tuple(n2), tuple(ml2))


def ref_p4_divisor(D):
    tot = sum(D.m)
    d2 = 4 * D.d - tot
    m2 = tuple(3 * D.d - (tot - D.m[i]) for i in p4.POINTS)
    ml2 = []
    for q in p4.PAIRS:
        t = p4.pair_complement(q)
        ml2.append(2 * D.d - sum(D.m[r] for r in t)
                   + D.mp[p4.TRIPLE_SLOT[t]])
    mp2 = []
    for t in p4.TRIPLES:
        q = p4.triple_complement(t)
        mp2.append(D.d - sum(D.m[r] for r in q) + D.ml[p4.PAIR_SLOT[q]])
    return p4.P4Divisor(d2, m2, tuple(ml2), tuple(mp2))


def ref_p4_curve(C):
    tot = sum(C.m)
    d2 = 4 * C.d - 3 * tot - 2 * sum(C.ml) - sum(C.mp)
    m2 = []
    for i in p4.POINTS:
        away_l = sum(C.ml[a] for a, q in enumerate(p4.PAIRS) if i not in q)
        away_p = sum(C.mp[a] for a, t in enumerate(p4.TRIPLES) if i not in t)
        m2.append(C.d - (tot - C.m[i]) - away_l - away_p)
    ml2 = tuple(C.mp[p4.TRIPLE_SLOT[p4.pair_complement(q)]]
                for q in p4.PAIRS)
    mp2 = tuple(C.ml[p4.PAIR_SLOT[p4.triple_complement(t)]]
                for t in p4.TRIPLES)
    return p4.P4Curve(d2, tuple(m2), ml2, mp2)


def ref_p4_surface(T):
    V_SLOT, TRIPLE_SLOT, PAIR_SLOT = p4.V_SLOT, p4.TRIPLE_SLOT, p4.PAIR_SLOT
    mln = [T.ml[a] - T.nl[a] for a in range(10)]
    brk = {}
    for t in p4.TRIPLES:
        for w in t:
            u, v = (c for c in t if c != w)
            brk[(t, (u, v))] = (T.mp[TRIPLE_SLOT[t]]
                                - T.np[V_SLOT[(t, u)]] - T.np[V_SLOT[(t, v)]])
    d2 = 6 * T.d - 3 * sum(T.m) + sum(mln)
    m2 = []
    for i in p4.POINTS:
        s = 3 * T.d - 2 * (sum(T.m) - T.m[i])
        s += sum(mln[a] for a, q in enumerate(p4.PAIRS) if i not in q)
        m2.append(s)
    ml2, nl2 = [], []
    for q in p4.PAIRS:
        t = p4.pair_complement(q)
        r, s, u = t
        vsum = sum(T.np[V_SLOT[(t, w)]] for w in t)
        ml2.append(T.d - T.m[r] - T.m[s] - T.m[u]
                   + sum(mln[PAIR_SLOT[rr]] for rr in combinations(t, 2))
                   + 2 * T.mp[TRIPLE_SLOT[t]] - vsum)
        nl2.append(2 * T.mp[TRIPLE_SLOT[t]] - vsum)
    mp2, np2 = [], [0] * 30
    for t in p4.TRIPLES:
        q = p4.triple_complement(t)
        r, s = q
        total = 0
        for w in t:
            total += brk[(tuple(sorted((r, s, w))), q)]
        mp2.append(2 * T.nl[PAIR_SLOT[q]] - total)
        for w in t:
            u, v = (c for c in t if c != w)
            tu = tuple(sorted((r, s, u)))
            tv = tuple(sorted((r, s, v)))
            np2[V_SLOT[(t, w)]] = (T.nl[PAIR_SLOT[q]]
                                   - brk[(tu, q)] - brk[(tv, q)])
    return p4.P4Surface(d2, tuple(m2), tuple(ml2), tuple(nl2),
                        tuple(mp2), tuple(np2))


def ref_p3_divisor(D):
    tot = sum(D.m)
    d2 = 3 * D.d - tot
    m2 = tuple(2 * D.d - (tot - mi) for mi in D.m)
    nl2 = []
    for q in p3.PAIRS:
        k, m = p3.pair_complement(q)
        nl2.append(D.d + D.nl[p3.PAIR_SLOT[(k, m)]] - D.m[k] - D.m[m])
    return p3.P3Divisor(d2, m2, tuple(nl2))


def ref_p3_curve(C):
    tot = sum(C.m)
    d2 = 3 * C.d - 2 * tot - sum(C.nl)
    m2 = []
    for i in p3.POINTS:
        away = sum(C.nl[a] for a, q in enumerate(p3.PAIRS) if i not in q)
        m2.append(C.d - (tot - C.m[i]) - away)
    nl2 = tuple(C.nl[p3.PAIR_SLOT[p3.pair_complement(q)]] for q in p3.PAIRS)
    return p3.P3Curve(d2, tuple(m2), nl2)


# -- seeded records ----------------------------------------------------

def rand_weyl_surface(rng, s, lo=-4, hi=6):
    def entry():
        return rng.randint(lo, hi)
    m = [entry() if i <= s else 0 for i in range(1, 9)]
    n = [entry() if k in weyl.quartic_slots(s) else 0 for k in range(1, 9)]
    ml = [entry() if j <= s else 0 for _, j in weyl.PAIRS8]
    return weyl.SurfaceRecord(s, entry(), m, n, ml)


def rand_record(rng, cls, lengths, lo=-4, hi=4):
    return cls(*[rng.randint(lo, hi) if n == 1 else
                 tuple(rng.randint(lo, hi) for _ in range(n))
                 for n in lengths])


RECORD_MAPS = [
    (p3.cremona_divisor, ref_p3_divisor, p3.P3Divisor, (1, 4, 6)),
    (p3.cremona_curve, ref_p3_curve, p3.P3Curve, (1, 4, 6)),
    (p4.cremona_divisor, ref_p4_divisor, p4.P4Divisor, (1, 5, 10, 10)),
    (p4.cremona_curve, ref_p4_curve, p4.P4Curve, (1, 5, 10, 10)),
    (p4.cremona_surface, ref_p4_surface, p4.P4Surface,
     (1, 5, 10, 10, 10, 30)),
]


# -- weyl.cremona5_surface ---------------------------------------------

@pytest.mark.parametrize("s", weyl.POINT_COUNTS)
def test_cremona5_surface_matches_reference_on_every_center_set(s):
    rng = random.Random(1300 + s)
    for centers in combinations(range(1, s + 1), 5):
        for _ in range(8):
            rec = rand_weyl_surface(rng, s)
            img = weyl.cremona5_surface(rec, centers)
            assert img == ref_cremona5_surface(rec, centers), (rec, centers)
            assert type(img.mline) is tuple and type(img.n) is tuple
            assert weyl.cremona5_surface(img, centers) == rec


def test_cremona5_surface_takes_unsorted_centers():
    rng = random.Random(5)
    for _ in range(50):
        rec = rand_weyl_surface(rng, 8)
        centers = tuple(rng.sample(range(1, 9), 5))
        assert (weyl.cremona5_surface(rec, centers)
                == ref_cremona5_surface(rec, tuple(sorted(centers))))


@pytest.mark.parametrize("centers", [
    (1, 2, 3, 4), (1, 2, 3, 4, 4), (0, 1, 2, 3, 4), (4, 5, 6, 7, 8, 9),
    (1, 2, 3, 4, 9), (1.0, 2, 3, 4, 5), (True, 2, 3, 4, 5), "12345"])
def test_cremona5_surface_bad_centers(centers):
    rec = weyl.s1_plane(1, 2, 3)
    with pytest.raises(weyl.BadCentersError):
        weyl.cremona5_surface(rec, centers)


def test_cremona5_surface_centers_beyond_s():
    rec = weyl.s1_plane(1, 2, 3, s=7)
    with pytest.raises(weyl.BadCentersError):
        weyl.cremona5_surface(rec, (1, 2, 3, 4, 8))


def test_cremona5_surface_image_is_checked():
    # an image entry of the wrong type fails the record check, as before
    rec = weyl.s1_plane(1, 2, 3)
    bad = weyl._prechecked(weyl.SurfaceRecord, 8, 1.5, rec.m, rec.n,
                           rec.mline)
    with pytest.raises(ValueError):
        weyl.cremona5_surface(bad, (1, 2, 3, 4, 5))


# -- p3 and p4 record maps --------------------------------------------

@pytest.mark.parametrize("new, ref, cls, lengths", RECORD_MAPS)
def test_record_map_matches_reference(new, ref, cls, lengths):
    rng = random.Random(sum(lengths) * 97)
    for _ in range(400):
        rec = rand_record(rng, cls, lengths)
        img = new(rec)
        assert img == ref(rec), rec
        assert type(img) is cls and new(img) == rec


@pytest.mark.parametrize("new, ref, cls, lengths", RECORD_MAPS)
def test_record_map_checks_its_image(new, ref, cls, lengths):
    rec = rand_record(random.Random(3), cls, lengths)
    bad = object.__new__(cls)
    for name, value in zip(cls.__match_args__, (rec.d + 0.5,)
                           + tuple(getattr(rec, f)
                                   for f in cls.__match_args__[1:])):
        object.__setattr__(bad, name, value)
    with pytest.raises(ValueError):
        new(bad)


def test_records_refuse_bad_entries():
    with pytest.raises(ValueError):
        p4.P4Surface(1, (0,) * 5, (0,) * 10, (0,) * 10, (0,) * 10, (0,) * 29)
    with pytest.raises(ValueError):
        p4.P4Divisor(1, (0,) * 5, (0,) * 10, (0,) * 9 + (True,))
    with pytest.raises(ValueError):
        p3.P3Curve(1, (0,) * 4, (0,) * 5 + (0.0,))


RECORDS_ONLY = """
from cremona import p3, p4

def unbuilt():
    raise SystemExit("a record map built a ring")

p3._build_ring = p4._build_ring = unbuilt
for f, rec in [
        (p3.cremona_divisor, p3.P3Divisor(2, (1,) * 4, (0,) * 6)),
        (p3.cremona_curve, p3.P3Curve(1, (1, 0, 0, 0), (0,) * 6)),
        (p4.cremona_divisor, p4.P4Divisor(1, (1,) * 5, (0,) * 10, (0,) * 10)),
        (p4.cremona_curve, p4.P4Curve(1, (0,) * 5, (0,) * 10, (0,) * 10)),
        (p4.cremona_surface, p4.P4Surface(1, (0,) * 5, (0,) * 10, (0,) * 10,
                                          (0,) * 10, (0,) * 30))]:
    assert f(f(rec)) == rec
"""


def test_record_maps_build_no_ring():
    # a fresh interpreter: the suite's own imports have built both rings
    proc = subprocess.run([sys.executable, "-c", RECORDS_ONLY], text=True,
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr


# -- normalizing words -------------------------------------------------

# sha256 over the find_normalizing_word results (refusals included) of the
# seeded plane pairs and the pairs meeting with multiplicity 3 below,
# computed with the formulas of the reference copies above; the words must
# stay byte-identical
WORDS_SHA256 = (
    "caecf7ae94ae016ced00cbdee6950220de92e02c969348c2f9d14c280a6975bb")


def normalizing_word_pairs(seed=2021, count=1000):
    rng = random.Random(seed)
    planes = {s: weyl.weyl_planes(s) for s in (7, 8)}
    pairs = []
    while len(pairs) < count:
        s = 7 if rng.random() < 0.3 else 8
        i, j = rng.randrange(len(planes[s])), rng.randrange(len(planes[s]))
        if i != j:
            pairs.append((s, i, j))
    pairs += [(s, i, j) for s in (7, 8)
              for i, R in enumerate(planes[s]) for j, T in enumerate(planes[s])
              if weyl.surface_form(R, T) == 3]
    return planes, pairs


def normalizing_word_lines():
    planes, pairs = normalizing_word_pairs()
    lines = []
    for s, i, j in pairs:
        try:
            word = repr(weyl.find_normalizing_word(planes[s][i], planes[s][j]))
        except weyl.NoNormalizingWordError:
            word = "refused"
        lines.append(f"{s} {i} {j} {word}")
    return lines


def test_normalizing_words_are_pinned():
    lines = normalizing_word_lines()
    assert sum(line.endswith("refused") for line in lines) > 100
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == WORDS_SHA256
