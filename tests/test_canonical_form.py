"""canonical_form against an exhaustive reference: the smallest record
over every relabeling that permutes the points inside each block of equal
(m_i, n_i), with no twin classes and no pruning.  The records are seeded
surface records on 6 and 7 points (Weyl planes, sums of two planes, their
Cremona images down to degree <= 0, and records with entries in {0, 1},
whose blocks are split by the line entries alone), plus every contracted
class of the built-in orbits."""

import random
from itertools import combinations, groupby, permutations, product
from operator import add

import pytest

from cremona import weyl


def ref_canonical(rec):
    # on divisor and curve records: the multiplicities sorted up
    if not isinstance(rec, weyl.SurfaceRecord):
        return type(rec)(rec.s, rec.d, tuple(sorted(rec.m)))
    s = rec.s

    def key(i):
        return rec.m[i - 1], rec.n[i - 1]

    blocks = [list(b) for _, b in groupby(sorted(range(1, s + 1), key=key), key)]
    best = None
    for choice in product(*(permutations(b) for b in blocks)):
        image = [0] * s
        for pos, i in enumerate((i for b in choice for i in b), start=1):
            image[i - 1] = pos
        got = weyl.apply_perm(rec, weyl.Perm(tuple(image)))
        if best is None or (got.m, got.n, got.mline) < (best.m, best.n, best.mline):
            best = got
    return best


def _plus(a, b):
    return weyl.SurfaceRecord(a.s, a.d + b.d, *(
        tuple(map(add, x, y))
        for x, y in ((a.m, b.m), (a.n, b.n), (a.mline, b.mline))))


def _binary_surface(rng, s):
    live = set(range(1, s + 1))
    return weyl.SurfaceRecord(
        s, rng.randint(-2, 3),
        tuple(rng.randint(0, 1) if i <= s else 0 for i in range(1, 9)),
        tuple(rng.randint(0, 1) if k in weyl.quartic_slots(s) else 0
              for k in range(1, 9)),
        tuple(rng.randint(0, 1) if set(q) <= live else 0
              for q in weyl.PAIRS8))


def _seeded_surfaces(s, count=40):
    rng = random.Random(f"canonical-oracle-{s}")
    planes = weyl.weyl_planes(s)
    centers5 = list(combinations(range(1, s + 1), 5))
    for k in range(count):
        T = rng.choice(planes)
        if k % 2:
            T = _plus(T, rng.choice(planes))
        image = list(range(1, s + 1))
        rng.shuffle(image)
        T = weyl.apply_perm(T, weyl.Perm(tuple(image)))
        yield T
        # the Cremona images, contracted ones included
        for centers in rng.sample(centers5, 3):
            yield weyl.apply_cremona5(T, centers)
        yield _binary_surface(rng, s)


def _check(rec):
    canon, perm = weyl.canonical_form(rec)
    assert canon == ref_canonical(rec), rec
    assert weyl.apply_perm(rec, perm) == canon


@pytest.mark.parametrize("s", [6, 7])
def test_canonical_form_matches_exhaustive_search(s):
    recs = list(_seeded_surfaces(s))
    # the seeds reach contracted images and blocks split by lines alone
    assert any(r.d <= 0 for r in recs)
    for rec in recs:
        _check(rec)


@pytest.mark.parametrize("s", [6, 7, 8])
def test_contracted_classes_of_builtin_orbits(s):
    for res in (weyl.line_orbit(s), weyl.plane_orbit(s),
                weyl.divisor_orbit(s)):
        assert res.contracted
        for rec in res.contracted:
            _check(rec)
