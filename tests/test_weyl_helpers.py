"""The five point Cremona on point records is one step, and the four
relabeling loops read one scatter helper.  Each is compared here with a
reference copy of the code it replaced, on seeded records on 6, 7 and 8
points with entries from -3 to 9, and for the Cremona on every center
set."""

import random
from itertools import combinations

import pytest

from cremona import weyl

PAIR_POS, PAIRS8 = weyl.PAIR_POS, weyl.PAIRS8


# -- reference copies ----------------------------------------------------

def ref_cremona5_divisor(rec, centers):
    c = weyl._check_centers(rec.s, centers)
    tot = sum(rec.m[i - 1] for i in c)
    m = list(rec.m)
    for i in c:
        m[i - 1] = 3 * rec.d - (tot - rec.m[i - 1])
    return weyl.DivisorRecord(rec.s, 4 * rec.d - tot, tuple(m))


def ref_cremona5_curve(rec, centers):
    c = weyl._check_centers(rec.s, centers)
    tot = sum(rec.m[i - 1] for i in c)
    m = list(rec.m)
    for i in c:
        m[i - 1] = rec.d - (tot - rec.m[i - 1])
    return weyl.CurveRecord(rec.s, 4 * rec.d - 3 * tot, tuple(m))


def ref_inverse(perm):
    inv = [0] * perm.s
    for i, v in enumerate(perm.image, start=1):
        inv[v - 1] = i
    return weyl.Perm(tuple(inv))


def ref_perm_from_order(order, s):
    image = [0] * s
    for pos, i in enumerate(order, start=1):
        image[i - 1] = pos
    return weyl.Perm(tuple(image))


def ref_permuted_surface_data(rec, image):
    img = list(image) + list(range(rec.s + 1, 9))
    m, n, ml = [0] * 8, [0] * 8, [0] * 28
    for i in range(8):
        m[img[i] - 1] = rec.m[i]
        n[img[i] - 1] = rec.n[i]
    for k, (i, j) in enumerate(PAIRS8):
        a, b = img[i - 1], img[j - 1]
        if a > b:
            a, b = b, a
        ml[PAIR_POS[(a, b)]] = rec.mline[k]
    return tuple(m), tuple(n), tuple(ml)


def ref_relabel(rec, image):
    if isinstance(rec, weyl._PointRecord):
        m = [0] * rec.s
        for i, v in enumerate(image):
            m[v - 1] = rec.m[i]
        return type(rec)(rec.s, rec.d, tuple(m))
    return weyl.SurfaceRecord(rec.s, rec.d,
                              *ref_permuted_surface_data(rec, image))


# -- seeded records ------------------------------------------------------

def entry(rng):
    return rng.randint(-3, 9)


def rand_point_record(rng, cls, s):
    return cls(s, entry(rng), tuple(entry(rng) for _ in range(s)))


def rand_surface(rng, s):
    m = [entry(rng) if i <= s else 0 for i in range(1, 9)]
    n = [entry(rng) if k in weyl.quartic_slots(s) else 0 for k in range(1, 9)]
    ml = [entry(rng) if j <= s else 0 for _, j in PAIRS8]
    return weyl.SurfaceRecord(s, entry(rng), m, n, ml)


def rand_image(rng, s):
    image = list(range(1, s + 1))
    rng.shuffle(image)
    return tuple(image)


POINT_MAPS = [
    (weyl.cremona5_divisor, ref_cremona5_divisor, weyl.DivisorRecord),
    (weyl.cremona5_curve, ref_cremona5_curve, weyl.CurveRecord),
]


# -- the point step ------------------------------------------------------

@pytest.mark.parametrize("s", weyl.POINT_COUNTS)
@pytest.mark.parametrize("new, ref, cls", POINT_MAPS,
                         ids=["divisor", "curve"])
def test_point_cremona_matches_reference_on_every_center_set(s, new, ref,
                                                            cls):
    rng = random.Random(1500 + s + 10 * (cls is weyl.CurveRecord))
    for centers in combinations(range(1, s + 1), 5):
        for _ in range(20):
            rec = rand_point_record(rng, cls, s)
            img = new(rec, centers)
            assert img == ref(rec, centers), (rec, centers)
            assert type(img) is cls
            assert new(img, centers) == rec
            assert weyl.apply_cremona5(rec, centers) == img
        rec = rand_point_record(rng, cls, s)
        shuffled = list(centers)
        rng.shuffle(shuffled)
        assert new(rec, tuple(shuffled)) == ref(rec, centers)


@pytest.mark.parametrize("new, ref, cls", POINT_MAPS,
                         ids=["divisor", "curve"])
@pytest.mark.parametrize("s, centers", [
    (8, (1, 2, 3, 4)), (8, (1, 2, 3, 4, 4)), (8, (0, 1, 2, 3, 4)),
    (8, (1, 2, 3, 4, 9)), (8, (1.0, 2, 3, 4, 5)), (8, (True, 2, 3, 4, 5)),
    (6, (1, 2, 3, 4, 7)), (7, (4, 5, 6, 7, 8))])
def test_point_cremona_bad_centers(new, ref, cls, s, centers):
    rec = cls(s, 1, (1,) * 4 + (0,) * (s - 4))
    with pytest.raises(weyl.BadCentersError) as got:
        new(rec, centers)
    with pytest.raises(weyl.BadCentersError) as want:
        ref(rec, centers)
    assert str(got.value) == str(want.value) == (
        f"need five distinct centers within 1..{s}: {centers}")


# -- the scatter helper --------------------------------------------------

@pytest.mark.parametrize("s", weyl.POINT_COUNTS)
def test_relabel_matches_reference(s):
    rng = random.Random(1600 + s)
    for _ in range(300):
        image = rand_image(rng, s)
        for rec in (rand_point_record(rng, weyl.DivisorRecord, s),
                    rand_point_record(rng, weyl.CurveRecord, s),
                    rand_surface(rng, s)):
            got = weyl._relabel(rec, image)
            assert got == ref_relabel(rec, image), (rec, image)
            assert type(got) is type(rec)
            assert weyl.apply_perm(rec, weyl.Perm(image)) == got


@pytest.mark.parametrize("s", weyl.POINT_COUNTS)
def test_surface_data_matches_reference(s):
    rng = random.Random(1700 + s)
    for _ in range(300):
        rec, image = rand_surface(rng, s), rand_image(rng, s)
        assert (weyl._permuted_surface_data(rec, image)
                == ref_permuted_surface_data(rec, image))


@pytest.mark.parametrize("s", range(1, 10))
def test_perm_inverse_and_order_match_reference(s):
    rng = random.Random(1800 + s)
    for _ in range(200):
        image = rand_image(rng, s)
        perm = weyl.Perm(image)
        assert perm.inverse() == ref_inverse(perm)
        order = list(image)
        assert (weyl._perm_from_order(order, s)
                == ref_perm_from_order(order, s))

