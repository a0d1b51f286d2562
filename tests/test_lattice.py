"""Lattice invariants of the Weyl action, checked without orbit words.

The generators act on records by integer formulas.  Three integer forms
are preserved by every Cremona and every relabeling:

* the divisor form b(D, D') = 3dd' - sum m_i m'_i,
* the divisor-curve pairing <D, C> = dc - sum m_i mu_i,
* the surface form d d' - sum m_i m'_i + sum n_k n'_k + sum m_ij m'_ij.

The fast k values and the plane pairing are these forms, so the forms
are written out here again, independently of the library, and checked
on random records.  The library's hyperplane classes, the solutions of
two integer equations, are compared with the breadth-first orbit.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from cremona import linsys, weyl

SETTINGS = settings(max_examples=150, deadline=None)
ENTRY = st.integers(-12, 12)


def b_form(D, E):
    return 3 * D.d * E.d - sum(x * y for x, y in zip(D.m, E.m))


def dc_pairing(D, C):
    return D.d * C.d - sum(x * y for x, y in zip(D.m, C.m))


def surface_pairing(R, T):
    return (R.d * T.d - sum(x * y for x, y in zip(R.m, T.m))
            + sum(x * y for x, y in zip(R.n, T.n))
            + sum(x * y for x, y in zip(R.mline, T.mline)))


@st.composite
def moves(draw, s):
    """Five Cremona centers and a relabeling of 1..s."""
    centers = tuple(sorted(draw(st.permutations(range(1, s + 1)))[:5]))
    perm = weyl.Perm(tuple(draw(st.permutations(range(1, s + 1)))))
    return centers, perm


@st.composite
def divisor_curve_case(draw):
    s = draw(st.sampled_from(weyl.POINT_COUNTS))
    m = st.lists(ENTRY, min_size=s, max_size=s)
    D = weyl.DivisorRecord(s, draw(ENTRY), draw(m))
    E = weyl.DivisorRecord(s, draw(ENTRY), draw(m))
    C = weyl.CurveRecord(s, draw(ENTRY), draw(m))
    return D, E, C, draw(moves(s))


def surface8():
    return st.builds(lambda d, m, n, ml: weyl.SurfaceRecord(8, d, m, n, ml),
                     ENTRY, st.lists(ENTRY, min_size=8, max_size=8),
                     st.lists(ENTRY, min_size=8, max_size=8),
                     st.lists(ENTRY, min_size=28, max_size=28))


@SETTINGS
@given(divisor_curve_case())
def test_divisor_and_curve_forms_preserved(case):
    D, E, C, (centers, perm) = case
    b, dc = b_form(D, E), dc_pairing(D, C)
    D2, E2 = weyl.cremona5_divisor(D, centers), weyl.cremona5_divisor(E, centers)
    C2 = weyl.cremona5_curve(C, centers)
    assert b_form(D2, E2) == b
    assert dc_pairing(D2, C2) == dc
    assert b_form(weyl.apply_perm(D, perm), weyl.apply_perm(E, perm)) == b
    assert dc_pairing(weyl.apply_perm(D, perm), weyl.apply_perm(C, perm)) == dc
    # each Cremona is an involution on the records
    assert weyl.cremona5_divisor(D2, centers) == D
    assert weyl.cremona5_curve(C2, centers) == C


@SETTINGS
@given(surface8(), surface8(), moves(8))
def test_surface_form_preserved(R, T, mv):
    # s = 8, so all 45 slots of both records are live
    centers, perm = mv
    q = surface_pairing(R, T)
    assert weyl.surface_form(R, T) == q
    R2, T2 = weyl.cremona5_surface(R, centers), weyl.cremona5_surface(T, centers)
    assert surface_pairing(R2, T2) == q
    assert surface_pairing(weyl.apply_perm(R, perm), weyl.apply_perm(T, perm)) == q
    assert weyl.cremona5_surface(R2, centers) == R


@st.composite
def record_case(draw):
    """A divisor, curve or surface record on s = 6, 7 or 8 points (zero in
    the slots that do not exist for s), with a Cremona and a relabeling."""
    s = draw(st.sampled_from(weyl.POINT_COUNTS))
    kind = draw(st.sampled_from(("divisor", "curve", "surface")))
    d, m = draw(ENTRY), draw(st.lists(ENTRY, min_size=s, max_size=s))
    if kind == "divisor":
        rec = weyl.DivisorRecord(s, d, m)
    elif kind == "curve":
        rec = weyl.CurveRecord(s, d, m)
    else:
        n = [draw(ENTRY) if k in weyl.quartic_slots(s) else 0
             for k in range(1, 9)]
        ml = [draw(ENTRY) if j <= s else 0 for _, j in weyl.PAIRS8]
        rec = weyl.SurfaceRecord(s, d, m + [0] * (8 - s), n, ml)
    return rec, draw(moves(s))


@SETTINGS
@given(record_case())
def test_cremona_is_relabeling_equivariant(case):
    # sigma . cremona5(r, I) = cremona5(sigma . r, sigma(I))
    rec, (centers, perm) = case
    moved = tuple(sorted(perm(i) for i in centers))
    assert (weyl.apply_perm(weyl.apply_cremona5(rec, centers), perm)
            == weyl.apply_cremona5(weyl.apply_perm(rec, perm), moved))


def unit_surfaces():
    """The 45 surface records on eight points with one slot 1, the rest 0."""
    for pos in range(45):
        f = [0] * 45
        f[pos] = 1
        yield weyl.SurfaceRecord(8, f[0], f[1:9], f[9:17], f[17:])


def test_plane_curve_form_is_weyl_equivariant():
    # k_weyl_plane reads Gamma_T off a fixed linear map of T's record.  The
    # map, the Cremonas and the relabelings are all linear, so commuting
    # on the unit records with every Cremona and every adjacent swap means
    # commuting with every word; with S_1(123) -> 2l - l_1 - l_2 - l_3 the
    # map is the transport of that class along any normalizing word
    gamma = linsys._plane_curve
    assert gamma(weyl.s1_plane(1, 2, 3)) == \
        weyl.CurveRecord(8, 2, (1, 1, 1, 0, 0, 0, 0, 0))
    swaps = [weyl.Perm(tuple(range(1, t)) + (t + 1, t) + tuple(range(t + 2, 9)))
             for t in range(1, 8)]
    for R in unit_surfaces():
        G = gamma(R)
        for centers in combinations(range(1, 9), 5):
            assert gamma(weyl.cremona5_surface(R, centers)) == \
                weyl.cremona5_curve(G, centers)
        for tau in swaps:
            assert gamma(weyl.apply_perm(R, tau)) == weyl.apply_perm(G, tau)


def test_hyperplane_orbit_is_the_lattice_solution_set():
    # every BFS member solves b(W, W) = -1, 5d - sum m = 1, d >= 1, and
    # weyl_divisors, the enumerated solution set, is the whole orbit
    for s, size in ((6, 15), (7, 57), (8, 2152)):
        orbit = weyl.divisor_orbit(s).members
        assert len(orbit) == size
        for W in orbit:
            assert b_form(W, W) == -1 and 5 * W.d - sum(W.m) == 1 and W.d >= 1
        assert set(weyl.weyl_divisors(s)) == set(orbit)
