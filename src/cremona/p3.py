"""Chow ring of P^3 blown up at the four coordinate points and the six
lines joining them; ``chow.Space`` derives its lifted Cremona involution.

Basis, 24 cycles in codimensions 0..3:

    1;  H, E_i, E_ij;  l, l_i, f_ij;  p

H is the hyperplane pullback, E_i and E_ij the exceptional divisors over
the points and lines, l a general line, l_i a line inside E_i, f_ij a
fiber of E_ij over its line, p the point class.  The section ruling
g_ij = f_ij + l - l_i - l_j of E_ij is available as a derived symbol
through ``RING.normalize``.

Divisor and curve records follow the sign conventions

    D = d*H - sum_i m_i E_i - sum_ij n_ij E_ij
    C = d*l - sum_i m_i l_i - sum_ij n_ij f_ij

so effective geometry has nonnegative entries.
"""

from __future__ import annotations

from itertools import combinations

from .chow import (ChowClass, ChowRing, IntRecord, Space, check_kind,
                   linear_map)

POINTS = tuple(range(4))
PAIRS = tuple(combinations(POINTS, 2))
PAIR_SLOT = {q: a for a, q in enumerate(PAIRS)}


def pair_complement(q):
    return tuple(t for t in POINTS if t not in q)


def _build_ring() -> ChowRing:
    R = ChowRing("X3", 3)
    R.add_basis(0, "one")
    H = R.add_basis(1, "H")
    E1 = {i: R.add_basis(1, "E", (i,)) for i in POINTS}
    E2 = {q: R.add_basis(1, "E", q) for q in PAIRS}
    l0 = R.add_basis(2, "l")
    l1 = {i: R.add_basis(2, "l", (i,)) for i in POINTS}
    f2 = {q: R.add_basis(2, "f", q) for q in PAIRS}
    p = R.add_basis(3, "p")

    deg1 = [H] + list(E1.values()) + list(E2.values())

    R.set_product(H, H, [(l0, 1)])
    for i in POINTS:
        R.set_product(H, E1[i], [])
        for j in POINTS:
            if i <= j:
                R.set_product(E1[i], E1[j], [(l1[i], -1)] if i == j else [])
    for q in PAIRS:
        i, j = q
        R.set_product(H, E2[q], [(f2[q], 1)])
        for t in POINTS:
            R.set_product(E1[t], E2[q], [(f2[q], 1)] if t in q else [])
        for r in PAIRS:
            if r < q:
                continue
            if r == q:
                R.set_product(E2[q], E2[q],
                              [(f2[q], -2), (l0, -1), (l1[i], 1), (l1[j], 1)])
            else:
                R.set_product(E2[q], E2[r], [])

    for a in deg1:
        R.set_product(a, l0, [(p, 1)] if a is H else [])
        for i in POINTS:
            hit = a.kind == "E" and a.idx == (i,)
            R.set_product(a, l1[i], [(p, -1)] if hit else [])
        for q in PAIRS:
            hit = a.kind == "E" and a.idx == q
            R.set_product(a, f2[q], [(p, -1)] if hit else [])

    for q in PAIRS:
        i, j = q
        R.add_derived("g", q, -1, R.make_class(
            2, [(f2[q], 1), (l0, 1), (l1[i], -1), (l1[j], -1)]))

    R.finalize()
    return R


class _P3Record(IntRecord):
    # the body shared by divisor and curve records (distinct types)

    FIELDS = (("m", 4), ("nl", 6))


class P3Divisor(_P3Record):
    """Divisor record (d; m_0..m_3; n over PAIRS order)."""


class P3Curve(_P3Record):
    """Curve record (d; m_0..m_3; n over PAIRS order)."""


# ring, derived involution and record layouts, built on first use;
# each kind: record type, the cycle of d, (sign, cycles) per field
_space = Space(globals(), "P^3", {
    "divisor": (P3Divisor, ("H",), (-1, [("E", (i,)) for i in POINTS]),
                (-1, [("E", q) for q in PAIRS])),
    "curve": (P3Curve, ("l",), (-1, [("l", (i,)) for i in POINTS]),
              (-1, [("f", q) for q in PAIRS])),
})


# where the record maps read their entries, as slot numbers, built at
# import and apart from the ring: per point, the pairs that avoid it; per
# pair, its complementary pair (slot, points)
_PAIRS_AWAY = tuple(tuple(a for a, q in enumerate(PAIRS) if i not in q)
                    for i in POINTS)
_BY_PAIR = tuple((PAIR_SLOT[q], q) for q in map(pair_complement, PAIRS))


def cremona(x: ChowClass) -> ChowClass:
    """Lifted standard Cremona involution of P^3, as a ring automorphism."""
    return linear_map(x, _space.involution_of(x))


def cremona_divisor(D: P3Divisor) -> P3Divisor:
    """Cremona image of a divisor record; involutive."""
    check_kind(D, P3Divisor)
    d, m, nl = D.d, D.m, D.nl
    tot = sum(m)
    m2 = tuple([2 * d - tot + x for x in m])
    # n' at a pair reads its complementary pair (i, j)
    nl2 = tuple([d + nl[a] - m[i] - m[j] for a, (i, j) in _BY_PAIR])
    return P3Divisor(3 * d - tot, m2, nl2)


def cremona_curve(C: P3Curve) -> P3Curve:
    """Cremona image of a curve record; involutive.

    With all n_ij = 0 this restricts to the multiplicity-only rule
    d' = 3d - 2*sum(m), m_i' = d - sum of the other three.
    """
    check_kind(C, P3Curve)
    d, m, nl = C.d, C.m, C.nl
    tot = sum(m)
    m2 = tuple([d - tot + x - sum([nl[a] for a in pairs])
                for x, pairs in zip(m, _PAIRS_AWAY)])
    nl2 = tuple([nl[a] for a, _ in _BY_PAIR])
    return P3Curve(3 * d - 2 * tot - sum(nl), m2, nl2)
