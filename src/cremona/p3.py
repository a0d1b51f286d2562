"""Chow ring of P^3 blown up at the four coordinate points and the six
lines joining them, with the lifted Cremona involution.

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

from dataclasses import dataclass
from itertools import combinations

from .chow import (ChowClass, ChowRing, ImageRows, IntRecord,
                   WrongGradeError, build_once, linear_map, record_class,
                   record_from_class, record_layout)

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


def _involution_images(R: ChowRing) -> dict:
    img = {}
    img[R.element("one")] = R.cls("one")
    img[R.element("p")] = R.cls("p")

    terms = [(("H", ()), 3)]
    terms += [(("E", (i,)), -2) for i in POINTS]
    terms += [(("E", q), -1) for q in PAIRS]
    img[R.element("H")] = R.make_class(1, terms)
    for i in POINTS:
        terms = [(("H", ()), 1)]
        terms += [(("E", (t,)), -1) for t in POINTS if t != i]
        terms += [(("E", q), -1) for q in PAIRS if i not in q]
        img[R.element("E", (i,))] = R.make_class(1, terms)
    for q in PAIRS:
        img[R.element("E", q)] = R.cls(("E", pair_complement(q)))

    terms = [(("l", ()), 3)] + [(("l", (i,)), -1) for i in POINTS]
    img[R.element("l")] = R.make_class(2, terms)
    for i in POINTS:
        terms = [(("l", ()), 2)]
        terms += [(("l", (t,)), -1) for t in POINTS if t != i]
        img[R.element("l", (i,))] = R.make_class(2, terms)
    for q in PAIRS:
        k, m = pair_complement(q)
        img[R.element("f", q)] = R.make_class(2, [
            (("f", (k, m)), 1), (("l", ()), 1),
            (("l", (k,)), -1), (("l", (m,)), -1)])
    return img


@dataclass(frozen=True)
class _P3Record(IntRecord):
    # the body shared by divisor and curve records (distinct types)

    FIELDS = (("m", 4), ("nl", 6))

    d: int
    m: tuple
    nl: tuple


class P3Divisor(_P3Record):
    """Divisor record (d; m_0..m_3; n over PAIRS order)."""


class P3Curve(_P3Record):
    """Curve record (d; m_0..m_3; n over PAIRS order)."""


class _Tables:
    """The X3 ring and what is looked up in it once: the involution's
    basis images and the record layouts."""

    def __init__(self):
        R = self.ring = _build_ring()
        self.involution = ImageRows(R, _involution_images(R))
        self.divisor = record_layout(R, P3Divisor, ("H",),
                                     (-1, [("E", (i,)) for i in POINTS]),
                                     (-1, [("E", q) for q in PAIRS]))
        self.curve = record_layout(R, P3Curve, ("l",),
                                   (-1, [("l", (i,)) for i in POINTS]),
                                   (-1, [("f", q) for q in PAIRS]))


# built on first use, so a program that never touches the ring (most CLI
# commands) does not pay for it
_tables = build_once(_Tables)


def __getattr__(name):
    # RING and _INVOLUTION read like module constants (PEP 562)
    if name == "RING":
        return _tables().ring
    if name == "_INVOLUTION":
        return _tables().involution
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# where the record maps read their entries, as slot numbers, built at
# import and apart from the ring: per point, the pairs that avoid it; per
# pair, its complementary pair (slot, points)
_PAIRS_AWAY = tuple(tuple(a for a, q in enumerate(PAIRS) if i not in q)
                    for i in POINTS)
_BY_PAIR = tuple((PAIR_SLOT[q], q) for q in map(pair_complement, PAIRS))


def cremona(x: ChowClass) -> ChowClass:
    """Lifted standard Cremona involution of P^3, as a ring automorphism."""
    tab = _tables()
    if x.ring is not tab.ring:
        raise WrongGradeError("class does not belong to the P^3 ring")
    return linear_map(x, tab.involution)


def divisor_class(D: P3Divisor) -> ChowClass:
    return record_class(_tables().divisor, D)


def divisor_from_class(x: ChowClass) -> P3Divisor:
    return record_from_class(x, _tables().divisor)


def curve_class(C: P3Curve) -> ChowClass:
    return record_class(_tables().curve, C)


def curve_from_class(x: ChowClass) -> P3Curve:
    return record_from_class(x, _tables().curve)


def cremona_divisor(D: P3Divisor) -> P3Divisor:
    """Cremona image of a divisor record; involutive."""
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
    d, m, nl = C.d, C.m, C.nl
    tot = sum(m)
    m2 = tuple([d - tot + x - sum([nl[a] for a in pairs])
                for x, pairs in zip(m, _PAIRS_AWAY)])
    nl2 = tuple([nl[a] for a, _ in _BY_PAIR])
    return P3Curve(3 * d - 2 * tot - sum(nl), m2, nl2)


def normalize(terms) -> ChowClass:
    """Expand a symbolic combination (g_ij allowed) into basis cycles."""
    return _tables().ring.normalize(terms)
