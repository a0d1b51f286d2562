"""Chow ring of P^4 blown up along the resolution tower of the standard
Cremona involution: first the five coordinate points, then the proper
transforms of the ten coordinate lines, then of the ten coordinate planes.

Basis, 120 cycles in codimensions 0..4:

    1
    H, E_i, E_ij, E_ijk                      (1 + 5 + 10 + 10)
    S, S_i, P_ij, F_ij, H_ijk, V_ijk,t       (1 + 5 + 10 + 10 + 10 + 30)
    l, l_i, l_ij, f_ijk                      (1 + 5 + 10 + 10)
    p

H/S/l/p are pullbacks of a hyperplane, 2-plane, line and point.  E_* are
the exceptional divisors.  S_i is a plane in E_i; P_ij and F_ij span the
surface classes of E_ij (a surface with multiplicity m along the line and
extra contact n contributes -m*P_ij - n*F_ij); H_ijk and the three
V_ijk,t span the surfaces of E_ijk.  l_i, l_ij are lines in E_i, E_ij and
f_ijk is a fiber class of E_ijk.

Derived symbols accepted by ``RING.normalize``: G_ij = P_ij + F_ij,
Lam_ijk = 2H_ijk - V_ijk,i - V_ijk,j - V_ijk,k, M_ijk (proper transform
square class), h_ij = l_ij + l - l_i - l_j, l_ijk (triple index) and
e_ijk,t = f_ijk + l_t - l_tu - l_tv.

Record conventions (minus signs except on V, so effective classes carry
nonnegative multiplicities):

    D = d*H - sum m_i E_i - sum ml_ij E_ij - sum mp_ijk E_ijk
    T = d*S - sum m_i S_i - sum ml_ij P_ij - sum nl_ij F_ij
             - sum mp_ijk H_ijk + sum np_ijk,t V_ijk,t
    C = d*l - sum m_i l_i - sum ml_ij l_ij - sum mp_ijk f_ijk
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .chow import (ChowClass, ChowRing, ImageRows, IntRecord,
                   WrongGradeError, build_once, linear_map, record_class,
                   record_from_class, record_layout)

POINTS = tuple(range(5))
PAIRS = tuple(combinations(POINTS, 2))
TRIPLES = tuple(combinations(POINTS, 3))
PAIR_SLOT = {q: a for a, q in enumerate(PAIRS)}
TRIPLE_SLOT = {t: a for a, t in enumerate(TRIPLES)}
V_SLOTS = tuple((t, w) for t in TRIPLES for w in t)
V_SLOT = {tw: a for a, tw in enumerate(V_SLOTS)}


def pair_complement(q):
    return tuple(t for t in POINTS if t not in q)


def triple_complement(t):
    return tuple(q for q in POINTS if q not in t)


def _pairs_within(t):
    return tuple(combinations(t, 2))


def _build_ring() -> ChowRing:
    R = ChowRing("X4", 4)
    R.add_basis(0, "one")

    H = R.add_basis(1, "H")
    E1 = {i: R.add_basis(1, "E", (i,)) for i in POINTS}
    E2 = {q: R.add_basis(1, "E", q) for q in PAIRS}
    E3 = {t: R.add_basis(1, "E", t) for t in TRIPLES}

    S0 = R.add_basis(2, "S")
    S1 = {i: R.add_basis(2, "S", (i,)) for i in POINTS}
    P2 = {q: R.add_basis(2, "P", q) for q in PAIRS}
    F2 = {q: R.add_basis(2, "F", q) for q in PAIRS}
    H3 = {t: R.add_basis(2, "H", t) for t in TRIPLES}
    V3 = {(t, w): R.add_basis(2, "V", t, w) for t in TRIPLES for w in t}

    l0 = R.add_basis(3, "l")
    l1 = {i: R.add_basis(3, "l", (i,)) for i in POINTS}
    l2 = {q: R.add_basis(3, "l", q) for q in PAIRS}
    f3 = {t: R.add_basis(3, "f", t) for t in TRIPLES}

    p = R.add_basis(4, "p")

    deg1 = [H] + list(E1.values()) + list(E2.values()) + list(E3.values())
    deg2 = ([S0] + list(S1.values()) + list(P2.values()) + list(F2.values())
            + list(H3.values()) + list(V3.values()))
    deg3 = [l0] + list(l1.values()) + list(l2.values()) + list(f3.values())

    def e_size(a):
        # 0 for H, else the number of indices of the blown-up center
        return len(a.idx) if a.kind == "E" else 0

    def mul11(a, b):
        if e_size(a) > e_size(b):
            a, b = b, a
        na, nb = e_size(a), e_size(b)
        if a.kind == "H":
            if b.kind == "H":
                return [(S0, 1)]
            if nb == 1:
                return []
            if nb == 2:
                return [(F2[b.idx], 1)]
            return [(H3[b.idx], 1)]
        if na == 1:
            m = a.idx[0]
            if nb == 1:
                return [(S1[m], -1)] if a == b else []
            if nb == 2:
                return [(F2[b.idx], 1)] if m in b.idx else []
            return [(V3[(b.idx, m)], 1)] if m in b.idx else []
        if na == 2:
            if nb == 2:
                if a.idx != b.idx:
                    return []
                return [(P2[a.idx], -1), (F2[a.idx], -2)]
            if set(a.idx) <= set(b.idx):
                t = b.idx
                m, n = a.idx
                return [(H3[t], 1), (V3[(t, m)], -1), (V3[(t, n)], -1)]
            return []
        # triple times triple
        if a.idx != b.idx:
            return []
        t = a.idx
        i, j, k = t
        out = [(S0, -1), (S1[i], 1), (S1[j], 1), (S1[k], 1), (H3[t], -4)]
        out += [(P2[q], 1) for q in _pairs_within(t)]
        out += [(V3[(t, w)], 2) for w in t]
        return out

    for ai, a in enumerate(deg1):
        for b in deg1[ai:]:
            R.set_product(a, b, mul11(a, b))

    def mul21(a, b):
        # a in grade 2, b in grade 1
        nb = e_size(b)
        if a.kind == "S" and not a.idx:
            if b.kind == "H":
                return [(l0, 1)]
            return [(f3[b.idx], 1)] if nb == 3 else []
        if a.kind == "S":
            m = a.idx[0]
            if nb == 1 and b.idx[0] == m:
                return [(l1[m], -1)]
            if nb == 3 and m in b.idx:
                return [(f3[b.idx], 1)]
            return []
        if a.kind == "P":
            q = a.idx
            if b.kind == "H":
                return [(l2[q], 1)]
            if nb == 1 and b.idx[0] in q:
                return [(l2[q], 1)]
            if nb == 2 and b.idx == q:
                i, j = q
                return [(l2[q], -1), (l0, -1), (l1[i], 1), (l1[j], 1)]
            if nb == 3 and set(q) <= set(b.idx):
                return [(f3[b.idx], -1)]
            return []
        if a.kind == "F":
            q = a.idx
            if nb == 2 and b.idx == q:
                return [(l2[q], -1)]
            if nb == 3 and set(q) <= set(b.idx):
                return [(f3[b.idx], 1)]
            return []
        if a.kind == "H":
            t = a.idx
            if b.kind == "H":
                return [(f3[t], 1)]
            if nb == 2 and set(b.idx) <= set(t):
                return [(f3[t], 1)]
            if nb == 3 and b.idx == t:
                out = [(f3[t], -4), (l0, -1)]
                out += [(l2[q], 1) for q in _pairs_within(t)]
                return out
            return []
        # vertical classes V_t,w; the grade-1 pair entry needs both w in the
        # pair and the pair inside the triple
        t, w = a.idx, a.sub
        if nb == 1 and b.idx[0] == w:
            return [(f3[t], -1)]
        if nb == 2 and w in b.idx and set(b.idx) <= set(t):
            return [(f3[t], 1)]
        if nb == 3 and b.idx == t:
            u, v = (c for c in t if c != w)
            return [(f3[t], -2), (l1[w], -1),
                    (l2[tuple(sorted((w, u)))], 1),
                    (l2[tuple(sorted((w, v)))], 1)]
        return []

    for a in deg2:
        for b in deg1:
            R.set_product(a, b, mul21(a, b))

    def mul31(a, b):
        if a is l0:
            return [(p, 1)] if b.kind == "H" else []
        if a.kind == "l" and len(a.idx) == 1:
            return [(p, -1)] if (e_size(b) == 1 and b.idx == a.idx) else []
        if a.kind == "l":
            return [(p, -1)] if (e_size(b) == 2 and b.idx == a.idx) else []
        return [(p, -1)] if (e_size(b) == 3 and b.idx == a.idx) else []

    for a in deg3:
        for b in deg1:
            R.set_product(a, b, mul31(a, b))

    def mul22(a, b):
        if a.kind != b.kind:
            if {a.kind, b.kind} == {"P", "F"} and a.idx == b.idx:
                return [(p, -1)]
            return []
        if a.kind == "S":
            if not a.idx and not b.idx:
                return [(p, 1)]
            if a.idx and a.idx == b.idx:
                return [(p, -1)]
            return []
        if a.kind == "P":
            return [(p, 1)] if a.idx == b.idx else []
        if a.kind == "F":
            return []
        if a.kind == "H":
            return [(p, -1)] if a.idx == b.idx else []
        return [(p, 1)] if (a.idx == b.idx and a.sub == b.sub) else []

    for ai, a in enumerate(deg2):
        for b in deg2[ai:]:
            R.set_product(a, b, mul22(a, b))

    # derived symbols
    for q in PAIRS:
        R.add_derived("G", q, -1, R.make_class(2, [(P2[q], 1), (F2[q], 1)]))
    for t in TRIPLES:
        lam = R.make_class(2, [(H3[t], 2)] + [(V3[(t, w)], -1) for w in t])
        R.add_derived("Lam", t, -1, lam)
        mt = [(S0, 1)] + [(S1[w], -1) for w in t]
        mt += [(P2[q], -1) for q in _pairs_within(t)]
        R.add_derived("M", t, -1, R.make_class(2, mt) + lam)
    for q in PAIRS:
        i, j = q
        R.add_derived("h", q, -1, R.make_class(
            3, [(l2[q], 1), (l0, 1), (l1[i], -1), (l1[j], -1)]))
    for t in TRIPLES:
        terms = [(f3[t], 2), (l0, 1)] + [(l2[q], -1) for q in _pairs_within(t)]
        R.add_derived("l", t, -1, R.make_class(3, terms))
        for w in t:
            u, v = (c for c in t if c != w)
            terms = [(f3[t], 1), (l1[w], 1),
                     (l2[tuple(sorted((w, u)))], -1),
                     (l2[tuple(sorted((w, v)))], -1)]
            R.add_derived("e", t, w, R.make_class(3, terms))

    R.finalize()
    return R


def _involution_images(R: ChowRing) -> dict:
    el = R.element
    img = {el("one"): R.cls("one"), el("p"): R.cls("p")}

    terms = [(("H", ()), 4)]
    terms += [(("E", (i,)), -3) for i in POINTS]
    terms += [(("E", q), -2) for q in PAIRS]
    terms += [(("E", t), -1) for t in TRIPLES]
    img[el("H")] = R.make_class(1, terms)
    for i in POINTS:
        terms = [(("H", ()), 1)]
        terms += [(("E", (w,)), -1) for w in POINTS if w != i]
        terms += [(("E", q), -1) for q in PAIRS if i not in q]
        terms += [(("E", t), -1) for t in TRIPLES if i not in t]
        img[el("E", (i,))] = R.make_class(1, terms)
    for q in PAIRS:
        img[el("E", q)] = R.cls(("E", pair_complement(q)))
    for t in TRIPLES:
        img[el("E", t)] = R.cls(("E", triple_complement(t)))

    terms = [(("S", ()), 6)]
    terms += [(("S", (i,)), -3) for i in POINTS]
    terms += [(("P", q), -1) for q in PAIRS]
    img[el("S")] = R.make_class(2, terms)
    for m in POINTS:
        terms = [(("S", ()), 3)]
        terms += [(("S", (i,)), -2) for i in POINTS if i != m]
        terms += [(("P", q), -1) for q in PAIRS if m not in q]
        img[el("S", (m,))] = R.make_class(2, terms)

    def bracket(t, i, j):
        # H_t - V_t,i - V_t,j of the sorted triple t containing i, j
        return [(("H", t), 1), (("V", t, i), -1), (("V", t, j), -1)]

    for q in PAIRS:
        t = pair_complement(q)
        i, j, k = t
        terms = [(("S", ()), -1), (("S", (i,)), 1), (("S", (j,)), 1),
                 (("S", (k,)), 1)]
        terms += [(("P", r), 1) for r in _pairs_within(t)]
        img[el("P", q)] = R.make_class(2, terms)

        terms = [(("S", ()), 1), (("S", (i,)), -1), (("S", (j,)), -1),
                 (("S", (k,)), -1)]
        terms += [(("P", r), -1) for r in _pairs_within(t)]
        terms += [(("H", t), 2)] + [(("V", t, w), -1) for w in t]
        img[el("F", q)] = R.make_class(2, terms)

    for t in TRIPLES:
        i, j = triple_complement(t)
        terms = [(("P", (i, j)), 2), (("F", (i, j)), 2)]
        for w in t:
            tw = tuple(sorted((i, j, w)))
            terms += [(e, -c) for e, c in bracket(tw, i, j)]
        img[el("H", t)] = R.make_class(2, terms)
        for w in t:
            u, v = (c for c in t if c != w)
            terms = [(("P", (i, j)), 1), (("F", (i, j)), 1)]
            for x in (u, v):
                tx = tuple(sorted((i, j, x)))
                terms += [(e, -c) for e, c in bracket(tx, i, j)]
            img[el("V", t, w)] = R.make_class(2, terms)

    terms = [(("l", ()), 4)] + [(("l", (i,)), -1) for i in POINTS]
    img[el("l")] = R.make_class(3, terms)
    for m in POINTS:
        terms = [(("l", ()), 3)]
        terms += [(("l", (i,)), -1) for i in POINTS if i != m]
        img[el("l", (m,))] = R.make_class(3, terms)
    for q in PAIRS:
        t = pair_complement(q)
        terms = [(("l", ()), 2), (("f", t), 1)]
        terms += [(("l", (w,)), -1) for w in t]
        img[el("l", q)] = R.make_class(3, terms)
    for t in TRIPLES:
        i, j = triple_complement(t)
        img[el("f", t)] = R.make_class(3, [
            (("l", ()), 1), (("l", (i,)), -1), (("l", (j,)), -1),
            (("l", (i, j)), 1)])
    return img


@dataclass(frozen=True)
class _P4Record(IntRecord):
    # the body shared by divisor and curve records (distinct types)

    FIELDS = (("m", 5), ("ml", 10), ("mp", 10))

    d: int
    m: tuple
    ml: tuple
    mp: tuple


class P4Divisor(_P4Record):
    """Divisor record (d; m by point; ml by pair; mp by triple)."""


class P4Curve(_P4Record):
    """Curve record (d; m by point; ml by pair; mp by triple)."""


@dataclass(frozen=True)
class P4Surface(IntRecord):
    """Surface record (d; m; ml, nl by pair; mp by triple; np by V slot).

    ml is multiplicity along a coordinate line, nl the extra contact with
    it; mp the contact degree with a coordinate plane and np the three
    signed correction entries per plane (V_SLOTS order).
    """

    FIELDS = (("m", 5), ("ml", 10), ("nl", 10), ("mp", 10), ("np", 30))

    d: int
    m: tuple
    ml: tuple
    nl: tuple
    mp: tuple
    np: tuple


class _Tables:
    """The X4 ring and what is looked up in it once: the involution's
    basis images and the record layouts."""

    def __init__(self):
        R = self.ring = _build_ring()
        self.involution = ImageRows(R, _involution_images(R))
        self.divisor = record_layout(R, P4Divisor, ("H",),
                                     (-1, [("E", (i,)) for i in POINTS]),
                                     (-1, [("E", q) for q in PAIRS]),
                                     (-1, [("E", t) for t in TRIPLES]))
        self.curve = record_layout(R, P4Curve, ("l",),
                                   (-1, [("l", (i,)) for i in POINTS]),
                                   (-1, [("l", q) for q in PAIRS]),
                                   (-1, [("f", t) for t in TRIPLES]))
        self.surface = record_layout(R, P4Surface, ("S",),
                                     (-1, [("S", (i,)) for i in POINTS]),
                                     (-1, [("P", q) for q in PAIRS]),
                                     (-1, [("F", q) for q in PAIRS]),
                                     (-1, [("H", t) for t in TRIPLES]),
                                     (1, [("V", t, w) for t, w in V_SLOTS]))


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
# import and apart from the ring: per point, the pairs and the triples
# that avoid it; per pair, its complementary triple t (slot, points, pairs
# within t); per triple, its complementary pair q (slot, points, and the V
# slots (q + w, w) for w in the triple)
_PAIRS_AWAY = tuple(tuple(a for a, q in enumerate(PAIRS) if i not in q)
                    for i in POINTS)
_TRIPLES_AWAY = tuple(tuple(b for b, t in enumerate(TRIPLES) if i not in t)
                      for i in POINTS)
_BY_PAIR = tuple(
    (TRIPLE_SLOT[t], t, tuple(PAIR_SLOT[r] for r in _pairs_within(t)))
    for t in map(pair_complement, PAIRS))
_BY_TRIPLE = tuple(
    (PAIR_SLOT[q], q, tuple(V_SLOT[(tuple(sorted(q + (w,))), w)] for w in t))
    for t, q in zip(TRIPLES, map(triple_complement, TRIPLES)))


def cremona(x: ChowClass) -> ChowClass:
    """Lifted standard Cremona involution of P^4, as a ring automorphism."""
    tab = _tables()
    if x.ring is not tab.ring:
        raise WrongGradeError("class does not belong to the P^4 ring")
    return linear_map(x, tab.involution)


def divisor_class(D: P4Divisor) -> ChowClass:
    return record_class(_tables().divisor, D)


def divisor_from_class(x: ChowClass) -> P4Divisor:
    return record_from_class(x, _tables().divisor)


def curve_class(C: P4Curve) -> ChowClass:
    return record_class(_tables().curve, C)


def curve_from_class(x: ChowClass) -> P4Curve:
    return record_from_class(x, _tables().curve)


def surface_class(T: P4Surface) -> ChowClass:
    return record_class(_tables().surface, T)


def surface_from_class(x: ChowClass) -> P4Surface:
    return record_from_class(x, _tables().surface)


def cremona_divisor(D: P4Divisor) -> P4Divisor:
    """Cremona image of a divisor record; involutive."""
    d, m, ml, mp = D.d, D.m, D.ml, D.mp
    tot = sum(m)
    m2 = tuple([3 * d - tot + x for x in m])
    # ml' at a pair reads its complementary triple, mp' the reverse
    ml2 = tuple([2 * d - sum([m[r] for r in t]) + mp[b]
                 for b, t, _ in _BY_PAIR])
    mp2 = tuple([d - sum([m[r] for r in q]) + ml[a]
                 for a, q, _ in _BY_TRIPLE])
    return P4Divisor(4 * d - tot, m2, ml2, mp2)


def cremona_curve(C: P4Curve) -> P4Curve:
    """Cremona image of a curve record; involutive."""
    d, m, ml, mp = C.d, C.m, C.ml, C.mp
    tot = sum(m)
    d2 = 4 * d - 3 * tot - 2 * sum(ml) - sum(mp)
    m2 = tuple([d - tot + x - sum([ml[a] for a in pairs])
                - sum([mp[b] for b in triples])
                for x, pairs, triples
                in zip(m, _PAIRS_AWAY, _TRIPLES_AWAY)])
    ml2 = tuple([mp[b] for b, _, _ in _BY_PAIR])
    mp2 = tuple([ml[a] for a, _, _ in _BY_TRIPLE])
    return P4Curve(d2, m2, ml2, mp2)


def cremona_surface(T: P4Surface) -> P4Surface:
    """Cremona image of a surface record; involutive."""
    d, m, ml, nl, mp, np = T.d, T.m, T.ml, T.nl, T.mp, T.np
    tot = sum(m)
    mln = [x - y for x, y in zip(ml, nl)]
    m2 = tuple([3 * d - 2 * tot + 2 * x + sum([mln[a] for a in pairs])
                for x, pairs in zip(m, _PAIRS_AWAY)])
    # per triple t (V slots 3t, 3t + 1, 3t + 2): mp_t minus its three V
    # entries; brk at the V slot (t, w) adds back np_t,w, which leaves
    # mp_t - np_t,u - np_t,v for the other two members u, v of t
    rest = [mp[b] - sum(np[3 * b:3 * b + 3]) for b in range(10)]
    brk = [rest[v // 3] + x for v, x in enumerate(np)]
    ml2, nl2 = [], []
    for b, t, t_pairs in _BY_PAIR:
        contact = mp[b] + rest[b]
        nl2.append(contact)
        ml2.append(d - sum([m[r] for r in t])
                   + sum([mln[a] for a in t_pairs]) + contact)
    mp2, np2 = [], []
    for a, _, q_brk in _BY_TRIPLE:
        # the brackets of the triples q + w, w in t, read at the pair q
        parts = [brk[v] for v in q_brk]
        top = nl[a] - sum(parts)
        mp2.append(top + nl[a])
        np2.extend([top + x for x in parts])
    return P4Surface(6 * d - 3 * tot + sum(mln), m2, tuple(ml2), tuple(nl2),
                     tuple(mp2), tuple(np2))


def normalize(terms) -> ChowClass:
    """Expand a symbolic combination (G, Lam, M, h, l_ijk, e allowed)."""
    return _tables().ring.normalize(terms)
