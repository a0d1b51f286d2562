"""Dimension diagnostics for fat point linear systems on P^4.

A system is recorded as D = dH - sum m_i E_i through s general points.
The Euler characteristic chi is the naive parameter count; the Weyl
expected dimension corrects it by the multiplicities k_C with which the
Weyl cycles (lines, quartics, planes, hyperplane classes) are forced
into the base locus.  Everything is exact integer arithmetic.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import mul

from . import weyl


def _c4(a):
    return comb(a, 4) if a >= 4 else 0


@dataclass(frozen=True)
class FatPointDivisor:
    """The class dH - sum m_i E_i on s general points.

    Plain container: entries may be any integers, though the diagnostics
    are meant for effective classes (d >= 0, m_i >= 0).  s is arbitrary
    for chi and the lines-only bookkeeping; the Weyl transport entry
    points need 6 <= s <= 8.
    """

    s: int
    d: int
    m: tuple

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("need at least one point")
        object.__setattr__(self, "d", int(self.d))
        m = tuple(int(x) for x in self.m)
        if len(m) != self.s:
            raise ValueError(f"expected {self.s} multiplicities, got {len(m)}")
        object.__setattr__(self, "m", m)


def _as_record(D):
    # Weyl transport works on the 6..8 point records only
    if isinstance(D, weyl.DivisorRecord):
        return D
    if D.s not in weyl.POINT_COUNTS:
        raise ValueError(
            f"Weyl cycles are classified for s in {weyl.POINT_COUNTS}, "
            f"not s={D.s}; wdim(..., lines_only=True) works for any s")
    return weyl.DivisorRecord(D.s, D.d, D.m)


def chi(D):
    """Euler characteristic C(d+4,4) - sum_i C(m_i+3,4).

    The first term counts quartic coefficients in five variables, the
    second the derivative conditions imposed by an m_i-fold point.
    """
    return _c4(D.d + 4) - sum(_c4(x + 3) for x in D.m)


def k_line(D, i, j):
    """k of the line L_ij, that is m_i + m_j - d."""
    if i == j or not (1 <= i <= D.s and 1 <= j <= D.s):
        raise ValueError(f"no line L_{i}{j} on {D.s} points")
    return D.m[i - 1] + D.m[j - 1] - D.d


def k_quartic_through(D, points):
    """k of the rational normal quartic through seven of the points."""
    pts = sorted(points)
    if len(pts) != 7 or len(set(pts)) != 7 or pts[0] < 1 or pts[-1] > D.s:
        raise ValueError("a quartic needs seven distinct point labels")
    return sum(D.m[i - 1] for i in pts) - 4 * D.d


def k_quartic(D, k):
    """k of Q_k, the quartic missing only p_k (slots as in quartic_slots)."""
    if k not in weyl.quartic_slots(D.s):
        raise ValueError(f"no quartic Q_{k} on {D.s} points")
    return sum(D.m[i - 1] for i in range(1, D.s + 1) if i != k) - 4 * D.d


def _k_values(rec, classes, weight):
    # sum_i m_i c_i - weight * d * deg(c) for each class c: weight 1 is
    # minus the divisor-curve pairing, weight 3 minus the divisor form
    d, m = rec.d, rec.m
    return [sum(map(mul, m, c.m)) - weight * d * c.d for c in classes]


def k_curve(D, C):
    """k_C = -D.C for a curve record C = deg*l - sum mu_i l_i."""
    if D.s != C.s:
        raise ValueError("divisor and curve live on different point counts")
    return _k_values(D, (C,), 1)[0]


@lru_cache(maxsize=None)
def _plane_curves(s):
    # Weyl plane T -> Gamma_T, the class 2l - l_1 - l_2 - l_3 carried back
    # along the inverse of T's normalizing word (see k_weyl_plane)
    seed = weyl.CurveRecord(s, 2, (1, 1, 1) + (0,) * (s - 3))
    return {T: weyl.apply_word(seed,
                               weyl.invert_word(weyl.plane_normalizing_word(T)),
                               allow_contraction=True)
            for T in weyl.weyl_planes(s)}


def k_weyl_plane(D, T):
    """Containment multiplicity of the Weyl plane T in the base locus.

    On S_1(123) the multiplicity is m_1 + m_2 + m_3 - 2d, that is -D.G for
    the curve class G = 2l - l_1 - l_2 - l_3, and on any T it is defined
    by moving D along the word w that normalizes T to S_1(123).  The
    divisor-curve pairing dc - sum m_i mu_i is Weyl invariant, so
    -(wD).G = -D.(w^-1 G): k_T is the fixed integer form
    sum m_i mu_i - d c with (c; mu) = w^-1 G, built once per point count
    for the whole plane orbit.  On S_1(ijk) it reads m_i + m_j + m_k - 2d,
    on S_3(1,8) it reads 2m_1 + m_2 + ... + m_7 - 5d.
    """
    rec = _as_record(D)
    if rec.s != T.s:
        raise ValueError("divisor and plane live on different point counts")
    try:
        curve = _plane_curves(rec.s)[T]
    except KeyError:
        raise weyl.NotAWeylPlaneError(f"not in the plane orbit: {T!r}") from None
    return k_curve(rec, curve)


def k_weyl_divisor(D, W):
    """Containment multiplicity of the Weyl hyperplane class W.

    The hyperplane through the first four points sits in the base locus
    with multiplicity m_1 + m_2 + m_3 + m_4 - 3d, which is -b(D, W_0) for
    the divisor form b(D, D') = 3dd' - sum m_i m'_i.  A general W is
    w W_0 for its orbit witness w, and k_W(D) is defined by pulling D
    back along w.  Every Cremona and relabeling preserves b, so
    -b(w^-1 D, W_0) = -b(D, W): k_W = sum m_i w_i - 3 d d_W, with no word
    to replay.  W must still be a member of the hyperplane orbit.
    """
    rec = _as_record(D)
    if W not in weyl.divisor_orbit(rec.s).witnesses:
        raise ValueError(f"not in the hyperplane orbit: {W!r}")
    return _k_values(rec, (W,), 3)[0]


def h1_correction(D):
    """Sum of C(2 + k_C, 4) over the one dimensional Weyl cycles.

    Lines are indexed by point pairs and quartics by seven point subsets,
    so this makes sense for any s; cycles with k_C <= 1 contribute zero.
    """
    total = 0
    for i, j in combinations(range(1, D.s + 1), 2):
        total += _c4(2 + k_line(D, i, j))
    for sub in combinations(range(1, D.s + 1), 7):
        total += _c4(2 + k_quartic_through(D, sub))
    return total


def wdim(D, lines_only=False):
    """Weyl expected dimension of the system.

    chi plus the alternating corrections C(2+k,4) over lines and
    quartics, minus C(1+k,4) over Weyl planes, plus C(k,4) over Weyl
    hyperplane classes.  The plane and hyperplane orbits are classified
    for 6 <= s <= 8 only; lines_only=True drops their terms and works
    for any s (that variant is what larger point counts use).
    """
    if lines_only:
        return chi(D) + h1_correction(D)
    rec = _as_record(D)
    total = chi(D)
    total += sum(_c4(2 + k) for k in _k_values(rec, weyl.weyl_lines(rec.s), 1))
    total -= sum(_c4(1 + k)
                 for k in _k_values(rec, _plane_curves(rec.s).values(), 1))
    total += sum(_c4(k) for k in _k_values(rec, weyl.weyl_divisors(rec.s), 3))
    return total


def plane_id(T):
    """Readable orbit label like S1(1,2,3) or S3(1,8)."""
    tag, idx = weyl.classify_surface(T)
    if tag == "Other":
        raise weyl.NotAWeylPlaneError(f"not in the plane orbit: {T!r}")
    return f"{tag}({','.join(str(i) for i in idx)})"


@dataclass(frozen=True)
class BaseLocusReport:
    """Positive containment multiplicities of Weyl cycles in Bs|D|.

    lines maps a pair (i, j) to k_L > 0, quartics maps k to k_Q > 0, and
    planes maps a plane_id string to its multiplicity.  Any two listed
    planes are cross-checked with the pairing: planes that meet cannot
    both sit in the base locus of an effective class, so such pairs are
    recorded in pairwise_conflicts and empties_hint is set.  Weyl lines
    with D.C <= -2 land in deep_curves (an effective class is expected
    to meet every Weyl line at least in -1).
    """

    lines: dict
    quartics: dict
    planes: dict
    pairwise_conflicts: tuple
    empties_hint: bool
    deep_curves: tuple


def base_locus_report(D):
    """Scan the Weyl cycles for positive containment multiplicities.

    For 6 <= s <= 8 the classified orbits are scanned in full.  With
    fewer points no Cremona keeps a line or plane effective, so only the
    lines L_ij and the actual planes S_1(ijk) are checked, directly.
    """
    if not 1 <= D.s <= 8:
        raise ValueError("the base locus scan covers at most eight points")
    lines, quartics, planes = {}, {}, {}
    conflicts, deep = [], []
    if D.s in weyl.POINT_COUNTS:
        rec = _as_record(D)
        curves = weyl.weyl_lines(rec.s)
        for C, k in zip(curves, _k_values(rec, curves, 1)):
            if k <= 0:
                continue
            tag, idx = weyl.classify_curve(C)
            if tag == "line":
                lines[idx] = k
            else:
                quartics[idx[0]] = k
            if k >= 2:
                deep.append((tag, idx, k))
        gammas = _plane_curves(rec.s)
        listed = []
        for T, k in zip(gammas, _k_values(rec, gammas.values(), 1)):
            if k > 0:
                name = plane_id(T)
                planes[name] = k
                listed.append((name, T))
        for (a, A), (b, B) in combinations(listed, 2):
            if weyl.surface_form(A, B):
                conflicts.append((a, b) if a < b else (b, a))
    else:
        for i, j in combinations(range(1, D.s + 1), 2):
            k = k_line(D, i, j)
            if k > 0:
                lines[(i, j)] = k
            if k >= 2:
                deep.append(("line", (i, j), k))
        for tri in combinations(range(1, D.s + 1), 3):
            k = sum(D.m[i - 1] for i in tri) - 2 * D.d
            if k > 0:
                planes["S1(%d,%d,%d)" % tri] = k
        # two triples out of at most five labels always share a point,
        # and actual planes through a common point pair to zero, so no
        # conflicts can show up here
    deep.sort()
    conflicts.sort()
    return BaseLocusReport(lines=lines, quartics=quartics, planes=planes,
                           pairwise_conflicts=tuple(conflicts),
                           empties_hint=bool(conflicts),
                           deep_curves=tuple(deep))
