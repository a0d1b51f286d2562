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
from .chow import int_tuple


def _c4(a):
    return comb(a, 4) if a >= 4 else 0


# the line/quartic scan refuses more seven point subsets than this, so
# s <= 23; cremona report at s = 23 with every quartic listed takes about
# 1.5 s (one scan plus the printing), while s = 40 would take minutes
MAX_QUARTIC_SUBSETS = 250_000


@dataclass(frozen=True)
class FatPointDivisor:
    """The class dH - sum m_i E_i on s general points.

    Plain container: s, d and the m_i must be real ints (a bool or a
    float raises ValueError), though the diagnostics are meant for
    effective classes (d >= 0, m_i >= 0).  s is arbitrary for chi and the
    lines-only bookkeeping; the Weyl transport entry points need
    6 <= s <= 8.
    """

    s: int
    d: int
    m: tuple

    def __post_init__(self):
        s, _ = int_tuple((self.s, self.d), 2, "s and d")
        if s < 1:
            raise ValueError("need at least one point")
        object.__setattr__(self, "m", int_tuple(self.m, s, "m"))


def _weyl_points(D):
    # the Weyl planes and hyperplane classes are listed on 6..8 points only
    if D.s not in weyl.POINT_COUNTS:
        raise ValueError(
            f"Weyl cycles are classified for s in {weyl.POINT_COUNTS}, "
            f"not s={D.s}; wdim(..., lines_only=True) works for any s")
    return D.s


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


def _k_values(D, classes, weight):
    # sum_i m_i c_i - weight * d * deg(c) for each class c: weight 1 is
    # minus the divisor-curve pairing, weight 3 minus the divisor form
    d, m = D.d, D.m
    return [sum(map(mul, m, c.m)) - weight * d * c.d for c in classes]


def k_curve(D, C):
    """k_C = -D.C for a curve record C = deg*l - sum mu_i l_i."""
    if D.s != C.s:
        raise ValueError("divisor and curve live on different point counts")
    return _k_values(D, (C,), 1)[0]


def _plane_curve(T):
    # Gamma_T = (5d - sum m_ij - 4 sum n_k; 3m_i - sum_j m_ij + n_i - sum n_k)
    # for a surface record T (see k_weyl_plane)
    ntot = sum(T.n)
    mu = [3 * m + n - ntot for m, n in zip(T.m, T.n)]
    for (i, j), v in zip(weyl.PAIRS8, T.mline):
        mu[i - 1] -= v
        mu[j - 1] -= v
    return weyl.CurveRecord(T.s, 5 * T.d - sum(T.mline) - 4 * ntot, mu[:T.s])


@lru_cache(maxsize=None)
def _plane_curves(s):
    return {T: _plane_curve(T) for T in weyl.weyl_planes(s)}


def k_weyl_plane(D, T):
    """Containment multiplicity of the Weyl plane T in the base locus.

    On S_1(123) the multiplicity is m_1 + m_2 + m_3 - 2d, that is -D.G for
    the curve class G = 2l - l_1 - l_2 - l_3.  On any T it is defined by
    moving D along the word w that normalizes T to S_1(123); the
    divisor-curve pairing dc - sum m_i mu_i is Weyl invariant, so
    -(wD).G = -D.Gamma_T with Gamma_T = w^-1 G.  Gamma_T is a fixed
    integer linear map of T's record: degree 5d - sum m_ij - 4 sum n_k and
    mu_i = 3m_i - sum_j m_ij + n_i - sum n_k.  That map commutes with every
    Cremona and relabeling and sends S_1(123) to G, so it equals the
    transport along any normalizing word, and no word is replayed.  On
    S_1(ijk) k_T reads m_i + m_j + m_k - 2d, on S_3(1,8) it reads
    2m_1 + m_2 + ... + m_7 - 5d.
    """
    s = _weyl_points(D)
    if s != T.s:
        raise ValueError("divisor and plane live on different point counts")
    try:
        curve = _plane_curves(s)[T]
    except KeyError:
        raise weyl.NotAWeylPlaneError(f"not a Weyl plane: {T!r}") from None
    return k_curve(D, curve)


def k_weyl_divisor(D, W):
    """Containment multiplicity of the Weyl hyperplane class W.

    The hyperplane through the first four points sits in the base locus
    with multiplicity m_1 + m_2 + m_3 + m_4 - 3d, which is -b(D, W_0) for
    the divisor form b(D, D') = 3dd' - sum m_i m'_i.  A general W is
    w W_0 for some Weyl word w, and k_W(D) is defined by pulling D
    back along w.  Every Cremona and relabeling preserves b, so
    -b(w^-1 D, W_0) = -b(D, W): k_W = sum m_i w_i - 3 d d_W, with no word
    to replay.  W must be a DivisorRecord on D's s in weyl_divisors(s).
    """
    if not (weyl.is_weyl_divisor(W) and W.s == _weyl_points(D)):
        raise ValueError(f"not a Weyl hyperplane class: {W!r}")
    return _k_values(D, (W,), 3)[0]


def _curve_cycles(D):
    # (tag, idx, k) for every line and every quartic through seven points,
    # in lex order, k read off inline.  On at most eight points a quartic
    # is the Q_k of quartic_slots, idx = (k,) for the label it misses;
    # with more points idx lists its seven labels.  For 6 <= s <= 8 these
    # are exactly the Weyl lines.
    s, d, m = D.s, D.d, D.m
    if comb(s, 7) > MAX_QUARTIC_SUBSETS:
        raise ValueError(
            f"{comb(s, 7)} quartics through seven of {s} points are more "
            f"than the scan covers ({MAX_QUARTIC_SUBSETS})")
    labels = range(1, s + 1)
    for pair, (a, b) in zip(combinations(labels, 2), combinations(m, 2)):
        yield "line", pair, a + b - d
    if s <= 8:
        rest = sum(m) - 4 * d
        for k in weyl.quartic_slots(s):
            yield "quartic", (k,), rest - (m[k - 1] if k <= s else 0)
    else:
        for sub, ms in zip(combinations(labels, 7), combinations(m, 7)):
            yield "quartic", sub, sum(ms) - 4 * d


def h1_correction(D):
    """Sum of C(2 + k_C, 4) over the one dimensional Weyl cycles.

    Lines are indexed by point pairs and quartics by seven point subsets,
    so this makes sense for any s up to the MAX_QUARTIC_SUBSETS bound
    (ValueError past it); cycles with k_C <= 1 contribute zero.
    """
    return sum(_c4(2 + k) for _, _, k in _curve_cycles(D))


def wdim(D, lines_only=False):
    """Weyl expected dimension of the system.

    chi plus the alternating corrections C(2+k,4) over lines and
    quartics, minus C(1+k,4) over Weyl planes, plus C(k,4) over Weyl
    hyperplane classes.  The Weyl planes and hyperplane classes are
    listed for 6 <= s <= 8 only; lines_only=True drops their terms and
    works for any s (that variant is what larger point counts use).
    """
    total = chi(D) + h1_correction(D)
    if not lines_only:
        s = _weyl_points(D)
        total -= sum(_c4(1 + k)
                     for k in _k_values(D, _plane_curves(s).values(), 1))
        total += sum(_c4(k) for k in _k_values(D, weyl.weyl_divisors(s), 3))
    return total


def plane_id(T):
    """Readable Weyl plane label like S1(1,2,3) or S3(1,8)."""
    tag, idx = weyl.classify_surface(T)
    if tag == "Other":
        raise weyl.NotAWeylPlaneError(f"not a Weyl plane: {T!r}")
    return f"{tag}({','.join(str(i) for i in idx)})"


@dataclass(frozen=True)
class BaseLocusReport:
    """Positive containment multiplicities of Weyl cycles in Bs|D|.

    lines maps a pair (i, j) to k_L > 0, quartics maps the Q_k label k
    (s <= 8) or the seven labels (s > 8) to k_Q > 0, and planes maps a
    plane_id string to its multiplicity.  Any two listed planes are
    cross-checked with the pairing: planes that meet cannot both sit in
    the base locus of an effective class, so such pairs are recorded in
    pairwise_conflicts and empties_hint is set.  Lines and quartics with
    D.C <= -2 land in deep_curves, the sorted (tag, idx, k) (an effective
    class is expected to meet every Weyl line at least in -1).  chi is
    chi(D) and h1corr is h1_correction(D), so chi + h1corr is
    wdim(D, lines_only=True).
    """

    lines: dict
    quartics: dict
    planes: dict
    pairwise_conflicts: tuple
    empties_hint: bool
    deep_curves: tuple
    chi: int
    h1corr: int


def base_locus_report(D):
    """Scan the Weyl cycles for positive containment multiplicities.

    One pass over the lines and quartics serves every s the scan covers
    (ValueError past MAX_QUARTIC_SUBSETS seven point subsets); h1corr
    sums C(2 + k, 4) over the deep curves, the only ones with a nonzero
    term.  For 6 <= s <= 8 every Weyl plane is scanned.  With fewer
    points no Cremona keeps a plane effective, so only the actual planes
    S_1(ijk) are checked, directly.  Past eight points no planes are
    listed.
    """
    lines, quartics, deep = {}, {}, []
    for tag, idx, k in _curve_cycles(D):
        if k <= 0:
            continue
        if tag == "line":
            lines[idx] = k
        else:
            quartics[idx[0] if len(idx) == 1 else idx] = k
        if k >= 2:
            deep.append((tag, idx, k))
    deep.sort()
    planes, conflicts = {}, []
    if D.s in weyl.POINT_COUNTS:
        gammas = _plane_curves(D.s)
        listed = []
        for T, k in zip(gammas, _k_values(D, gammas.values(), 1)):
            if k > 0:
                name = plane_id(T)
                planes[name] = k
                listed.append((name, T))
        for (a, A), (b, B) in combinations(listed, 2):
            if weyl.surface_form(A, B):
                conflicts.append((a, b) if a < b else (b, a))
    elif D.s < 6:
        for tri in combinations(range(1, D.s + 1), 3):
            k = sum(D.m[i - 1] for i in tri) - 2 * D.d
            if k > 0:
                planes["S1(%d,%d,%d)" % tri] = k
        # two triples out of at most five labels always share a point,
        # and actual planes through a common point pair to zero, so no
        # conflicts can show up here
    conflicts.sort()
    return BaseLocusReport(lines=lines, quartics=quartics, planes=planes,
                           pairwise_conflicts=tuple(conflicts),
                           empties_hint=bool(conflicts),
                           deep_curves=tuple(deep), chi=chi(D),
                           h1corr=sum(_c4(2 + k) for _, _, k in deep))
