"""Dimension diagnostics for fat point linear systems on P^4.

A system is recorded as D = dH - sum m_i E_i through s general points.
The Euler characteristic chi is the naive parameter count; the Weyl
expected dimension corrects it by the multiplicities k_C with which the
Weyl cycles (lines, quartics, planes, hyperplane classes) are forced
into the base locus.  Everything is exact integer arithmetic.
"""

from functools import lru_cache
from itertools import accumulate, combinations
from math import comb
from operator import itemgetter, mul

from . import weyl
from .chow import Value, check_kind, int_tuple


def _c4(a):
    return comb(a, 4) if a >= 4 else 0


# base_locus_report lists at most this many quartics with k > 0, and at
# most this many lines.  Up to 23 points there are never more (C(23, 7) =
# 245 157 seven point subsets); past that the report counts them first and
# refuses with a ValueError, so (1; 1^40), whose C(40, 7) quartics all have
# k = 3, is refused at once.
MAX_QUARTIC_SUBSETS = 250_000

# the line and quartic counts refuse past this many states: the subsets of
# at most seven of 23 points, sum(comb(23, n) for n in range(8)), so no
# s <= 23 is ever refused
MAX_COUNT_STATES = 390_656


class FatPointDivisor(Value):
    """The class dH - sum m_i E_i on s general points.

    Plain container: s, d and the m_i must be real ints (a bool or a
    float raises ValueError), though the diagnostics are meant for
    effective classes (d >= 0, m_i >= 0).  s is arbitrary for chi and the
    lines-only bookkeeping; the Weyl transport entry points need
    6 <= s <= 8.
    """

    __match_args__ = ("s", "d", "m")

    def __init__(self, s, d, m):
        int_tuple((s, d), 2, "s and d")
        if s < 1:
            raise ValueError("need at least one point")
        self._set(s, d, int_tuple(m, s, "m"))


# the records every entry point takes as D; a curve or surface record
# carries s, d and m too, and would otherwise be read as a divisor
_DIVISOR_KINDS = (FatPointDivisor, weyl.DivisorRecord)


def _weyl_points(D):
    # the Weyl planes and hyperplane classes are listed on 6..8 points only
    check_kind(D, _DIVISOR_KINDS)
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
    check_kind(D, _DIVISOR_KINDS)
    return _c4(D.d + 4) - sum(_c4(x + 3) for x in D.m)


def k_line(D, i, j):
    """k of the line L_ij, that is m_i + m_j - d."""
    check_kind(D, _DIVISOR_KINDS)
    i, j = weyl._check_labels((i, j), D.s, 2)
    return D.m[i - 1] + D.m[j - 1] - D.d


def k_quartic_through(D, points):
    """k of the rational normal quartic through seven of the points."""
    check_kind(D, _DIVISOR_KINDS)
    pts = weyl._check_labels(points, D.s, 7)
    return sum(D.m[i - 1] for i in pts) - 4 * D.d


def k_quartic(D, k):
    """k of Q_k, the quartic missing only p_k (slots as in quartic_slots)."""
    check_kind(D, _DIVISOR_KINDS)
    k, = int_tuple((k,), 1, "quartic label")
    if k not in weyl.quartic_slots(D.s):
        raise ValueError(f"no quartic Q_{k} on {D.s} points")
    return sum(D.m[i - 1] for i in range(1, D.s + 1) if i != k) - 4 * D.d


def _k_value(D, c, weight):
    # sum_i m_i c_i - weight * d * deg(c): weight 1 is minus the
    # divisor-curve pairing, weight 3 minus the divisor form
    return sum(map(mul, D.m, c.m)) - weight * D.d * c.d


def k_curve(D, C):
    """k_C = -D.C for a curve record C = deg*l - sum mu_i l_i."""
    check_kind(D, _DIVISOR_KINDS)
    check_kind(C, weyl.CurveRecord)
    if D.s != C.s:
        raise ValueError("divisor and curve live on different point counts")
    return _k_value(D, C, 1)


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


@lru_cache(maxsize=None)
def _plane_types(s):
    # the Gamma_T grouped as weyl.divisor_types groups the hyperplane
    # classes: (degree, mu sorted down, every mu of that type, and the
    # index in _plane_curves(s) of each of those curves)
    groups = {}
    for i, C in enumerate(_plane_curves(s).values()):
        key = (C.d, tuple(sorted(C.m, reverse=True)))
        groups.setdefault(key, []).append((C.m, i))
    return tuple((d, mu, *zip(*members))
                 for (d, mu), members in groups.items())


@lru_cache(maxsize=None)
def _plane_pairings(s):
    # one bytes row per Weyl plane in _plane_curves(s) order, byte j of
    # row i = weyl.surface_form(P_i, P_j).  Each of the 45 record entries
    # is packed into one integer holding its value on every plane in an
    # 8-bit field, so a row is a single exact integer sum read back with
    # to_bytes.  Every field ends in 0..255 because two Weyl planes pair
    # to 0, 1 or 3 (and a plane with itself to 1).
    entries = [(T.d, *T.m, *T.n, *T.mline) for T in _plane_curves(s)]
    signs = (1,) + (-1,) * 8 + (1,) * 36
    packed = [int.from_bytes(bytes(v[e] for v in entries), "little")
              for e in range(45)]
    return tuple(
        sum(x * sign * col for x, sign, col in zip(v, signs, packed) if x)
        .to_bytes(len(entries), "little") for v in entries)


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
    s = _weyl_points(D)
    if not (weyl.is_weyl_divisor(W) and W.s == s):
        raise ValueError(f"not a Weyl hyperplane class: {W!r}")
    return _k_value(D, W, 3)


def _binomial_sum(D, types, weight, shift):
    # sum of C(k + shift, 4) over every class c of every type (deg, c
    # sorted down, arrangements, and for plane types the plane indices),
    # k = sum m_i c_i - weight * d * deg.  By the rearrangement inequality
    # no arrangement beats m sorted down against c sorted down, for any
    # integer m, so a type whose bound has k + shift < 4 adds only zeros
    # and is skipped.
    m, top = D.m, sorted(D.m, reverse=True)
    total = 0
    for deg, c, arrangements, *_ in types:
        base = weight * D.d * deg - shift
        if sum(map(mul, top, c)) - base >= 4:
            total += sum(_c4(sum(map(mul, m, a)) - base)
                         for a in arrangements)
    return total


def _value_classes(m):
    # the distinct entries of m with their multiplicities, largest first
    counts = {}
    for x in m:
        counts[x] = counts.get(x, 0) + 1
    return sorted(counts.items(), reverse=True)


def _line_counts(classes, d, floor):
    # {k: lines L_ij with that k} over k = m_i + m_j - d >= floor, from
    # pairs of value classes a >= b, largest first: a row ends at the first
    # b with a + b - d < floor, and the count at the first a with
    # 2a - d < floor.  Past MAX_COUNT_STATES pairs in its rows it refuses.
    table, budget = {}, MAX_COUNT_STATES
    for i, (a, ca) in enumerate(classes):
        if 2 * a - d < floor:
            break
        budget -= len(classes) - i
        if budget < 0:
            raise ValueError(f"counting the lines takes more than "
                             f"{MAX_COUNT_STATES} states")
        for b, cb in classes[i:]:
            k = a + b - d
            if k < floor:
                break
            n = ca * (ca - 1) // 2 if b == a else ca * cb
            if n:
                table[k] = table.get(k, 0) + n
    return table


def _quartic_counts(classes, top, d, floor):
    # {k: seven point subsets with that k} over k = sum - 4d >= floor, by a
    # DP over the value classes, largest first; top[j] is the sum of the j
    # largest entries.  A state is n < 7 chosen points with sum total,
    # keyed total * 8 + n, and maps to the number of ways to choose them;
    # done maps the sums of seven.  Taking t points of value v, largest t
    # first, stops at the first t whose best completion (the entries right
    # after this class) misses the floor or runs out of points: fewer t
    # only do worse.  Past MAX_COUNT_STATES states held at once it refuses.
    s, need = len(top) - 1, floor + 4 * d
    states, done, pos = {0: 1}, {}, 0
    for v, c in classes:
        pos += c
        bar = need + top[pos]  # got + top[pos + rest] - top[pos] >= need
        new, held = {}, len(done)
        for key, count in states.items():
            n, total = key & 7, key >> 3
            for t in range(min(c, 7 - n), -1, -1):
                rest, got = 7 - n - t, total + t * v
                if pos + rest > s or got + top[pos + rest] < bar:
                    break
                into, at = (new, got * 8 + n + t) if rest else (done, got)
                old = into.get(at)
                if old is None:
                    held += 1
                    if held > MAX_COUNT_STATES:
                        raise ValueError(f"counting the quartics takes more "
                                         f"than {MAX_COUNT_STATES} states")
                    old = 0
                into[at] = old + count * comb(c, t)
        if not new:
            break
        states = new
    return {total - 4 * d: count for total, count in done.items()}


def _quartic_slots(D):
    # (k, k_Q) for the Q_k of quartic_slots, at most eight points
    rest = sum(D.m) - 4 * D.d
    return [(k, rest - (D.m[k - 1] if k <= D.s else 0))
            for k in weyl.quartic_slots(D.s)]


def _curve_counts(D, floor):
    # the lines and the quartics through seven points with k >= floor, as
    # two {k: how many} tables; on at most eight points the quartics are
    # the Q_k slots, and for 6 <= s <= 8 these are exactly the Weyl lines
    check_kind(D, _DIVISOR_KINDS)
    classes = _value_classes(D.m)
    lines = _line_counts(classes, D.d, floor)
    if D.s > 8:
        top = list(accumulate(sorted(D.m, reverse=True), initial=0))
        return lines, _quartic_counts(classes, top, D.d, floor)
    quartics = {}
    for _, k in _quartic_slots(D):
        if k >= floor:
            quartics[k] = quartics.get(k, 0) + 1
    return lines, quartics


def h1_correction(D):
    """Sum of C(2 + k_C, 4) over the one dimensional Weyl cycles.

    Lines are indexed by point pairs and quartics by seven point subsets;
    only cycles with k_C >= 2 contribute.  They are counted, not listed:
    lines by pairs of distinct values of m, quartics by a DP over those
    values, so this works for any s (ValueError only if the count would
    hold more than MAX_COUNT_STATES states, which no s <= 23 reaches).
    """
    return sum(n * _c4(2 + k) for table in _curve_counts(D, 2)
               for k, n in table.items())


def _pair_walk(ranked, start, base):
    # the pairs of ranked (m sorted down, with labels) from start on with
    # k = a + b - base > 0, as (sorted labels, k): a row ends at the first
    # entry with k <= 0, and the walk at the first row whose next entry
    # gives k <= 0
    found = []
    for p, (a, i) in enumerate(ranked[start:-1], start + 1):
        if a + ranked[p][0] <= base:
            break
        for b, j in ranked[p:]:
            if a + b <= base:
                break
            found.append(((i, j) if i < j else (j, i), a + b - base))
    return found


def _subset_walk(ranked, size, base):
    # the size-subsets of ranked (size > 2) with k = sum - base > 0, as
    # (labels, k).  The walk leaves a branch at the first next entry whose
    # best completion (the entries right after it) gives k <= 0, so every
    # step it takes ends in a listed subset; the last two points are a
    # _pair_walk.
    top = list(accumulate((v for v, _ in ranked), initial=0))
    found = []

    def walk(start, chosen, total, left):
        if left == 2:
            found.extend(((*chosen, *pair), k) for pair, k in
                         _pair_walk(ranked, start, base - total))
            return
        for p in range(start, len(ranked) - left + 1):
            if total + top[p + left] - top[p] <= base:
                break
            v, i = ranked[p]
            walk(p + 1, (*chosen, i), total + v, left - 1)

    walk(0, (), 0, size)
    return found


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
        total -= _binomial_sum(D, _plane_types(s), 1, 1)
        total += _binomial_sum(D, weyl.divisor_types(s), 3, 0)
    return total


def plane_id(T):
    """Readable Weyl plane label like S1(1,2,3) or S3(1,8)."""
    tag, idx = weyl.classify_surface(T)
    if tag == "Other":
        raise weyl.NotAWeylPlaneError(f"not a Weyl plane: {T!r}")
    return f"{tag}({','.join(str(i) for i in idx)})"


@lru_cache(maxsize=None)
def _plane_table(s):
    # what base_locus_report reads about the Weyl planes on s points, built
    # on first use: labels[i] is the plane_id of the i-th plane of
    # _plane_curves(s), types is _plane_types(s), rank[i] is the place of
    # labels[i] in string order, ranked lists the labels in that order, and
    # bit b of later[r] is set when b > r and the planes ranked r and b
    # pair nonzero (read off the _plane_pairings rows)
    labels = tuple(map(plane_id, _plane_curves(s)))
    order = sorted(range(len(labels)), key=labels.__getitem__)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    rows = _plane_pairings(s)
    later = tuple(
        sum(1 << rank[j] for j, v in enumerate(rows[i]) if v) & -(2 << r)
        for r, i in enumerate(order))
    return (labels, _plane_types(s), tuple(rank),
            tuple(labels[i] for i in order), later)


class BaseLocusReport(Value):
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

    __match_args__ = ("lines", "quartics", "planes", "pairwise_conflicts",
                      "empties_hint", "deep_curves", "chi", "h1corr")

    def __init__(self, lines, quartics, planes, pairwise_conflicts,
                 empties_hint, deep_curves, chi, h1corr):
        self._set(lines, quartics, planes, pairwise_conflicts, empties_hint,
                  deep_curves, chi, h1corr)


def base_locus_report(D):
    """List the Weyl cycles with positive containment multiplicities.

    The lines and quartics with k > 0 are listed in lex order of their
    labels by a walk over m sorted down that leaves a branch as soon as its
    best completion gives k <= 0, so the walk's work follows what it lists;
    on at most eight points the quartics are the Q_k slots.  Up to 23 points
    there are at most MAX_QUARTIC_SUBSETS quartics.  Past that the curves
    with k > 0 are counted first, from the tables h1_correction reads, and
    more than MAX_QUARTIC_SUBSETS of them (quartics or lines) raise
    ValueError before anything is listed.  h1corr sums C(2 + k, 4) over the
    deep curves.  For 6 <= s <= 8 every Weyl plane is scanned, a
    permutation type at a time, skipped when its best arrangement gives
    k <= 0, and the meeting pairs are read off precomputed bitmasks.  With
    fewer points no Cremona keeps a plane effective, so only the actual
    planes S_1(ijk) are checked, directly.  Past eight points no planes
    are listed.
    """
    check_kind(D, _DIVISOR_KINDS)
    s, d, m = D.s, D.d, D.m
    if comb(s, 7) > MAX_QUARTIC_SUBSETS:
        # past 23 points there could be more: count before listing
        for what, table in zip(("lines", "quartics"), _curve_counts(D, 1)):
            listed = sum(table.values())
            if listed > MAX_QUARTIC_SUBSETS:
                raise ValueError(
                    f"{listed} {what} with k > 0 on {s} points are more "
                    f"than the scan covers ({MAX_QUARTIC_SUBSETS})")
    # the walks run over m sorted down; their subsets are put back in lex
    # order of the sorted labels
    ranked = sorted(zip(m, range(1, s + 1)), reverse=True)
    lines = dict(sorted(_pair_walk(ranked, 0, d)))
    if s > 8:
        quartics = dict(sorted(((tuple(sorted(q)), k)
                                for q, k in _subset_walk(ranked, 7, 4 * d)),
                               key=itemgetter(0)))
        deep_quartics = quartics.items()
    else:
        quartics = {k: v for k, v in _quartic_slots(D) if v > 0}
        deep_quartics = [((k,), v) for k, v in quartics.items()]
    # both tables are in lex order, and "line" < "quartic"
    deep = [("line", idx, k) for idx, k in lines.items() if k >= 2]
    deep += [("quartic", idx, k) for idx, k in deep_quartics if k >= 2]
    planes, conflicts = {}, []
    if D.s in weyl.POINT_COUNTS:
        labels, types, rank, ranked, later = _plane_table(D.s)
        m, top, hits = D.m, sorted(D.m, reverse=True), []
        for deg, mu, mus, idxs in types:
            # k_T = -D.Gamma_T; the bound of _binomial_sum skips a type
            # whose best arrangement gives k <= 0
            base = D.d * deg
            if sum(map(mul, top, mu)) > base:
                for c, i in zip(mus, idxs):
                    k = sum(map(mul, m, c)) - base
                    if k > 0:
                        hits.append((i, k))
        hits.sort()  # planes is filled in _plane_curves order
        listed = 0
        for i, k in hits:
            planes[labels[i]] = k
            listed |= 1 << rank[i]
        # walking the listed ranks up and each one's later pairs up gives
        # the conflicts as (a, b) with a < b, already sorted
        rest = listed
        while rest:
            bit = rest & -rest
            rest ^= bit
            r = bit.bit_length() - 1
            a, meet = ranked[r], later[r] & listed
            while meet:
                bit = meet & -meet
                meet ^= bit
                conflicts.append((a, ranked[bit.bit_length() - 1]))
    elif D.s < 6:
        for tri in combinations(range(1, D.s + 1), 3):
            k = sum(D.m[i - 1] for i in tri) - 2 * D.d
            if k > 0:
                planes["S1(%d,%d,%d)" % tri] = k
        # two triples out of at most five labels always share a point,
        # and actual planes through a common point pair to zero, so no
        # conflicts can show up here
    return BaseLocusReport(lines=lines, quartics=quartics, planes=planes,
                           pairwise_conflicts=tuple(conflicts),
                           empties_hint=bool(conflicts),
                           deep_curves=tuple(deep), chi=chi(D),
                           h1corr=sum(_c4(2 + k) for _, _, k in deep))
