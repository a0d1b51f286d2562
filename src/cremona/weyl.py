"""Weyl group combinatorics for cycles through 6, 7 or 8 general points of P4.

A cycle is tracked by an integer record: degree plus multiplicities along the
special loci (the points themselves, the lines L_ij spanned by two points, and
the rational normal quartics Q_k through seven of the eight points).  The Weyl
group is generated by permutations of the points together with standard
Cremona transformations centered at any five of them, and both kinds of
generator act on records by explicit integer formulas.

Everything here is 1-based: points are labeled 1..s, matching the classical
notation (L_12, Q_8, and so on).  Surface records are always stored on eight
slots; for s < 8 the unused slots are forced to zero and the generators are
restricted to the first s labels.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import lru_cache
from itertools import combinations, groupby, product
from math import isqrt
from operator import itemgetter, mul
from types import MappingProxyType

from .chow import IntRecord, Value, ascii_int, check_kind, int_tuple

POINT_COUNTS = (6, 7, 8)

# all 28 index pairs in lex order; mline storage follows this layout
PAIRS8 = tuple(combinations(range(1, 9), 2))
PAIR_POS = {q: k for k, q in enumerate(PAIRS8)}

DEFAULT_ORBIT_BUDGET = 10 ** 6


class WeylError(Exception):
    """Base class for record and orbit trouble."""


class BadCentersError(WeylError):
    """Cremona centers are not five distinct point labels in range."""


class ContractedError(WeylError):
    """A word produced an intermediate record of nonpositive degree."""


class OrbitBudgetExceededError(WeylError):
    """Orbit enumeration outgrew its cap; the orbit is probably infinite."""


class NotAWeylPlaneError(WeylError):
    """Surface record does not belong to any of the five plane families."""


class NoNormalizingWordError(WeylError):
    """No word can separate the given planes (they meet with multiplicity 3)."""


# -- records -----------------------------------------------------------

def _check_point_count(s):
    if type(s) is not int or s not in POINT_COUNTS:
        raise ValueError("records live on 6, 7 or 8 points")


def quartic_slots(s):
    """Labels k for which the quartic through the other seven points exists.

    Q_k needs all seven points other than p_k, so with eight points every
    slot is live, with seven points only Q_8 survives, and with six there
    are no quartics at all.
    """
    if s == 8:
        return tuple(range(1, 9))
    if s == 7:
        return (8,)
    return ()


# per s, the SurfaceRecord slots that must hold zero: the point labels
# past s, the quartic labels outside quartic_slots(s), and the mline
# positions of the lines through a point past s (none at all for s = 8)
_DEAD_SLOTS = {s: (tuple(range(s + 1, 9)),
                   tuple(k for k in range(1, 9) if k not in quartic_slots(s)),
                   tuple(p for p, (_, j) in enumerate(PAIRS8) if j > s))
               for s in POINT_COUNTS}


class _PointRecord(Value):
    # the body shared by divisor and curve records (distinct types)

    __match_args__ = ("s", "d", "m")

    def __init__(self, s, d, m):
        _check_point_count(s)
        self._set(s, int_tuple((d,), 1, "d")[0], int_tuple(m, s, "m"))


class DivisorRecord(_PointRecord):
    """Hyperplane-type record (d; m_1 ... m_s)."""


class CurveRecord(_PointRecord):
    """Curve record (d; m_1 ... m_s) for degree and point multiplicities."""


class SurfaceRecord(IntRecord):
    """Surface record: degree, point multiplicities m_i, quartic
    multiplicities n_k (along Q_k) and line multiplicities m_ij (along L_ij).

    Stored on eight slots regardless of s; slots that do not exist for the
    given s must hold zero.  mline is indexed by PAIRS8 in lex order.
    """

    FIELDS = (("m", 8), ("n", 8), ("mline", 28))
    __match_args__ = ("s", "d", "m", "n", "mline")

    def __init__(self, s, d, m, n, mline):
        _check_point_count(s)
        object.__setattr__(self, "s", s)
        IntRecord.__init__(self, d, m, n, mline)
        points, quartics, lines = _DEAD_SLOTS[self.s]
        for i in points:
            if self.m[i - 1] != 0:
                raise ValueError(f"point {i} does not exist for s={self.s}")
        for k in quartics:
            if self.n[k - 1] != 0:
                raise ValueError(f"quartic Q_{k} does not exist for s={self.s}")
        for pos in lines:
            if self.mline[pos] != 0:
                i, j = PAIRS8[pos]
                raise ValueError(f"line L_{i}{j} does not exist for s={self.s}")

    def line(self, i, j):
        """Multiplicity along the line L_ij, for labels i != j in 1..8."""
        return self.mline[PAIR_POS[_check_labels((i, j), 8, 2)]]

    def quartic(self, k):
        """Multiplicity along the quartic Q_k, for a label k in 1..8."""
        k, = _check_labels((k,), 8, 1)
        return self.n[k - 1]


# -- generators --------------------------------------------------------

class Perm(Value):
    """Relabeling of the points; image[i-1] is where point i goes."""

    __match_args__ = ("image",)

    def __init__(self, image):
        img = tuple(image)
        _check_labels(img, len(img), len(img))
        self._set(img)

    @property
    def s(self):
        return len(self.image)

    @property
    def is_identity(self):
        return all(v == i for i, v in enumerate(self.image, start=1))

    def __call__(self, i):
        i, = _check_labels((i,), self.s, 1)
        return self.image[i - 1]

    def inverse(self):
        return Perm(_scatter(range(1, self.s + 1), self.image))


class Cremona5(Value):
    """Standard Cremona transformation centered at five of the points."""

    __match_args__ = ("centers",)

    def __init__(self, centers):
        self._set(_check_centers(8, centers))


def _check_centers(s, centers):
    try:
        return _check_labels(centers, s, 5)
    except ValueError:
        raise BadCentersError(
            f"need five distinct centers within 1..{s}: {centers}") from None


def _check_labels(labels, s, want):
    # the one point label check: want distinct ints in 1..s, returned sorted
    pts = tuple(sorted(int_tuple(labels, want, "point labels")))
    if len(set(pts)) != want or pts and (pts[0] < 1 or pts[-1] > s):
        raise ValueError(f"need {want} distinct point labels in 1..{s}: {labels}")
    return pts


# -- generator actions -------------------------------------------------

def cremona5_divisor(rec, centers):
    """Cremona action on a hyperplane-type record.

    Only the five center entries move: d' = 4d - sum m, and each center
    multiplicity becomes 3d minus the other four.
    """
    return _cremona5_point(DivisorRecord, rec, centers, 3, 1)


def cremona5_curve(rec, centers):
    """Cremona action on a curve record: d' = 4d - 3 sum m on the centers."""
    return _cremona5_point(CurveRecord, rec, centers, 1, 3)


def _cremona5_point(cls, rec, centers, a, b):
    # the five point Cremona on a point record, as a cls record: with
    # K = (sum of the center entries) - a*d, each center entry drops by K
    # and the degree by b*K; (a, b) is (3, 1) on divisors, (1, 3) on curves
    check_kind(rec, cls)
    c = _check_centers(rec.s, centers)
    m = list(rec.m)
    k = sum([m[i - 1] for i in c]) - a * rec.d
    for i in c:
        m[i - 1] -= k
    return cls(rec.s, rec.d - b * k, tuple(m))


def cremona5_surface(rec, centers):
    """Cremona action on a surface record.

    The degree, the center multiplicities and the lines between centers
    follow the quadratic transform formulas; lines with exactly one center
    endpoint are fixed; the three lines between non-center labels trade
    places with the three quartic slots of the complement (L_ij maps to
    Q_k and back, for {i,j,k} the complement of the centers in 1..8).
    The slots each formula reads come from the center set's table.
    """
    c = _check_centers(rec.s, centers)
    points, center_lines, by_center, by_pair, swaps = _surface_slots(c)
    d, m, n, ml = rec.d, rec.m, rec.n, rec.mline
    mtot = sum([m[i] for i in points])
    m2, n2, ml2 = list(m), list(n), list(ml)
    base = 3 * d - 2 * mtot
    for i, others in by_center:
        m2[i] = base + 2 * m[i] + sum([ml[x] for x in others])
    for slot, rest, rest_lines in by_pair:
        ml2[slot] = (d - sum([m[r] for r in rest])
                     + sum([ml[x] for x in rest_lines]))
    for line, k in swaps:
        ml2[line], n2[k] = n[k], ml[line]
    d2 = 6 * d - 3 * mtot + sum([ml[x] for x in center_lines])
    return SurfaceRecord(rec.s, d2, tuple(m2), tuple(n2), tuple(ml2))


@lru_cache(maxsize=None)
def _surface_slots(c):
    # the slot table of cremona5_surface for the sorted centers c, built on
    # first use (at most 56 of them), in 0-based m/n positions and
    # mline slots: the five centers; the ten center-pair lines; per center,
    # its position and the six lines among the other four; per center pair,
    # its slot, the other three centers and the three lines among them;
    # the (line, quartic) swaps L_ab <-> Q_k of the complement {a, b, k}
    def lines(pts):
        return tuple(PAIR_POS[q] for q in combinations(pts, 2))

    by_center = tuple((i - 1, lines([r for r in c if r != i])) for i in c)
    by_pair = []
    for q in combinations(c, 2):
        rest = [r for r in c if r not in q]
        by_pair.append((PAIR_POS[q], tuple(r - 1 for r in rest), lines(rest)))
    a, b, k = (x for x in range(1, 9) if x not in c)
    swaps = ((PAIR_POS[(a, b)], k - 1), (PAIR_POS[(a, k)], b - 1),
             (PAIR_POS[(b, k)], a - 1))
    return (tuple(i - 1 for i in c), lines(c), by_center, tuple(by_pair),
            swaps)


def apply_perm(rec, perm):
    """Relabel the points of a record."""
    if perm.s != rec.s:
        raise ValueError(f"permutation of {perm.s} labels on an s={rec.s} record")
    if not isinstance(rec, (_PointRecord, SurfaceRecord)):
        raise TypeError(f"not a record: {rec!r}")
    return _relabel(rec, perm.image)


def _relabel(rec, image):
    # rec with point i moved to image[i-1], for a permutation image of its
    # s labels; rec passed the record checks and a relabeling keeps every
    # entry an int in a live slot, so the result skips them
    if isinstance(rec, _PointRecord):
        return _prechecked(type(rec), rec.s, rec.d, _scatter(rec.m, image))
    return _prechecked(SurfaceRecord, rec.s, rec.d,
                       *_permuted_surface_data(rec, image))


def _scatter(values, image):
    # the tuple holding values[i] at position image[i] - 1, for image a
    # permutation of the labels 1..len(image)
    out = [0] * len(image)
    for v, x in zip(image, values):
        out[v - 1] = x
    return tuple(out)


def _prechecked(cls, *values):
    # cls(*values) for values known to pass its checks, which it skips:
    # every relabeling in an orbit walk comes through here
    obj = object.__new__(cls)
    obj._set(*values)
    return obj


def apply_cremona5(rec, centers):
    if isinstance(rec, DivisorRecord):
        return cremona5_divisor(rec, centers)
    if isinstance(rec, CurveRecord):
        return cremona5_curve(rec, centers)
    if isinstance(rec, SurfaceRecord):
        return cremona5_surface(rec, centers)
    raise TypeError(f"not a record: {rec!r}")


def apply_generator(rec, gen):
    if isinstance(gen, Perm):
        return apply_perm(rec, gen)
    if isinstance(gen, Cremona5):
        return apply_cremona5(rec, gen.centers)
    raise TypeError(f"not a generator: {gen!r}")


def apply_word(rec, word, allow_contraction=False):
    """Apply generators left to right.

    By default a Cremona step that drops the degree to zero or below raises
    ContractedError: the cycle fell into the fundamental locus and the rest
    of the word has no geometric meaning.  Pass allow_contraction=True when
    transporting auxiliary data (divisor records under a plane word, say)
    where negative degrees are just bookkeeping.
    """
    cur = rec
    for step, gen in enumerate(word):
        cur = apply_generator(cur, gen)
        if (not allow_contraction and isinstance(gen, Cremona5)
                and cur.d <= 0):
            raise ContractedError(
                f"step {step} ({gen.centers}) contracted the record to {cur!r}")
    return cur


def invert_word(word):
    """Word undoing the given one (Cremonas are involutions)."""
    out = []
    for gen in reversed(word):
        out.append(gen.inverse() if isinstance(gen, Perm) else gen)
    return tuple(out)


# -- canonical labeling ------------------------------------------------

def _perm_from_order(order, s):
    # order[p-1] = the old label that should land at position p; order is
    # an ordering of 1..s computed here, so the Perm checks are skipped
    return _prechecked(Perm, _scatter(range(1, s + 1), order))


def canonical_form(rec):
    """Lexicographically smallest relabeling, with a permutation achieving it.

    Returns (canon, perm) with apply_perm(rec, perm) == canon.  The points
    are sorted by m_i, on surfaces by (m_i, n_i), into blocks of equal
    entries.  Points of a block are twins when their swap fixes the record,
    on surfaces when their lines to every other point agree; twinhood is
    transitive.  Every distinct arrangement of each block's twin classes,
    filled in label order, is tried, and the smallest relabeling wins.
    """
    if isinstance(rec, SurfaceRecord):
        keys, ml = tuple(zip(rec.m, rec.n)), rec.mline
    elif isinstance(rec, _PointRecord):
        keys, ml = rec.m, None
    else:
        raise TypeError(f"not a record: {rec!r}")
    s = rec.s
    blocks = []  # per block of equal keys, its twin classes in label order
    for _, block in groupby(sorted(zip(keys, range(1, s + 1))), itemgetter(0)):
        classes = {}  # first member -> members
        for _, u in block:
            for v, members in classes.items():
                if ml is None or all(
                        ml[PAIR_POS[(u, w) if u < w else (w, u)]]
                        == ml[PAIR_POS[(v, w) if v < w else (w, v)]]
                        for w in range(1, s + 1) if w != u and w != v):
                    members.append(u)
                    break
            else:
                classes[u] = [u]
        blocks.append(list(classes.values()))
    best = None
    ids = [[c for c, members in enumerate(classes) for _ in members]
           for classes in blocks]
    for arrangement in product(*map(_arrangements, ids)):
        fills = [[iter(members) for members in classes] for classes in blocks]
        order = [next(fill[c]) for fill, block_ids in zip(fills, arrangement)
                 for c in block_ids]
        image = _scatter(range(1, s + 1), order)
        data = ((_scatter(rec.m, image),) if ml is None
                else _permuted_surface_data(rec, image))
        if best is None or data < best:
            best, best_order = data, order
    return (_prechecked(type(rec), s, rec.d, *best),
            _perm_from_order(best_order, s))


def _permuted_surface_data(rec, image):
    # the (m, n, mline) tuples of the relabeled record, without building it
    img = tuple(image) + tuple(range(rec.s + 1, 9))
    ml = [0] * 28
    for k, (i, j) in enumerate(PAIRS8):
        a, b = img[i - 1], img[j - 1]
        if a > b:
            a, b = b, a
        ml[PAIR_POS[(a, b)]] = rec.mline[k]
    return _scatter(rec.m, img), _scatter(rec.n, img), tuple(ml)


# -- seed templates ----------------------------------------------------

def line_record(i, j, s=8):
    """The line L_ij through two of the points."""
    i, j = _check_labels((i, j), s, 2)
    m = [0] * s
    m[i - 1] = m[j - 1] = 1
    return CurveRecord(s, 1, tuple(m))


def quartic_record(k, s=8):
    """The rational normal quartic through the seven points other than p_k."""
    k, = _check_labels((k,), 8, 1)
    if k not in quartic_slots(s):
        raise ValueError(f"no quartic Q_{k} on {s} points")
    m = [1] * s
    if k <= s:
        m[k - 1] = 0
    return CurveRecord(s, 4, tuple(m))


def hyperplane_record(points, s=8):
    """The hyperplane through four of the points."""
    pts = _check_labels(points, s, 4)
    m = [0] * s
    for i in pts:
        m[i - 1] = 1
    return DivisorRecord(s, 1, tuple(m))


def s1_plane(i, j, k, s=8):
    """The actual plane through three of the points."""
    tri = _check_labels((i, j, k), s, 3)
    m, n, ml = [0] * 8, [0] * 8, [0] * 28
    for t in tri:
        m[t - 1] = 1
    for q in combinations(tri, 2):
        ml[PAIR_POS[q]] = 1
    return SurfaceRecord(s, 1, tuple(m), tuple(n), tuple(ml))


def s3_cubic(i, j, s=8):
    """The cubic cone S_3(i,j): vertex tripled at p_i over the quartic Q_j.

    It misses p_j, passes simply through the other six points, contains the
    lines from the vertex to each of them, and runs once along Q_j.
    """
    if s not in (7, 8):
        raise ValueError("the cubic cone family needs at least seven points")
    _check_labels((i, j), 8, 2)
    if i > s or j not in quartic_slots(s):
        raise ValueError(f"no cubic cone S_3({i},{j}) on {s} points")
    m, n, ml = [0] * 8, [0] * 8, [0] * 28
    m[i - 1] = 3
    n[j - 1] = 1
    for t in range(1, s + 1):
        if t in (i, j):
            continue
        m[t - 1] = 1
        a, b = (i, t) if i < t else (t, i)
        ml[PAIR_POS[(a, b)]] = 1
    return SurfaceRecord(s, 3, tuple(m), tuple(n), tuple(ml))


def s6_sextic(i, j, k):
    """The degree six surface S_6(ijk), dual plane partner of S_1(ijk)."""
    tri = _check_labels((i, j, k), 8, 3)
    rest = [t for t in range(1, 9) if t not in tri]
    m, n, ml = [0] * 8, [0] * 8, [0] * 28
    for t in tri:
        m[t - 1] = 1
        n[t - 1] = 1
    for t in rest:
        m[t - 1] = 3
    for q in combinations(rest, 2):
        ml[PAIR_POS[q]] = 1
    return SurfaceRecord(8, 6, tuple(m), tuple(n), tuple(ml))


def s10_surface(i, j):
    """The degree ten Weyl plane S_10(ij)."""
    pair = _check_labels((i, j), 8, 2)
    rest = [t for t in range(1, 9) if t not in pair]
    m, n, ml = [0] * 8, [0] * 8, [0] * 28
    for t in pair:
        m[t - 1] = 6
    for t in rest:
        m[t - 1] = 3
        n[t - 1] = 1
    ml[PAIR_POS[pair]] = 3
    for t in rest:
        for v in pair:
            a, b = (v, t) if v < t else (t, v)
            ml[PAIR_POS[(a, b)]] = 1
    return SurfaceRecord(8, 10, tuple(m), tuple(n), tuple(ml))


def s15_surface(i):
    """The degree fifteen Weyl plane S_15(i)."""
    i, = _check_labels((i,), 8, 1)
    rest = [t for t in range(1, 9) if t != i]
    m, n, ml = [0] * 8, [0] * 8, [0] * 28
    m[i - 1] = 3
    n[i - 1] = 3
    for t in rest:
        m[t - 1] = 6
        n[t - 1] = 1
    for q in combinations(rest, 2):
        ml[PAIR_POS[q]] = 1
    return SurfaceRecord(8, 15, tuple(m), tuple(n), tuple(ml))


# -- classification ----------------------------------------------------

@lru_cache(maxsize=None)
def _named_cycles(s):
    # every named line, quartic and plane on s points, built by its
    # template: (curve record -> (tag, idx), surface record -> (tag, idx));
    # two dicts, so a curve never classifies as a plane
    labels = range(1, s + 1)
    curves = {line_record(i, j, s=s): ("line", (i, j))
              for i, j in combinations(labels, 2)}
    curves.update((quartic_record(k, s=s), ("quartic", (k,)))
                  for k in quartic_slots(s))
    planes = {s1_plane(*t, s=s): ("S1", t) for t in combinations(labels, 3)}
    if s >= 7:
        planes.update((s3_cubic(i, j, s=s), ("S3", (i, j)))
                      for j in quartic_slots(s) for i in labels if i != j)
    if s == 8:
        planes.update((s6_sextic(*t), ("S6", t))
                      for t in combinations(labels, 3))
        planes.update((s10_surface(*q), ("S10", q))
                      for q in combinations(labels, 2))
        planes.update((s15_surface(i), ("S15", (i,))) for i in labels)
    return curves, planes


def classify_surface(rec):
    """Match a surface record against the five Weyl plane families.

    Returns (tag, indices): ("S1", (i,j,k)), ("S3", (i,j)), ("S6", (i,j,k)),
    ("S10", (i,j)), ("S15", (i,)) or ("Other", ()).  The match is exact,
    not up to permutation: a table lookup among the records the templates
    build, so each family is defined once, by its template.
    """
    return _named_cycles(rec.s)[1].get(rec, ("Other", ()))


def classify_curve(rec):
    """Tag a curve record as a line L_ij, a quartic Q_k, or Other."""
    return _named_cycles(rec.s)[0].get(rec, ("Other", ()))


def divisor_type(rec):
    """Permutation-type label like (2;22111110), largest entries first."""
    digits = sorted(rec.m, reverse=True)
    if all(0 <= x <= 9 for x in digits):
        body = "".join(str(x) for x in digits)
    else:
        body = ",".join(str(x) for x in digits)
    return f"({rec.d};{body})"


def record_tag(rec):
    """Census tag for one orbit member."""
    if isinstance(rec, SurfaceRecord):
        return classify_surface(rec)[0]
    if isinstance(rec, CurveRecord):
        return classify_curve(rec)[0]
    if isinstance(rec, DivisorRecord):
        return divisor_type(rec)
    raise TypeError(f"not a record: {rec!r}")


# -- orbits ------------------------------------------------------------

class OrbitResult(Value):
    """Closure of a seed record under the Weyl generators.

    members: every labeled record in the orbit, sorted.
    witnesses: member -> word w with apply_word(seed, w) == member.
    contracted: canonical forms of generator images that fell to degree <= 0.
    type_census: census of members by record_tag.
    """

    __match_args__ = ("seed", "members", "witnesses", "contracted",
                      "type_census")

    def __init__(self, seed, members, witnesses, contracted, type_census):
        self._set(seed, members, witnesses, contracted, type_census)


def _orbit_cap(budget):
    # a budget argument is a real int, like every record entry; the
    # environment override is text and must spell one in ASCII digits;
    # either way a negative cap is refused, not read as "nothing fits"
    if budget is not None:
        cap, what = int_tuple((budget,), 1, "budget")[0], "budget"
    else:
        env = os.environ.get("CREMONA_ORBIT_BUDGET")
        if env is None:
            return DEFAULT_ORBIT_BUDGET
        try:
            cap, what = ascii_int(env), "CREMONA_ORBIT_BUDGET"
        except ValueError:
            raise ValueError(f"CREMONA_ORBIT_BUDGET must be an integer, "
                             f"got {env!r}") from None
    if cap < 0:
        raise ValueError(f"{what} must not be negative, got {cap}")
    return cap


def orbit(seed, budget=None):
    """Breadth-first closure of a record under the s simple reflections.

    The simple reflections are the s - 1 adjacent swaps and the Cremona at
    the points 1..5; they generate the relabelings and the Cremonas at
    every five centers, so the members are the labeled records of positive
    degree that words in them reach.  An image of nonpositive degree is
    set aside as contracted, by its canonical form, and not expanded.
    Witness words are shortest in the simple reflections, with each run of
    swaps folded into one relabeling; the walk order is fixed, so repeated
    runs agree.  budget, an int, caps the member count (default 10**6, or
    the integer in the CREMONA_ORBIT_BUDGET environment variable, ASCII
    digits with an optional minus sign): more labeled members than the cap
    raise OrbitBudgetExceededError.  A budget that is not an integer, or is
    negative, raises ValueError.
    """
    cap = _orbit_cap(budget)
    if seed.d <= 0:
        raise ValueError("orbit wants a record of positive degree")
    s = seed.s
    gens = [Cremona5((1, 2, 3, 4, 5))]
    for t in range(1, s):
        image = list(range(1, s + 1))
        image[t - 1], image[t] = t + 1, t
        gens.append(Perm(tuple(image)))
    witnesses = {seed: ()}
    frontier = [seed]
    contracted = set()
    while frontier:
        grown = []
        for rec in frontier:
            stem = witnesses[rec]
            for gen in gens:
                img = apply_generator(rec, gen)
                if img.d <= 0:
                    contracted.add(canonical_form(img)[0])
                    continue
                if img in witnesses:
                    continue
                witnesses[img] = _then(stem, gen)
                if len(witnesses) > cap:
                    raise OrbitBudgetExceededError(
                        f"more than {cap} labeled members from {seed!r}")
                grown.append(img)
        frontier = sorted(grown)
    members = tuple(sorted(witnesses))
    census = Counter(record_tag(r) for r in members)
    # read-only, as the orbits of the built-in seeds are cached and shared
    return OrbitResult(seed=seed, members=members,
                       witnesses=MappingProxyType(witnesses),
                       contracted=tuple(sorted(contracted)),
                       type_census=MappingProxyType(dict(census)))


def _then(word, gen):
    # word followed by gen, a relabeling gen folded into a trailing Perm
    if isinstance(gen, Perm) and word and isinstance(word[-1], Perm):
        image = tuple([gen.image[v - 1] for v in word[-1].image])
        return word[:-1] + (_prechecked(Perm, image),)
    return word + (gen,)


@lru_cache(maxsize=None)
def line_orbit(s=8):
    """Orbit of the line L_12: the Weyl lines."""
    return orbit(line_record(1, 2, s=s))


@lru_cache(maxsize=None)
def plane_orbit(s=8):
    """Orbit of the plane S_1(123): the Weyl planes."""
    return orbit(s1_plane(1, 2, 3, s=s))


@lru_cache(maxsize=None)
def divisor_orbit(s=8):
    """Orbit of the hyperplane through the first four points."""
    return orbit(hyperplane_record((1, 2, 3, 4), s=s))


def weyl_lines(s=8):
    """The Weyl lines on s points, sorted: the classify_curve table the
    templates build.  Equals line_orbit(s).members, order included."""
    return tuple(sorted(_named_cycles(s)[0]))


def weyl_planes(s=8):
    """The Weyl planes on s points, sorted: the classify_surface table the
    templates build.  Equals plane_orbit(s).members, order included."""
    return tuple(sorted(_named_cycles(s)[1]))


def is_weyl_divisor(rec):
    """Whether rec is a Weyl hyperplane class: a DivisorRecord with
    3d^2 - sum m^2 = -1, 5d - sum m = 1 and d >= 1, a member of
    weyl_divisors(rec.s)."""
    return (isinstance(rec, DivisorRecord) and rec.d >= 1
            and 5 * rec.d - sum(rec.m) == 1
            and 3 * rec.d * rec.d - sum(x * x for x in rec.m) == -1)


@lru_cache(maxsize=None)
def divisor_types(s=8):
    """The Weyl hyperplane classes on s points by permutation type: a
    tuple of (d, w, arrangements), w the multiplicities sorted down and
    arrangements every distinct ordering of w.  The types solve
    3d^2 - sum m^2 = -1, 5d - sum m = 1 with d >= 1; Cauchy-Schwarz bounds
    d by (5d - 1)^2 <= s (3d^2 + 1), an interval from d = 1 for s <= 8."""
    _check_point_count(s)
    out, d = [], 1
    while (5 * d - 1) ** 2 <= s * (3 * d * d + 1):
        out.extend((d, w, tuple(_arrangements(w)))
                   for w in _sorted_solutions(s, 5 * d - 1, 3 * d * d + 1))
        d += 1
    return tuple(out)


@lru_cache(maxsize=None)
def weyl_divisors(s=8):
    """The Weyl hyperplane classes on s points, sorted: the arrangements
    of divisor_types(s) as records.  Equals divisor_orbit(s).members,
    order included."""
    return tuple(sorted(DivisorRecord(s, d, m) for d, _, arrangements
                        in divisor_types(s) for m in arrangements))


def _sorted_solutions(k, total, squares, cap=None):
    # non-increasing k-tuples (entries <= cap) with the given sum and sum
    # of squares; the first (largest) entry lies in [mean, isqrt(squares)]
    if k == 1:
        if (cap is None or total <= cap) and total * total == squares:
            yield (total,)
        return
    if total * total > k * squares:  # Cauchy-Schwarz
        return
    top = isqrt(squares) if cap is None else min(cap, isqrt(squares))
    for x in range(top, -(-total // k) - 1, -1):
        for rest in _sorted_solutions(k - 1, total - x, squares - x * x, x):
            yield (x,) + rest


def _arrangements(values):
    # the distinct orderings, without the k! tuples of permutations()
    if not values:
        yield ()
        return
    for x in sorted(set(values)):
        rest = list(values)
        rest.remove(x)
        for tail in _arrangements(rest):
            yield (x,) + tail


# -- plane normalization and pairing -----------------------------------

@lru_cache(maxsize=None)
def _center_sets(s):
    # every five center set on s points in lex order, and those meeting
    # {1,2,3} in exactly two points: a Cremona at one of these fixes S_1(123)
    every = tuple(combinations(range(1, s + 1), 5))
    return every, tuple(c for c in every if len({1, 2, 3}.intersection(c)) == 2)


def _steps_to_plane(rec):
    # Cremona steps from a record of the plane orbit to an actual plane:
    # d - 1 at positive degree; a contracted record is a line class (one
    # step from its plane) or a quartic class (two steps)
    return rec.d - 1 if rec.d > 0 else 1 + sum(rec.n)


def _normalizing_word(word, cur, center_sets, nearest, pairing=None):
    # the one degree descent and relabeling tail of both word functions:
    # until cur is an actual plane, append to word the Cremona at the first
    # of center_sets whose image is nearer to one (with nearest, the nearest
    # image, the first among ties).  The end plane S_1(idx) pairs 1 with
    # S_1(123) exactly when idx misses {1,2,3}, so it must agree with a
    # given pairing.  Last comes the relabeling keeping {1,2,3} stable that
    # moves idx onto (1,2,3), or, given the pairing, onto (4,5,6), (1,4,5)
    # or (1,2,4) by the number of points idx shares with {1,2,3}
    gap = _steps_to_plane(cur)
    while gap > 0:
        step = None
        for centers in center_sets:
            img = cremona5_surface(cur, centers)
            img_gap = _steps_to_plane(img)
            if img_gap < gap:
                step, nxt, gap = centers, img, img_gap
                if not nearest:
                    break
        if step is None:
            raise NoNormalizingWordError(f"degree reduction stalled at {cur!r}")
        word.append(Cremona5(step))
        cur = nxt
    tag, idx = classify_surface(cur)
    if tag != "S1":
        raise NoNormalizingWordError(f"reduction ended off the plane list: {cur!r}")
    shared = len({1, 2, 3}.intersection(idx))
    dst = (1, 2, 3)
    if pairing is not None:
        if (shared == 0) != (pairing == 1):
            raise NoNormalizingWordError(
                f"transport ended on S_1{idx}, which does not pair "
                f"{pairing} with S_1(123): {cur!r}")
        dst = ((4, 5, 6), (1, 4, 5), (1, 2, 4))[shared]
    perm = _perm_fixing_123(idx, dst, cur.s)
    if not perm.is_identity:
        word.append(perm)
    return tuple(word)


@lru_cache(maxsize=None)
def plane_normalizing_word(T):
    """Word sending the Weyl plane T to the actual plane S_1(123).

    A degree descent: each step takes, over every five centers in lex
    order, the Cremona whose image is nearest to an actual plane (the
    first among ties), until T is one, which one relabeling moves onto
    S_1(123).  The families descend S_15 -> S_10 -> S_6 -> S_1 and
    S_3 -> S_1, so at most three Cremonas are needed.
    """
    if classify_surface(T)[0] == "Other":
        raise NotAWeylPlaneError(f"not in the plane orbit: {T!r}")
    return _normalizing_word([], T, _center_sets(T.s)[0], True)


def surface_form(R, T):
    """The integer form d d' - sum m_i m'_i + sum n_k n'_k + sum m_ij m'_ij.

    This is the intersection pairing of surface records.  A relabeling
    only permutes its slots and every Cremona is an isometry of it, so it
    is constant along any word applied to both records.  Nothing is
    checked here; weyl_plane_pairing is the checked entry point.
    """
    return (R.d * T.d - sum(map(mul, R.m, T.m)) + sum(map(mul, R.n, T.n))
            + sum(map(mul, R.mline, T.mline)))


def weyl_plane_pairing(R, T):
    """Intersection number of two Weyl planes; always 0, 1 or 3.

    By definition: a word w sends R to S_1(123), one more Cremona c at
    the first five points turns S_1(123) into the class of the line L_45,
    and the pairing is the m_45 entry of c w T.  That entry is the
    surface_form of the L_45 class with c w T, and surface_form is
    invariant under every generator, so the pairing equals
    surface_form(R, T) and no word needs replaying.  The tests keep the
    transport as an independent check.
    """
    if R.s != T.s:
        raise ValueError("records live on different point counts")
    for X in (T, R):
        if classify_surface(X)[0] == "Other":
            raise NotAWeylPlaneError(f"not in the plane orbit: {X!r}")
    return surface_form(R, T)


def _perm_fixing_123(src, dst, s):
    # relabeling with src -> dst that also keeps {1,2,3} stable as a set
    # (the rest of {1,2,3} onto the rest of it, then the others in order)
    image = dict(zip(src, dst))
    for pool in ((1, 2, 3), range(1, s + 1)):
        free = [b for b in pool if b not in image.values()]
        image.update(zip([a for a in pool if a not in image], free))
    return Perm(tuple(image[i] for i in range(1, s + 1)))


def find_normalizing_word(R, T):
    """Word w with w(R) = S_1(123) and w(T) another actual plane.

    Exists exactly when the pairing is not 3.  The word starts with
    plane_normalizing_word(R), which may contract T to the class of a line
    (one Cremona from its plane) or of a quartic (two).  The descent of
    plane_normalizing_word then goes on from T's image, taking each time
    the first five centers in lex order that meet {1,2,3} in exactly two
    points and bring the image nearer to an actual plane; every such
    Cremona fixes S_1(123).  The pairing is constant along the word, and an
    actual plane pairs 1 with S_1(123) exactly when it shares no point with
    it, so an end plane that disagrees with the pairing is refused.  When
    the pairing is 1 the end plane is moved onto S_1(456); when it is 0 it
    shares one or two points with {1,2,3} and is moved onto S_1(145) or
    S_1(124).
    """
    if R == T:
        raise ValueError("the planes must differ (a plane pairs itself to 1)")
    value = weyl_plane_pairing(R, T)
    if value == 3:
        raise NoNormalizingWordError(
            "planes meeting with multiplicity 3 admit no separating word")
    word = list(plane_normalizing_word(R))
    cur = apply_word(T, tuple(word), allow_contraction=True)
    return _normalizing_word(word, cur, _center_sets(R.s)[1], False, value)
