"""Exact graded intersection rings with named cycle bases.

The two rings this package cares about (``cremona.p3.RING`` and
``cremona.p4.RING``) are finite free Z-modules graded by codimension.
This module holds the ring-independent machinery: basis labels, sparse
classes with exact integer coefficients, table-driven bilinear products
and the Cremona involution each resolved space derives from its table.

A ring numbers its basis once, in ``add_basis`` order: ``ring.elems[k]``
is basis cycle number k and ``ring.index[elem]`` its number.  The product
table and the compiled images of a linear map are sparse rows of
(number, coefficient) pairs, so the inner loops of ``mul`` and
``linear_map`` add into int-keyed dicts; a basis element is hashed once
per term of an operand and once per term of the result, never per table
entry.  Classes keep their coefficients keyed by basis elements.

Coefficients are plain Python ints held to the signed 64-bit magnitude
bound |c| <= INT64_MAX, so silent wraparound in downstream consumers
(serialisers, foreign-function callers) cannot go unnoticed.  Every class
a function here returns has its final coefficients checked against the
bound; ``linear_map`` also checks each product c*v of a coefficient with
an image coefficient and each running sum, as the term-by-term fold
``scale``/``add`` did.  The products inside ``mul`` are not checked, only
its result.  Everything is immutable after ring construction and safe to
share between threads.
"""

from __future__ import annotations

import re
import threading
from collections.abc import Mapping
from operator import attrgetter
from types import SimpleNamespace

INT64_MAX = 2**63 - 1


class ChowError(Exception):
    """Base class for ring arithmetic errors."""


class MixedGradeError(ChowError):
    """Operands or listed terms do not live in a single ring and grade."""


class UnknownBasisError(ChowError):
    """A term refers to a cycle that is not a stored basis element."""


class GradeOverflowError(ChowError):
    """A product would land beyond the ring dimension."""


class WrongGradeError(ChowError):
    """The operation needs a class of a specific grade (e.g. top grade)."""


class UnknownSymbolError(ChowError):
    """A symbolic term is neither a basis element nor a derived symbol."""


class MissingTableEntryError(ChowError):
    """No product entry stored for a required basis pair."""


class CoefficientOverflowError(ChowError):
    """A coefficient left the checked 64-bit range."""


class FinalizedRingError(ChowError):
    """The ring is finalized: its basis, products and symbols are fixed."""


class Value:
    """Base of the package's frozen value types.

    A subclass names its fields, in order, in ``__match_args__``; its
    ``__init__`` stores their checked values for good.  Values compare,
    order and hash as field tuples, within one class: twin kinds stay apart.
    """

    __match_args__ = ()

    def __init_subclass__(cls):
        names = cls.__match_args__
        if names:  # _fields: the field tuple, read by one C call
            get = attrgetter(*names)
            cls._fields = property(get if len(names) > 1
                                   else lambda value: (get(value),))

    def _set(self, *values):
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        body = ", ".join([f"{name}={getattr(self, name)!r}"
                          for name in self.__match_args__])
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self):
        return hash(self._fields)

    # > and >= are the reflections of < and <=
    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._fields < other._fields
        return NotImplemented

    def __le__(self, other):
        return self == other or self < other


class BasisElement(Value):
    """A named basis cycle: ring id, grade, kind tag, sorted index set.

    ``sub`` is -1 except for the vertical surface classes in the P^4 ring,
    where it singles out one member of ``idx``.
    """

    __match_args__ = ("ring", "grade", "kind", "idx", "sub")

    def __init__(self, ring: str, grade: int, kind: str,
                 idx: tuple[int, ...] = (), sub: int = -1):
        if list(idx) != sorted(set(idx)):
            raise ValueError(f"index set must be strictly increasing: {idx!r}")
        if sub != -1 and sub not in idx:
            raise ValueError(f"sub-index {sub} not in {idx!r}")
        self._set(ring, grade, kind, idx, sub)
        # computed once: every dict probe on a class or on a ring's index
        # hashes its key
        object.__setattr__(self, "_hash", hash((ring, grade, kind, idx, sub)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt on unpickling, so the stored hash follows that process's
        # string hashing
        return (BasisElement, self._fields)

    @property
    def name(self) -> str:
        if self.kind == "one":
            return "1"
        s = self.kind + "".join(str(i) for i in self.idx)
        if self.sub >= 0:
            s += "," + str(self.sub)
        return s

    def __repr__(self):
        return self.name


def parse_name(name: str) -> tuple[str, tuple[int, ...], int]:
    """Split a display name like ``V012,1`` into (kind, idx, sub).

    Index digits are single characters (all rings here have < 10 points);
    the sub-index is a point label in ASCII digits, read by ``ascii_int``
    and never negative (-1 is what a name without one gets).  A name with
    surrounding whitespace is refused, not stripped.
    """
    if name != name.strip():
        raise UnknownSymbolError(f"cannot parse cycle name {name!r}")
    full = name
    if name == "1":
        return ("one", (), -1)
    sub = -1
    if "," in name:
        name, subtxt = name.split(",", 1)
        try:
            sub = ascii_int(subtxt)
        except ValueError:
            sub = -1
        if sub < 0:
            raise UnknownSymbolError(f"cannot parse cycle name {full!r}")
    kind = name.rstrip("0123456789")
    if not kind:
        raise UnknownSymbolError(f"cannot parse cycle name {name!r}")
    idx = tuple(int(c) for c in name[len(kind):])
    return (kind, idx, sub)


class ChowClass:
    """Sparse integer combination of basis cycles of a single grade."""

    __slots__ = ("ring", "grade", "coeffs")

    def __init__(self, ring: "ChowRing", grade: int, coeffs: dict):
        self.ring = ring
        self.grade = grade
        self.coeffs = coeffs  # canonical: no zero values

    def terms(self) -> tuple[tuple[BasisElement, int], ...]:
        return tuple(sorted(self.coeffs.items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, elem: BasisElement) -> int:
        return self.coeffs.get(elem, 0)

    def __eq__(self, other):
        if not isinstance(other, ChowClass):
            return NotImplemented
        return (self.ring is other.ring and self.grade == other.grade
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(other, -1))

    def __neg__(self):
        return scale(self, -1)

    def __rmul__(self, c):
        if isinstance(c, int):
            return scale(self, c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return scale(self, other)
        if isinstance(other, ChowClass):
            return mul(self, other)
        return NotImplemented

    def __repr__(self):
        if not self.coeffs:
            return f"0[{self.grade}]"
        parts = []
        for elem, c in self.terms():
            if c == 1:
                parts.append(f"+{elem.name}")
            elif c == -1:
                parts.append(f"-{elem.name}")
            else:
                parts.append(f"{c:+d}*{elem.name}")
        out = " ".join(parts)
        return out[1:] if out.startswith("+") else out


def _canonical(ring, grade, items) -> ChowClass:
    # items: (basis element, coefficient) pairs with distinct elements
    clean = {}
    for elem, c in items:
        if c:
            if c > INT64_MAX or c < -INT64_MAX:
                raise CoefficientOverflowError(
                    f"coefficient {c} of {elem.name} exceeds 64-bit range")
            clean[elem] = c
    return ChowClass(ring, grade, clean)


def _numbered_class(ring, grade, acc: dict) -> ChowClass:
    # the class sum of c * ring.elems[k] over acc's (k, c)
    return _canonical(ring, grade,
                      zip(map(ring.elems.__getitem__, acc), acc.values()))


class ChowRing:
    """A graded ring with a finite named basis and table multiplication.

    Built in two phases: ``add_basis``/``set_product``/``add_derived`` while
    constructing, then ``finalize()`` which checks the product table covers
    every basis pair with grade sum <= dim and locks the ring.

    ``elems[k]`` is basis cycle number k, numbered in ``add_basis`` order,
    and ``index`` maps a basis element (or any element equal to one) back
    to its number.  The product table is one list of rows by basis number:
    ``_rows[i][j]`` is the product of cycles i and j as a tuple of
    (number, coefficient) pairs, or None where no product is stored.
    """

    def __init__(self, ring_id: str, dim: int):
        self.ring_id = ring_id
        self.dim = dim
        self.basis_by_grade: dict[int, list[BasisElement]] = {
            g: [] for g in range(dim + 1)}
        self.elems: list[BasisElement] = []
        self.index: dict[BasisElement, int] = {}
        self._lookup: dict[tuple, BasisElement] = {}
        self._rows: list[list] = []
        self._derived: dict[tuple, "ChowClass"] = {}
        self._final = False

    # -- construction ------------------------------------------------

    def add_basis(self, grade, kind, idx=(), sub=-1) -> BasisElement:
        self._check_open()
        elem = BasisElement(self.ring_id, grade, kind, tuple(idx), sub)
        key = (kind, tuple(idx), sub)
        if key in self._lookup:
            raise ValueError(f"duplicate basis element {elem.name}")
        self._lookup[key] = elem
        self.index[elem] = len(self.elems)
        self.elems.append(elem)
        for row in self._rows:
            row.append(None)
        self._rows.append([None] * len(self.elems))
        self.basis_by_grade[grade].append(elem)
        return elem

    def set_product(self, a: BasisElement, b: BasisElement, terms):
        """Store a*b (and b*a).  ``terms`` is a list of (elem, coeff)."""
        self._check_open()
        index = self.index
        acc = {}
        for elem, c in terms:
            k = index[elem]
            acc[k] = acc.get(k, 0) + c
        i, j = index[a], index[b]
        self._rows[i][j] = self._rows[j][i] = tuple(
            (k, c) for k, c in acc.items() if c != 0)

    def add_derived(self, kind, idx, sub, cls: ChowClass):
        self._check_open()
        self._derived[(kind, tuple(idx), sub)] = cls

    def _check_open(self):
        # a real check, not an assert: python -O must not let a caller
        # rewrite the table of a shared, finalized ring
        if self._final:
            raise FinalizedRingError(f"ring {self.ring_id} is finalized")

    def finalize(self):
        index = self.index
        for ga in range(1, self.dim + 1):
            for gb in range(ga, self.dim + 1 - ga):
                for a in self.basis_by_grade[ga]:
                    row = self._rows[index[a]]
                    for b in self.basis_by_grade[gb]:
                        if row[index[b]] is None:
                            raise MissingTableEntryError(
                                f"no product stored for {a.name} * {b.name}")
        self._final = True

    # -- basis access ------------------------------------------------

    def element(self, kind, idx=(), sub=-1) -> BasisElement:
        try:
            return self._lookup[(kind, tuple(idx), sub)]
        except KeyError:
            raise UnknownBasisError(
                f"{self.ring_id} has no basis element {kind}{tuple(idx)}"
                + (f",{sub}" if sub != -1 else "")) from None

    def basis(self, grade=None):
        if grade is None:
            for g in range(self.dim + 1):
                yield from self.basis_by_grade[g]
        else:
            yield from self.basis_by_grade[grade]

    @property
    def one(self) -> BasisElement:
        return self.basis_by_grade[0][0]

    @property
    def point(self) -> BasisElement:
        return self.basis_by_grade[self.dim][0]

    # -- class construction and arithmetic ----------------------------

    def zero(self, grade: int) -> ChowClass:
        return ChowClass(self, self._grade(grade), {})

    def make_class(self, grade: int, terms) -> ChowClass:
        """Build a class from (element, coefficient) pairs of one grade.

        Elements may be BasisElement values belonging to this ring or
        (kind, idx) / (kind, idx, sub) tuples / display-name strings.
        """
        self._grade(grade)
        acc = {}
        for elem, c in terms:
            elem = self._coerce(elem)
            if elem.grade != grade:
                raise MixedGradeError(
                    f"{elem.name} has grade {elem.grade}, expected {grade}")
            acc[elem] = acc.get(elem, 0) + _int(c, "coefficient")
        return _canonical(self, grade, acc.items())

    def cls(self, elem, c=1) -> ChowClass:
        """Single-term convenience constructor."""
        elem = self._coerce(elem)
        return _canonical(self, elem.grade, ((elem, _int(c, "coefficient")),))

    def _grade(self, grade):
        if not 0 <= _int(grade, "grade") <= self.dim:
            raise WrongGradeError(f"grade {grade} outside 0..{self.dim}")
        return grade

    def _coerce(self, elem) -> BasisElement:
        if isinstance(elem, BasisElement):
            if elem.ring != self.ring_id:
                raise MixedGradeError(
                    f"{elem.name} belongs to {elem.ring}, not {self.ring_id}")
            k = self.index.get(elem)
            if k is None:
                raise UnknownBasisError(f"{elem.name} not in {self.ring_id} basis")
            return self.elems[k]
        if isinstance(elem, str):
            kind, idx, sub = parse_name(elem)
            return self.element(kind, idx, sub)
        if isinstance(elem, tuple):
            if len(elem) == 2:
                return self.element(elem[0], elem[1])
            if len(elem) == 3:
                return self.element(elem[0], elem[1], elem[2])
        raise UnknownBasisError(f"cannot interpret {elem!r} as a basis element")

    def mul(self, x: ChowClass, y: ChowClass) -> ChowClass:
        if x.ring is not self or y.ring is not self:
            raise MixedGradeError("operands from different rings")
        g = x.grade + y.grade
        if g > self.dim:
            raise GradeOverflowError(
                f"grades {x.grade}+{y.grade} exceed dim {self.dim}")
        if x.grade == 0:
            return scale(y, x.coeff(self.one))
        if y.grade == 0:
            return scale(x, y.coeff(self.one))
        return _numbered_class(
            self, g, self._products(self._numbered(x), self._numbered(y)))

    def _products(self, xs, ys) -> dict:
        # {basis number: coefficient} of the product of the classes whose
        # (basis number, coefficient) terms are xs and ys
        rows = self._rows
        acc = {}
        for i, ca in xs:
            row = rows[i]
            for j, cb in ys:
                entry = row[j]
                if entry is None:
                    raise MissingTableEntryError(
                        f"no product stored for {self.elems[i].name} * "
                        f"{self.elems[j].name}")
                cab = ca * cb
                for k, c in entry:
                    if k in acc:
                        acc[k] += cab * c
                    else:
                        acc[k] = cab * c
        return acc

    def _numbered(self, x: ChowClass) -> list:
        # (basis number, coefficient) of each term of x, in x's order
        index = self.index
        try:
            return [(index[e], c) for e, c in x.coeffs.items()]
        except KeyError as err:
            raise UnknownBasisError(
                f"{err.args[0].name} not in {self.ring_id} basis") from None

    def degree(self, x: ChowClass) -> int:
        """Coefficient of the point class; defined only in top grade."""
        if x.ring is not self:
            raise MixedGradeError("class from a different ring")
        if x.grade != self.dim:
            raise WrongGradeError(
                f"degree needs grade {self.dim}, got {x.grade}")
        return x.coeff(self.point)

    def normalize(self, terms) -> ChowClass:
        """Expand a symbolic combination into stored basis cycles.

        Terms are (symbol, coeff) pairs where symbol is a basis element,
        a display-name string, or a (kind, idx[, sub]) tuple naming either
        a basis cycle or one of the ring's derived (rewritten) symbols.
        All terms must land in a single grade.
        """
        out = None
        for sym, c in terms:
            cls = self._expand_symbol(sym)
            cls = scale(cls, c)
            out = cls if out is None else add(out, cls)
        if out is None:
            raise UnknownSymbolError("empty symbolic combination has no grade")
        return out

    def _expand_symbol(self, sym) -> ChowClass:
        if isinstance(sym, BasisElement):
            return self.cls(sym)
        if isinstance(sym, str):
            kind, idx, sub = parse_name(sym)
        elif isinstance(sym, tuple) and len(sym) in (2, 3):
            kind, idx = sym[0], tuple(sym[1])
            sub = sym[2] if len(sym) == 3 else -1
        else:
            raise UnknownSymbolError(f"cannot interpret symbol {sym!r}")
        hit = self._lookup.get((kind, idx, sub))
        if hit is not None:
            return self.cls(hit)
        drv = self._derived.get((kind, idx, sub))
        if drv is not None:
            return drv
        raise UnknownSymbolError(
            f"{self.ring_id} knows no symbol {kind}{idx}"
            + (f",{sub}" if sub != -1 else ""))


# -- grade-checked module-level helpers -------------------------------

def add(x: ChowClass, y: ChowClass) -> ChowClass:
    if x.ring is not y.ring or x.grade != y.grade:
        raise MixedGradeError(
            f"cannot add grade {x.grade} and grade {y.grade} classes")
    acc = dict(x.coeffs)
    for e, c in y.coeffs.items():
        acc[e] = acc.get(e, 0) + c
    return _canonical(x.ring, x.grade, acc.items())


def scale(x: ChowClass, c: int) -> ChowClass:
    if _int(c, "scalar") == 1:
        return x
    return _canonical(x.ring, x.grade,
                      [(e, c * v) for e, v in x.coeffs.items()])


def mul(x: ChowClass, y: ChowClass) -> ChowClass:
    if x.ring is not y.ring:
        raise MixedGradeError("operands from different rings")
    return x.ring.mul(x, y)


def degree(x: ChowClass) -> int:
    return x.ring.degree(x)


def linear_map(x: ChowClass, images) -> ChowClass:
    """Apply a basis-indexed linear map to a class.

    ``images[elem]`` is the image class of each basis cycle; all images of
    the cycles present in ``x`` must share one ring and grade (usually
    x.grade, but graded automorphisms are the intended use so it always is
    here).  An ``ImageRows`` of x's ring holds its images compiled once;
    any other mapping's images are compiled on the call.  The sum of
    c*images[e] is accumulated over basis numbers.  Each product c*v and
    each running sum is held to the 64-bit bound, so this raises
    CoefficientOverflowError exactly where folding ``add`` over
    ``scale(images[e], c)`` would.
    """
    if isinstance(images, ImageRows) and images.ring is x.ring:
        index, rows = x.ring.index, images.rows
        terms = [(c, rows[index[e]]) for e, c in x.coeffs.items()]
    else:
        terms = ((c, _image_row(images[e])) for e, c in x.coeffs.items())
    return _map_rows(x, terms)


class ImageRows(Mapping):
    """The images of the basis cycles of one ring under a linear map: a
    read-only mapping from each basis element to its image class, compiled
    once for ``linear_map`` into ``rows``, by basis number."""

    __slots__ = ("ring", "rows", "_images")

    def __init__(self, ring: ChowRing, images):
        self.ring = ring
        self._images = dict(images)
        self.rows = [_image_row(self._images[e]) for e in ring.elems]

    def __getitem__(self, elem):
        return self._images[elem]

    def __iter__(self):
        return iter(self._images)

    def __len__(self):
        return len(self._images)


def _image_row(img: ChowClass) -> tuple:
    # (img, its terms as (basis number in img.ring, coefficient) pairs,
    # the largest |coefficient|)
    row = tuple(img.ring._numbered(img))
    return img, row, max((abs(v) for _, v in row), default=0)


def _map_rows(x: ChowClass, terms) -> ChowClass:
    # the kernel of linear_map: terms yields (c, _image_row(image)) for
    # each term of x, in x's order
    ring = grade = None
    acc = {}
    for c, (img, row, top) in terms:
        if abs(c) * top > INT64_MAX:
            # some c*v leaves the range: the fold's scale(img, c) raises
            # before its add, whatever the grades
            k, cv = next((k, c * v) for k, v in row if abs(c * v) > INT64_MAX)
            raise CoefficientOverflowError(
                f"coefficient {cv} of {img.ring.elems[k].name} "
                "exceeds 64-bit range")
        if img.ring is not ring or img.grade != grade:
            if ring is not None:
                raise MixedGradeError(
                    f"cannot add grade {grade} and grade {img.grade} classes")
            ring, grade = img.ring, img.grade
        # every c*v is in range, so only sums need the check
        for k, v in row:
            if k in acc:
                total = acc[k] + c * v
                if total > INT64_MAX or total < -INT64_MAX:
                    raise CoefficientOverflowError(
                        f"coefficient {total} of {ring.elems[k].name} "
                        "exceeds 64-bit range")
                acc[k] = total
            else:
                acc[k] = c * v
    if ring is None:
        return x.ring.zero(x.grade)
    return _numbered_class(ring, grade, acc)


def _int(x, what):
    # int_tuple's entry check for one grade or coefficient
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def int_tuple(values, n, what):
    """The n entries of values as a tuple of plain ints.

    This is the one entry check of every record type in the package.  An
    entry whose type is not exactly int (a bool, a float) is refused, not
    truncated, and so is a wrong length; both raise ValueError.
    """
    t = tuple(values)
    if len(t) != n:
        raise ValueError(f"{what} needs {n} entries, got {len(t)}")
    for x in t:
        if type(x) is not int:
            raise ValueError(f"{what} must hold integers, got {x!r}")
    return t


_INT_TOKEN = re.compile(r"-?[0-9]+")


def ascii_int(text):
    """The integer a piece of text spells: ASCII -?[0-9]+ only (int()
    would also read 1_0 as 10, "+5", " 5" and non-ASCII digits); anything
    else raises ValueError.  The one reader of integers written on the
    command line, in a triangle or in the environment."""
    if not _INT_TOKEN.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


# -- records: fixed-length integer views of the classes of one grade ------

class IntRecord(Value):
    """Base of the fixed-length integer records: the one entry check.

    A record type declares its tuple fields after the int field d once, in
    FIELDS, as (name, length) pairs; its ``__match_args__`` (d and those
    names) and ``T(d, *fields)``, fields in order or by name, follow.  A
    type with more fields (a leading s) sets its own ``__match_args__`` and
    ``__init__``, which calls ``IntRecord.__init__``.  A d or an entry that
    is not exactly an int, or a wrong length, raises ValueError; a missing,
    repeated or unknown field raises TypeError.
    """

    FIELDS = ()

    def __init_subclass__(cls):
        if "__match_args__" not in vars(cls):
            cls.__match_args__ = ("d",) + tuple(name for name, _ in cls.FIELDS)
        super().__init_subclass__()

    def __init__(self, d, *fields, **named):
        if named:  # the fields after those given in order, by name
            fields += tuple([named.pop(name) for name, _
                             in self.FIELDS[len(fields):] if name in named])
        if named or len(fields) != len(self.FIELDS):
            raise TypeError(f"{type(self).__name__} takes d and the fields "
                            f"{', '.join(name for name, _ in self.FIELDS)}")
        object.__setattr__(self, "d", int_tuple((d,), 1, "d")[0])
        for (name, n), values in zip(self.FIELDS, fields):
            object.__setattr__(self, name, int_tuple(values, n, name))


def check_kind(rec, kinds):
    """Refuse a record of any type but kinds, a type or a tuple of types:
    twin kinds (a divisor and a curve record, say) share their fields, so
    a kind-specific map would read the one as the other."""
    if not isinstance(rec, kinds):
        kinds = kinds if isinstance(kinds, tuple) else (kinds,)
        raise TypeError(f"not a {' or '.join(k.__name__ for k in kinds)}: "
                        f"{rec!r}")


def record_layout(ring, record_type, lead, *fields):
    """Where the entries of an IntRecord type sit in ring, looked up once.

    d is the coefficient of the cycle named by the symbol ``lead``, and
    each field of record_type.FIELDS, given here in order as (sign,
    symbols), lists sign * coefficient of the cycles those symbols name.
    A symbol is a (kind[, idx[, sub]]) tuple for ``ChowRing.element``.
    The layout holds the ring's own basis elements; a field count or a
    symbol count that differs from FIELDS raises ValueError.
    """
    sizes = tuple(len(syms) for _, syms in fields)
    if sizes != tuple(n for _, n in record_type.FIELDS):
        raise ValueError(f"{record_type.__name__} fields {record_type.FIELDS} "
                         f"do not match the layout's sizes {sizes}")
    return (ring, record_type, ring.element(*lead), tuple(
        (name, sign, tuple(ring.element(*sym) for sym in syms))
        for (name, _), (sign, syms) in zip(record_type.FIELDS, fields)))


def record_class(layout, rec):
    """The class of the record rec.

    Its coefficients sit on the layout's own ring elements, which are
    distinct and of one grade, so no term needs the per-term check of
    ``make_class``; only the 64-bit bound and the record type are checked.
    """
    ring, record_type, lead, rest = layout
    check_kind(rec, record_type)
    items = [(lead, rec.d)]
    for name, sign, elems in rest:
        items += zip(elems, [sign * v for v in getattr(rec, name)])
    return _canonical(ring, lead.grade, items)


def record_from_class(x, layout):
    """The record whose class is x, which must lie in the layout's ring and
    grade (WrongGradeError otherwise)."""
    ring, record_type, lead, rest = layout
    if x.ring is not ring or x.grade != lead.grade:
        raise WrongGradeError(f"{record_type.__name__} records live in grade "
                              f"{lead.grade} of the {ring.ring_id} ring")
    get = x.coeffs.get
    return record_type(get(lead, 0), *[
        tuple([sign * get(e, 0) for e in elems]) for _, sign, elems in rest])


# -- resolved spaces: one module, one lazily built ring --------------------

def cremona_images(ring):
    """The images of the basis cycles of ring, the resolution of the
    standard Cremona map of P^n (n = ring.dim), under its lift.

    On divisors it is D_S -> D_{S^c} on the rays of the fan: H -> n*H -
    sum_T (n - |T|) E_T, E_T -> E_{T^c} for |T| >= 2 and E_i -> H - sum of
    the E_T with i not in T.  A cycle e of a stored product b*D = c*e +
    sum c_f f, b one grade lower, D a divisor, c = +-1 and every f mapped,
    goes to c*(sigma(b)*sigma(D) - sum c_f sigma(f)); a cycle no product
    reaches raises ChowError naming it.
    """
    n, index, rows = ring.dim, ring.index, ring._rows
    H, one = index[ring.element("H")], index[ring.one]
    E = {e.idx: index[e] for e in ring.basis(1) if e.kind == "E"}
    # by basis number, each image as {basis number: coefficient}
    images = {one: {one: 1}, H: {H: n, **{E[t]: len(t) - n for t in E}}}
    for t, k in E.items():
        if len(t) == 1:
            images[k] = {H: 1, **{E[u]: -1 for u in E if t[0] not in u}}
        else:
            rest = [i for i in range(n + 1) if i not in t]
            images[k] = {index[ring.element("E", rest)]: 1}
    divisors = [index[e] for e in ring.basis(1)]
    for grade in range(n + 1):
        pending = {index[e] for e in ring.basis(grade)} - images.keys()
        lower = [index[e] for e in ring.basis(grade - 1)] if grade > 1 else ()
        nonzero = [(i, j) for i in lower for j in divisors if rows[i][j]]
        while pending:
            left = len(pending)
            for i, j in nonzero:
                new = [kc for kc in rows[i][j] if kc[0] in pending]
                if len(new) != 1 or abs(new[0][1]) != 1:
                    continue
                (k, c), = new
                # sigma(b) * sigma(D) - sum c_f sigma(f)
                acc = ring._products(images[i].items(), images[j].items())
                for f, cf in rows[i][j]:  # k itself has no image yet
                    for m, v in images.get(f, {}).items():
                        acc[m] = acc.get(m, 0) - cf * v
                images[k] = {m: c * v for m, v in acc.items() if v}
                pending.discard(k)
            if len(pending) == left:
                raise ChowError(f"no Cremona image derived for "
                                f"{ring.elems[min(pending)].name}")
    return {e: _numbered_class(ring, e.grade, images[k])
            for k, e in enumerate(ring.elems)}


class Space:
    """The ring of a resolved space and the functions around it.

    The module whose ``globals()`` is namespace defines ``_build_ring()``,
    read at build time, and no involution: ``cremona_images`` derives it.
    layouts maps each record kind to its ``record_layout`` arguments after
    the ring.  The space adds ``<kind>_class``, ``<kind>_from_class``,
    ``normalize`` and a PEP 562 ``__getattr__`` for ``RING`` and
    ``_INVOLUTION`` to namespace.  ``tables()`` builds on first use, not at
    import, and once even when threads race to it (classes of one ring
    compare by its identity).
    """

    def __init__(self, namespace, label, layouts):
        self.label = label  # for messages: "P^4"
        self._namespace, self._layout_args = namespace, layouts
        self._lock, self._built = threading.Lock(), None
        for kind in layouts:
            self._codecs(kind)
        tables = self.tables

        def normalize(terms):
            """Expand a symbolic combination, derived symbols allowed."""
            return tables().ring.normalize(terms)

        self._publish("normalize", normalize)
        namespace["__getattr__"] = self._module_attr

    def tables(self):
        """ring, involution (ImageRows) and layouts (by kind)."""
        if self._built is None:
            with self._lock:
                if self._built is None:
                    self._built = self._build()
        return self._built

    def _build(self):
        ns = self._namespace
        ring = ns["_build_ring"]()
        return SimpleNamespace(
            ring=ring, involution=ImageRows(ring, cremona_images(ring)),
            layouts={kind: record_layout(ring, *spec)
                     for kind, spec in self._layout_args.items()})

    def _publish(self, name, fn):
        # a real name, as for a def in the module
        fn.__name__ = fn.__qualname__ = name
        fn.__module__ = self._namespace["__name__"]
        self._namespace[name] = fn

    def _codecs(self, kind):
        tables = self.tables

        def to_class(rec):
            """The class of a record of this kind."""
            return record_class(tables().layouts[kind], rec)

        def from_class(x):
            """The record of this kind whose class is x."""
            return record_from_class(x, tables().layouts[kind])

        self._publish(f"{kind}_class", to_class)
        self._publish(f"{kind}_from_class", from_class)

    def _module_attr(self, name):
        if name == "RING":
            return self.tables().ring
        if name == "_INVOLUTION":
            return self.tables().involution
        raise AttributeError(f"module {self._namespace['__name__']!r} "
                             f"has no attribute {name!r}")

    def involution_of(self, x):
        """The involution's images, for a class x of this space's ring
        (WrongGradeError for any other class)."""
        tables = self.tables()
        if x.ring is not tables.ring:
            raise WrongGradeError(
                f"class does not belong to the {self.label} ring")
        return tables.involution
