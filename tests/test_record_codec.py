"""The record codec of chow: record_layout checks a layout against the
record type's FIELDS when the ring is built, and record_from_class holds
the one ring and grade check of every *_from_class converter."""

import pytest

from cremona import chow, p3, p4

CONVERTERS = [
    (p3, p3.divisor_from_class, p3.divisor_class, p3.P3Divisor, 1),
    (p3, p3.curve_from_class, p3.curve_class, p3.P3Curve, 2),
    (p4, p4.divisor_from_class, p4.divisor_class, p4.P4Divisor, 1),
    (p4, p4.curve_from_class, p4.curve_class, p4.P4Curve, 3),
    (p4, p4.surface_from_class, p4.surface_class, p4.P4Surface, 2),
]
IDS = [f"{mod.__name__[8:]}.{cls.__name__}" for mod, _, _, cls, _ in CONVERTERS]

MESSAGES = {
    p3.P3Divisor: "P3Divisor records live in grade 1 of the X3 ring",
    p3.P3Curve: "P3Curve records live in grade 2 of the X3 ring",
    p4.P4Divisor: "P4Divisor records live in grade 1 of the X4 ring",
    p4.P4Curve: "P4Curve records live in grade 3 of the X4 ring",
    p4.P4Surface: "P4Surface records live in grade 2 of the X4 ring",
}


def foreign_classes(mod, grade):
    # one basis cycle of every other grade of mod's ring, and one of every
    # grade of the other ring
    other = p4 if mod is p3 else p3
    out = [mod.RING.cls(next(mod.RING.basis(g)))
           for g in range(mod.RING.dim + 1) if g != grade]
    out += [other.RING.cls(next(other.RING.basis(g)))
            for g in range(other.RING.dim + 1)]
    return out


@pytest.mark.parametrize("mod, from_class, to_class, cls, grade", CONVERTERS,
                         ids=IDS)
def test_converters_refuse_a_foreign_class(mod, from_class, to_class, cls,
                                           grade):
    classes = foreign_classes(mod, grade)
    assert len(classes) == 8
    for x in classes:
        with pytest.raises(chow.WrongGradeError) as err:
            from_class(x)
        assert str(err.value) == MESSAGES[cls]


@pytest.mark.parametrize("mod, from_class, to_class, cls, grade", CONVERTERS,
                         ids=IDS)
def test_converters_round_trip(mod, from_class, to_class, cls, grade):
    sizes = (1,) + tuple(n for _, n in cls.FIELDS)
    rec = cls(*[7 if n == 1 else tuple(range(-3, n - 3)) for n in sizes])
    x = to_class(rec)
    assert x.ring is mod.RING and x.grade == grade
    back = from_class(x)
    assert type(back) is cls and back == rec


def test_layout_must_match_the_record_fields():
    R = p4.RING
    points = [("S", (i,)) for i in p4.POINTS]
    p_cycles = [("P", q) for q in p4.PAIRS]
    f_cycles = [("F", q) for q in p4.PAIRS]
    h_cycles = [("H", t) for t in p4.TRIPLES]
    v_cycles = [("V", t, w) for t, w in p4.V_SLOTS]
    good = chow.record_layout(R, p4.P4Surface, ("S",), (-1, points),
                              (-1, p_cycles), (-1, f_cycles), (-1, h_cycles),
                              (1, v_cycles))
    assert good == p4._tables().surface
    # nl and np swapped: the thirty V cycles where nl wants ten, the ten F
    # cycles where np wants thirty
    with pytest.raises(ValueError, match="P4Surface"):
        chow.record_layout(R, p4.P4Surface, ("S",), (-1, points),
                           (-1, p_cycles), (1, v_cycles), (-1, h_cycles),
                           (-1, f_cycles))
    # a field left out
    with pytest.raises(ValueError, match="P4Surface"):
        chow.record_layout(R, p4.P4Surface, ("S",), (-1, points),
                           (-1, p_cycles), (-1, f_cycles), (-1, h_cycles))
    # the divisor layout offered to the curve record of the other ring
    with pytest.raises(ValueError, match="P3Curve"):
        chow.record_layout(R, p3.P3Curve, ("l",), (-1, points),
                           (-1, p_cycles))


def test_record_fields_follow_d():
    # FIELDS names the dataclass fields after d, in order
    for cls in (p3.P3Divisor, p3.P3Curve, p4.P4Divisor, p4.P4Curve,
                p4.P4Surface):
        assert cls.__match_args__ == ("d",) + tuple(n for n, _ in cls.FIELDS)
