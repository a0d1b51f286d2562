"""Every record type takes real ints only: a bool or a float in the degree
or in any entry, and a tuple of the wrong length, raise ValueError."""

import pytest

from cremona import linsys, p3, p4, weyl


def astuple(rec):
    # the field tuple, in the order __match_args__ names the fields
    return tuple(getattr(rec, name) for name in type(rec).__match_args__)


VALID = [
    (weyl.DivisorRecord, (8, 1, (1, 1, 1, 1, 0, 0, 0, 0))),
    (weyl.CurveRecord, (7, 1, (1, 1, 0, 0, 0, 0, 0))),
    (weyl.SurfaceRecord, astuple(weyl.s3_cubic(1, 8))),
    (linsys.FatPointDivisor, (10, 4, (4,) + (2,) * 9)),
    (p3.P3Divisor, (3, (2, 2, 2, 2), (1, 1, 1, 1, 1, 1))),
    (p3.P3Curve, (1, (0, 0, 1, 1), (0, 0, 0, 0, 0, 0))),
    (p4.P4Divisor, (4, (3,) * 5, (2,) * 10, (1,) * 10)),
    (p4.P4Curve, (1, (1, 1, 0, 0, 0), (1,) + (0,) * 9, (0,) * 10)),
    (p4.P4Surface, (6, (3,) * 5, (1,) * 10, (0,) * 10, (0,) * 10, (0,) * 30)),
]


def _variants(args):
    # args with one scalar or one entry made a float or a bool, or one
    # tuple field made a slot too short or too long
    for f, value in enumerate(args):
        if isinstance(value, int):
            for bad in (float(value), True):
                yield args[:f] + (bad,) + args[f + 1:]
            continue
        for i, x in enumerate(value):
            for bad in (float(x), x + 0.5, bool(x)):
                yield args[:f] + (value[:i] + (bad,) + value[i + 1:],) + args[f + 1:]
        for wrong in (value[:-1], value + (0,)):
            yield args[:f] + (wrong,) + args[f + 1:]


@pytest.mark.parametrize("cls, args", VALID, ids=[c.__name__ for c, _ in VALID])
def test_record_entries_are_strict_ints(cls, args):
    rec = cls(*args)
    assert astuple(rec) == args
    assert all(type(x) is int for f in astuple(rec)
               for x in (f if isinstance(f, tuple) else (f,)))
    count = 0
    for bad in _variants(args):
        with pytest.raises(ValueError):
            cls(*bad)
        count += 1
    assert count > 2 * len(args)


def test_truncation_example_is_refused():
    # int() used to turn this into (1; 1,1,1,1,0,0,0,0)
    with pytest.raises(ValueError):
        weyl.DivisorRecord(8, 1.9, (1, 1, 1, True, 0, 0, 0, 0.5))
    with pytest.raises(ValueError):
        linsys.FatPointDivisor(8, 1.9, (1, 1, 1, True, 0, 0, 0, 0.5))


def test_twin_records_stay_distinct():
    # divisor and curve records share one body but never compare equal
    for div, cur, args in (
            (weyl.DivisorRecord, weyl.CurveRecord, (8, 1, (1, 1) + (0,) * 6)),
            (p3.P3Divisor, p3.P3Curve, (1, (1, 0, 0, 0), (0,) * 6)),
            (p4.P4Divisor, p4.P4Curve, (1, (1,) * 5, (0,) * 10, (0,) * 10))):
        D, C = div(*args), cur(*args)
        assert D != C and D == div(*args)
        assert repr(D).startswith(div.__name__ + "(")
        assert repr(C).startswith(cur.__name__ + "(")
