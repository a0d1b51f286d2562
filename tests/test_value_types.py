"""The value-type contract of the package's frozen record types: the
literal repr, equality within the exact class only, hash of the field
tuple, the field-tuple order, frozen fields, and pickle/copy round trips.
Each type names its fields, in order, in __match_args__."""

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cremona import chow, linsys, p3, p4, weyl

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fields(x):
    return tuple(getattr(x, name) for name in type(x).__match_args__)


ZEROS = "0, 0, 0, 0, 0"
VALUES = [
    (chow.BasisElement("X4", 2, "V", (0, 1, 2), 1), "V012,1", None),
    (weyl.DivisorRecord(8, 1, (1, 1, 1, 1, 0, 0, 0, 0)),
     "DivisorRecord(s=8, d=1, m=(1, 1, 1, 1, 0, 0, 0, 0))", weyl.CurveRecord),
    (weyl.CurveRecord(7, 1, (1, 1, 0, 0, 0, 0, 0)),
     "CurveRecord(s=7, d=1, m=(1, 1, 0, 0, 0, 0, 0))", weyl.DivisorRecord),
    (weyl.s1_plane(1, 2, 3, s=6),
     "SurfaceRecord(s=6, d=1, m=(1, 1, 1, 0, 0, 0, 0, 0), "
     "n=(0, 0, 0, 0, 0, 0, 0, 0), mline=(1, 1, 0, 0, 0, 0, 0, 1, "
     f"{ZEROS}, {ZEROS}, {ZEROS}, {ZEROS}))", None),
    (weyl.Perm((2, 1, 3)), "Perm(image=(2, 1, 3))", None),
    (weyl.Cremona5((4, 2, 3, 1, 5)), "Cremona5(centers=(1, 2, 3, 4, 5))",
     None),
    (linsys.FatPointDivisor(3, 2, (1, 1, 0)),
     "FatPointDivisor(s=3, d=2, m=(1, 1, 0))", None),
    (p3.P3Divisor(2, (1, 1, 0, 0), (1, 0, 0, 0, 0, 0)),
     "P3Divisor(d=2, m=(1, 1, 0, 0), nl=(1, 0, 0, 0, 0, 0))", p3.P3Curve),
    (p3.P3Curve(1, (0, 0, 1, 1), (0, 0, 0, 0, 0, 0)),
     "P3Curve(d=1, m=(0, 0, 1, 1), nl=(0, 0, 0, 0, 0, 0))", p3.P3Divisor),
    (p4.P4Divisor(1, (1, 0, 0, 0, 0), (0,) * 10, (0,) * 10),
     f"P4Divisor(d=1, m=(1, 0, 0, 0, 0), ml=({ZEROS}, {ZEROS}), "
     f"mp=({ZEROS}, {ZEROS}))", p4.P4Curve),
    (p4.P4Curve(1, (1, 1, 0, 0, 0), (1,) + (0,) * 9, (0,) * 10),
     f"P4Curve(d=1, m=(1, 1, 0, 0, 0), ml=(1, 0, 0, 0, 0, {ZEROS}), "
     f"mp=({ZEROS}, {ZEROS}))", p4.P4Divisor),
    (p4.P4Surface(1, (0,) * 5, (0,) * 10, (0,) * 10, (0,) * 10, (0,) * 30),
     f"P4Surface(d=1, m=({ZEROS}), ml=({ZEROS}, {ZEROS}), "
     f"nl=({ZEROS}, {ZEROS}), mp=({ZEROS}, {ZEROS}), "
     f"np=({ZEROS}, {ZEROS}, {ZEROS}, {ZEROS}, {ZEROS}, {ZEROS}))", None),
]


@pytest.mark.parametrize("x, text, twin", VALUES,
                         ids=[type(x).__name__ for x, _, _ in VALUES])
def test_value_type_contract(x, text, twin):
    cls = type(x)
    assert repr(x) == text
    assert hash(x) == hash(fields(x))
    y = cls(*fields(x))
    assert y == x and not y != x and hash(y) == hash(x)
    if twin is not None:
        # the twin kind shares the fields but is another value
        z = twin(*fields(x))
        assert fields(z) == fields(x)
        assert z != x and x != z and not z == x
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert fields(x) == fields(y)
    for back in (pickle.loads(pickle.dumps(x)), copy.copy(x),
                 copy.deepcopy(x)):
        assert type(back) is cls and back == x and hash(back) == hash(x)
        assert fields(back) == fields(x)


def test_records_sort_by_their_field_tuples():
    divisors = weyl.weyl_divisors(8)
    assert list(divisors) == sorted(divisors, key=fields)
    shuffled = list(divisors)
    random.Random(17).shuffle(shuffled)
    assert sorted(shuffled) == list(divisors)
    assert divisors[:2] == (weyl.DivisorRecord(8, 1, (0, 0, 0, 0, 1, 1, 1, 1)),
                            weyl.DivisorRecord(8, 1, (0, 0, 0, 1, 0, 1, 1, 1)))
    assert divisors[-1] == weyl.DivisorRecord(8, 10, (7,) + (6,) * 7)
    # the other ordered types compare as their field tuples do
    pairs = [(chow.BasisElement("X4", 2, "V", (0, 1, 2), 1),
              chow.BasisElement("X4", 2, "V", (0, 1, 3), 0)),
             (weyl.CurveRecord(6, 1, (0, 0, 0, 0, 1, 1)),
              weyl.CurveRecord(6, 1, (1, 1, 0, 0, 0, 0))),
             (weyl.s1_plane(1, 2, 4), weyl.s1_plane(1, 2, 3)),
             (weyl.Perm((1, 3, 2)), weyl.Perm((2, 1, 3))),
             (weyl.Cremona5((1, 2, 3, 4, 5)), weyl.Cremona5((1, 2, 3, 4, 6)))]
    for a, b in pairs:
        for u, v in ((a, b), (b, a), (a, a)):
            assert (u < v) == (fields(u) < fields(v))
            assert (u <= v) == (fields(u) <= fields(v))
            assert (u > v) == (fields(u) > fields(v))
            assert (u >= v) == (fields(u) >= fields(v))
    # every Weyl plane and line at s = 7 and 8, and seeded point records
    # with negative entries, sort and hash as their field tuples
    rng = random.Random(2406)
    for s in (6, 7, 8):
        groups = [[cls(s, rng.randint(-3, 3),
                       tuple(rng.randint(-3, 3) for _ in range(s)))
                   for _ in range(60)]
                  for cls in (weyl.DivisorRecord, weyl.CurveRecord)]
        if s > 6:
            groups += [weyl.weyl_planes(s), weyl.weyl_lines(s)]
        for group in groups:
            shuffled = list(group)
            rng.shuffle(shuffled)
            assert sorted(shuffled) == sorted(shuffled, key=fields)
            assert all(hash(x) == hash(fields(x)) for x in group)
    # only records of one class are ordered
    point, plane = weyl.line_record(1, 2), weyl.s1_plane(1, 2, 3)
    for u, v in ((point, plane), (plane, point)):
        with pytest.raises(TypeError):
            u < v


def test_orbit_result_and_base_locus_report_are_frozen_values():
    seed = weyl.line_record(1, 2, s=6)
    res = weyl.OrbitResult(seed=seed, members=(seed,), witnesses={seed: ()},
                           contracted=(), type_census={"line": 1})
    line = "CurveRecord(s=6, d=1, m=(1, 1, 0, 0, 0, 0))"
    assert repr(res) == (
        f"OrbitResult(seed={line}, members=({line},), witnesses={{{line}: ()}}, "
        "contracted=(), type_census={'line': 1})")
    rep = linsys.base_locus_report(
        linsys.FatPointDivisor(6, 3, (2, 2, 2, 1, 1, 0)))
    assert repr(rep) == (
        "BaseLocusReport(lines={(1, 2): 1, (1, 3): 1, (2, 3): 1}, "
        "quartics={}, planes={}, pairwise_conflicts=(), empties_hint=False, "
        "deep_curves=(), chi=18, h1corr=0)")
    for x in (res, rep):
        for name in type(x).__match_args__:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)


COLD_IMPORT = """
import sys
import cremona.cli
heavy = [m for m in ("dataclasses", "inspect", "ast", "dis", "tokenize")
         if m in sys.modules]
missing = [m for m in ("chow", "p3", "p4", "weyl", "linsys")
           if "cremona." + m not in sys.modules]
assert not heavy and not missing, (heavy, missing)
"""


def test_cli_import_leaves_out_the_dataclass_machinery():
    # every CLI command is a fresh process that pays for its imports; the
    # five modules still load (the benchmark reads each one's import time)
    proc = subprocess.run([sys.executable, "-c", COLD_IMPORT], text=True,
                          capture_output=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
