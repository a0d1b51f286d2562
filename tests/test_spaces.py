"""The resolved spaces p3 and p4 as declarations: each record type names
its fields once, in FIELDS, and chow.Space gives both modules the same
lazily built ring, Cremona ring check, codecs and normalize.  Classes and
the k of a curve take only real ints and the right record kind."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cremona import chow, linsys, p3, p4, weyl

SRC = str(Path(__file__).resolve().parents[1] / "src")

RECORD_TYPES = [p3.P3Divisor, p3.P3Curve, p4.P4Divisor, p4.P4Curve,
                p4.P4Surface]
SPACES = {p3: ("P^3", ("divisor", "curve")),
          p4: ("P^4", ("divisor", "curve", "surface"))}


def sample_fields(cls):
    # d and one tuple per field, distinct entries so no field reads as another
    return {"d": 2, **{name: tuple(range(n)) for name, n in cls.FIELDS}}


# -- record declarations ----------------------------------------------------

@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda c: c.__name__)
def test_record_type_declares_only_its_fields(cls):
    names = tuple(name for name, _ in cls.FIELDS)
    assert cls.__match_args__ == ("d",) + names
    assert cls.__init__ is chow.IntRecord.__init__
    given = sample_fields(cls)
    positional = cls(*given.values())
    assert cls(**given) == positional
    assert cls(**dict(reversed(given.items()))) == positional
    assert cls(given["d"], given[names[0]], **{
        name: given[name] for name in names[1:]}) == positional


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda c: c.__name__)
def test_record_type_refuses_a_wrong_field_set(cls):
    given = sample_fields(cls)
    last = cls.FIELDS[-1][0]
    values = list(given.values())
    bad_calls = [
        lambda: cls(*values[:-1]),                      # missing, in order
        lambda: cls(**{k: v for k, v in given.items() if k != last}),
        lambda: cls(**{k: v for k, v in given.items() if k != "d"}),
        lambda: cls(*values, values[-1]),               # extra, in order
        lambda: cls(*values, **{last: values[-1]}),     # given twice
        lambda: cls(**given, extra=()),                 # unknown
        lambda: cls(*values[:-1], **{last + "x": values[-1]}),
    ]
    for call in bad_calls:
        with pytest.raises(TypeError):
            call()


class Pair(chow.IntRecord):
    FIELDS = (("a", 2), ("b", 1))


def test_a_new_record_type_needs_only_fields():
    rec = Pair(3, (1, 2), b=(4,))
    assert Pair.__match_args__ == ("d", "a", "b")
    assert rec == Pair(d=3, a=(1, 2), b=(4,))
    assert repr(rec) == "Pair(d=3, a=(1, 2), b=(4,))"
    match rec:
        case Pair(d, a, b):
            assert (d, a, b) == (3, (1, 2), (4,))
    with pytest.raises(ValueError):
        Pair(3, (1, 2.0), (4,))
    with pytest.raises(TypeError):
        Pair(3, (1, 2))


def test_surface_record_keeps_its_own_fields():
    assert weyl.SurfaceRecord.__match_args__ == ("s", "d", "m", "n", "mline")
    T = weyl.s1_plane(1, 2, 3, s=7)
    assert weyl.SurfaceRecord(7, T.d, T.m, T.n, T.mline) == T
    assert weyl.SurfaceRecord(s=7, d=T.d, m=T.m, n=T.n, mline=T.mline) == T


# -- one space kit for p3 and p4 -----------------------------------------------

LAZY = """
from cremona import chow, p3, p4

built = []
init = chow.ChowRing.__init__
def counted(self, ring_id, dim):
    built.append(ring_id)
    init(self, ring_id, dim)
chow.ChowRing.__init__ = counted

# importing built neither ring, so each first touch builds its own
for mod, ring_id in ((p4, "X4"), (p3, "X3")):
    inv = mod._INVOLUTION
    assert built[-1:] == [ring_id] and inv.ring is mod.RING
    assert mod._INVOLUTION is inv and mod.RING is mod.RING
assert built == ["X4", "X3"]
"""


def test_import_builds_no_ring_and_first_touch_builds_one():
    # a fresh interpreter: the suite's own imports have built both rings
    proc = subprocess.run([sys.executable, "-c", LAZY], text=True,
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("mod", SPACES, ids=lambda m: m.__name__)
def test_spaces_expose_the_same_functions(mod):
    label, kinds = SPACES[mod]
    names = ["normalize"] + [f"{kind}_{end}" for kind in kinds
                             for end in ("class", "from_class")]
    for name in names:
        fn = getattr(mod, name)
        assert (fn.__name__, fn.__qualname__) == (name, name)
        assert fn.__module__ == mod.__name__
    assert mod.linear_map is chow.linear_map
    other = p4 if mod is p3 else p3
    for x in (other.RING.cls("H"), other.RING.cls("p")):
        with pytest.raises(chow.WrongGradeError, match=re.escape(
                f"class does not belong to the {label} ring")):
            mod.cremona(x)
    with pytest.raises(AttributeError, match=mod.__name__):
        mod.NO_SUCH_NAME


@pytest.mark.parametrize("mod", SPACES, ids=lambda m: m.__name__)
def test_cremona_maps_through_the_module_linear_map(mod, monkeypatch):
    # the benchmark tracer counts chow.linear_map by patching this name
    calls = []

    def counted(x, images):
        calls.append(images)
        return chow.linear_map(x, images)

    monkeypatch.setattr(mod, "linear_map", counted)
    x = mod.RING.cls("H")
    assert mod.cremona(mod.cremona(x)) == x
    assert calls == [mod._INVOLUTION] * 2


def p2_ring(extra=False):
    # P^2 blown up at its three coordinate points, optionally with a
    # grade-2 cycle q that no product reaches
    R = chow.ChowRing("X2", 2)
    R.add_basis(0, "one")
    H = R.add_basis(1, "H")
    E = [R.add_basis(1, "E", (i,)) for i in range(3)]
    p = R.add_basis(2, "p")
    if extra:
        R.add_basis(2, "q")
    R.set_product(H, H, [(p, 1)])
    for i, a in enumerate(E):
        R.set_product(H, a, [])
        for b in E[i:]:
            R.set_product(a, b, [(p, -1)] if a is b else [])
    R.finalize()
    return R


def test_space_derives_the_quadratic_transformation_of_p2():
    namespace = {"__name__": "p2", "_build_ring": p2_ring}
    chow.Space(namespace, "P^2", {})
    ring = namespace["__getattr__"]("RING")
    inv = namespace["__getattr__"]("_INVOLUTION")
    assert inv.ring is ring
    assert inv[ring.element("H")] == ring.make_class(
        1, [("H", 2), ("E0", -1), ("E1", -1), ("E2", -1)])
    for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        assert inv[ring.element("E", (i,))] == ring.make_class(
            1, [("H", 1), (f"E{j}", -1), (f"E{k}", -1)])
    assert inv[ring.element("p")] == ring.cls("p")
    assert inv[ring.one] == ring.cls(ring.one)
    for e in ring.basis():
        assert chow.linear_map(inv[e], inv) == ring.cls(e)


def test_space_names_a_cycle_it_cannot_map():
    namespace = {"__name__": "p2", "_build_ring": lambda: p2_ring(True)}
    space = chow.Space(namespace, "P^2", {})
    with pytest.raises(chow.ChowError, match="no Cremona image derived for q"):
        space.tables()


# -- only real ints in classes, only curve records in k_curve -------------------

def test_classes_refuse_non_int_coefficients_and_grades():
    R = p4.RING
    H = R.cls("H")
    bad_calls = [
        lambda: R.make_class(1, [("H", 1.5)]),
        lambda: R.make_class(1, [("H", 1), ("E0", True)]),
        lambda: R.make_class(1.0, [("H", 1)]),
        lambda: R.make_class(True, [("H", 1)]),
        lambda: R.cls("H", 2.0),
        lambda: R.cls("H", False),
        lambda: R.zero(True),
        lambda: R.zero(2.0),
        lambda: chow.scale(H, 2.0),
        lambda: chow.scale(H, True),
        lambda: H * True,
        lambda: p3.normalize([(("g", (0, 1)), 0.5)]),
    ]
    for call in bad_calls:
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    # real ints, past the 64-bit range too, still reach the usual checks
    assert R.make_class(1, [("H", 2), ("H", -2)]).is_zero()
    assert repr(p4.cremona(R.cls("H", 2))).endswith("+8*H")
    with pytest.raises(chow.CoefficientOverflowError):
        R.cls("H", 2**63)
    with pytest.raises(chow.WrongGradeError):
        R.zero(5)


def test_k_curve_refuses_every_other_record_kind():
    D = linsys.FatPointDivisor(8, 3, (1,) * 8)
    assert linsys.k_curve(D, weyl.line_record(1, 2)) == -1
    for C in (weyl.hyperplane_record((1, 2, 3, 4)), weyl.s1_plane(1, 2, 3),
              weyl.DivisorRecord(8, 1, (1,) * 8), D):
        with pytest.raises(TypeError, match="not a CurveRecord"):
            linsys.k_curve(D, C)
