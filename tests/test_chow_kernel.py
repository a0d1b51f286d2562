"""The Chow kernel against reference folds on seeded classes of every grade:
linear maps, Cremona images, products, basis hashing, error parity and the
record converters.  mul(a, b) == mul(b, a) on every basis pair is
test_chow_core.test_mul_commutative_exhaustive."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cremona import chow, p3, p4

MODULES = (p3, p4)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def fold_linear_map(x, images):
    # reference: the sum of scale(images[e], c), one add per basis term
    out = None
    for e, c in x.coeffs.items():
        img = chow.scale(images[e], c)
        out = img if out is None else chow.add(out, img)
    return x.ring.zero(x.grade) if out is None else out


def seeded_classes(ring, grade, rng, n, hi=5):
    basis = list(ring.basis(grade))
    return [ring.make_class(grade, [(rng.choice(basis), rng.randint(-hi, hi))
                                    for _ in range(rng.randint(0, 6))])
            for _ in range(n)]


@pytest.mark.parametrize("mod", MODULES, ids=("X3", "X4"))
def test_linear_map_equals_reference_fold(mod):
    ring, rng = mod.RING, random.Random(7)
    # a seeded grade-preserving map, so cancellations happen
    scrambled = {}
    for g in range(ring.dim + 1):
        basis = list(ring.basis(g))
        for e, img in zip(basis, seeded_classes(ring, g, rng, len(basis))):
            scrambled[e] = img
    for g in range(ring.dim + 1):
        for x in seeded_classes(ring, g, rng, 40) + [ring.zero(g)]:
            for images in (mod._INVOLUTION, scrambled):
                got = chow.linear_map(x, images)
                assert got == fold_linear_map(x, images)
                assert got.grade == g and got.ring is ring
            assert mod.cremona(x) == fold_linear_map(x, mod._INVOLUTION)


@pytest.mark.parametrize("mod", MODULES, ids=("X3", "X4"))
def test_cremona_involutive_and_multiplicative(mod):
    ring, rng = mod.RING, random.Random(11)
    classes = {g: seeded_classes(ring, g, rng, 12)
               for g in range(ring.dim + 1)}
    for g, xs in classes.items():
        for x in xs:
            assert mod.cremona(mod.cremona(x)) == x
    for a in range(ring.dim + 1):
        for b in range(ring.dim + 1 - a):
            for x, y in zip(classes[a], classes[b]):
                assert mod.cremona(x * y) == mod.cremona(x) * mod.cremona(y)


# sha256 of the "basis cycle -> image" lines below, one per basis cycle
# in ring order, as the hand-written image tables gave them
INVOLUTION_IMAGES = {
    "X3": (24, "a47c2f7ed829498011b221b5f3098adca65ba8d1ab098712f0092376b30fdeec"),
    "X4": (120, "6a55a3fb4a20fbb52d040f7c50c81ef7d8a3cf002e164cc83537363c37fc6e55"),
}


@pytest.mark.parametrize("mod", MODULES, ids=("X3", "X4"))
def test_involution_images_pinned(mod):
    lines = [f"{e.name} -> {mod._INVOLUTION[e]!r}" for e in mod.RING.basis()]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == INVOLUTION_IMAGES[mod.RING.ring_id]


@pytest.mark.parametrize("ring", (p3.RING, p4.RING), ids=("X3", "X4"))
def test_basis_element_built_outside_the_ring(ring):
    own = list(ring.basis())
    outside = [chow.BasisElement(e.ring, e.grade, e.kind, e.idx, e.sub)
               for e in own]
    for e, o in zip(own, outside):
        assert o is not e and o == e and hash(o) == hash(e)
        assert ring.make_class(e.grade, [(o, 3)]) == ring.cls(e, 3)
    order = sorted(range(len(own)), key=own.__getitem__)
    assert sorted(range(len(outside)), key=outside.__getitem__) == order
    assert [e < f for e in own for f in own[:8]] == \
        [o < f for o in outside for f in outside[:8]]


@pytest.mark.parametrize("mod", MODULES, ids=("X3", "X4"))
def test_public_class_on_an_equal_element_built_outside(mod):
    # the ring finds a basis number through its index, by equality, so a
    # class holding an outside copy of a basis cycle computes like one
    # holding the ring's own
    ring = mod.RING
    for e in ring.basis():
        outside = chow.BasisElement(e.ring, e.grade, e.kind, e.idx, e.sub)
        assert outside is not e and outside == e
        theirs = chow.ChowClass(ring, e.grade, {outside: 3})
        ours = ring.cls(e, 3)
        results = [(mod.cremona(theirs), mod.cremona(ours)),
                   (chow.linear_map(theirs, mod._INVOLUTION),
                    chow.linear_map(ours, mod._INVOLUTION))]
        for f in ring.basis():
            if e.grade + f.grade <= ring.dim:
                g = ring.cls(f, -2)
                results += [(theirs * g, ours * g), (g * theirs, g * ours)]
        for got, want in results:
            assert got == want


def test_basis_elements_unpickled_under_another_hash_seed():
    # the stored hash must follow the string hashing of the loading process
    dump = ("import pickle, sys; from cremona import p4; "
            "sys.stdout.buffer.write(pickle.dumps(list(p4.RING.basis())))")
    load = ("import pickle, sys; from cremona import p4; "
            "els = pickle.loads(sys.stdin.buffer.read()); "
            "assert [hash(e) for e in els] == "
            "[hash(e) for e in p4.RING.basis()]; "
            "assert all(p4.RING.cls(e).coeff(e) == 1 for e in els)")
    env = {**os.environ, "PYTHONPATH": SRC}
    blob = subprocess.run([sys.executable, "-c", dump], capture_output=True,
                          check=True, env={**env, "PYTHONHASHSEED": "1"})
    subprocess.run([sys.executable, "-c", load], input=blob.stdout,
                   check=True, env={**env, "PYTHONHASHSEED": "2"})


LAZY_RINGS = """
import sys, threading
import cremona.cli
from cremona import p3, p4
assert "cremona.p3" in sys.modules and "cremona.p4" in sys.modules
assert "RING" not in vars(p3) and "RING" not in vars(p4)

builds = []
for mod in (p3, p4):
    def counted(build=mod._build_ring, name=mod.__name__):
        builds.append(name)
        return build()
    mod._build_ring = counted

start, images = threading.Barrier(4), []
def first_use():
    start.wait()
    images.append(p4.cremona(p4.normalize([("H", 1)])))
sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=first_use) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads) and len(images) == 4
assert all(x.ring is p4.RING for x in images)
assert p3.cremona(p3.normalize([("H", 1)])).ring is p3.RING
assert builds == ["cremona.p4", "cremona.p3"]
assert p4._INVOLUTION is p4._INVOLUTION and p3._INVOLUTION is p3._INVOLUTION
"""


def test_rings_are_built_once_on_first_use():
    # a fresh interpreter: the suite's own imports have built both rings
    proc = subprocess.run([sys.executable, "-c", LAZY_RINGS], text=True,
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr


# -- error parity with the fold ------------------------------------------

def assert_both_raise(error, x, images):
    with pytest.raises(error):
        fold_linear_map(x, images)
    with pytest.raises(error):
        chow.linear_map(x, images)


def test_product_overflow_under_p4_cremona():
    # 4 * 2^61 leaves the 64-bit range in the H coefficient of the image
    x = p4.RING.make_class(1, [("H", 2**61), ("E0", -2**62)])
    with pytest.raises(chow.CoefficientOverflowError):
        p4.cremona(x)
    assert_both_raise(chow.CoefficientOverflowError, x, p4._INVOLUTION)
    # E0 first: the H coefficient runs -2^62 -> 2^62, in range, but the
    # product 4 * 2^61 is not
    x = p4.RING.make_class(1, [("E0", -2**62), ("H", 2**61)])
    assert_both_raise(chow.CoefficientOverflowError, x, p4._INVOLUTION)


def test_sum_overflow_with_every_product_in_range():
    # H -> 3H - ..., E0 -> H - ...: 3 * 2^61 and 2^62 fit, their sum does not
    x = p3.RING.make_class(1, [("H", 2**61), ("E0", 2**62)])
    assert_both_raise(chow.CoefficientOverflowError, x, p3._INVOLUTION)
    # the H coefficient runs to 9 * 2^60 after the E0 term and back to
    # 6 * 2^60 after E1; every final coefficient fits
    b = 3 * 2**60
    terms = [("H", 2**61), ("E0", b), ("E1", -b)]
    final = {}
    for sym, c in terms:
        for e, v in p3.cremona(p3.RING.cls(sym)).coeffs.items():
            final[e] = final.get(e, 0) + c * v
    assert max(map(abs, final.values())) <= chow.INT64_MAX
    x = p3.RING.make_class(1, terms)
    assert_both_raise(chow.CoefficientOverflowError, x, p3._INVOLUTION)


def test_linear_map_refuses_images_of_two_grades_or_rings():
    x = p4.RING.make_class(1, [("H", 1), ("E0", 1)])
    H, E0 = p4.RING.element("H"), p4.RING.element("E", (0,))
    for other in (p4.RING.cls("S"), p3.RING.cls("H")):
        assert_both_raise(chow.MixedGradeError, x,
                          {H: p4.RING.cls("H"), E0: other})
    # an image of the wrong grade whose product overflows: the fold
    # scales before it adds
    x = p4.RING.make_class(1, [("H", 1), ("E0", 4)])
    assert_both_raise(chow.CoefficientOverflowError, x,
                      {H: p4.RING.cls("H"), E0: p4.RING.cls("S", 2**62)})


def outcome(f, *args):
    try:
        return f(*args)
    except chow.ChowError as e:
        return type(e)


@pytest.mark.parametrize("mod", MODULES, ids=("X3", "X4"))
def test_error_parity_near_the_bound(mod):
    # seeded classes whose coefficients sit near the bound: products,
    # running sums and final coefficients leave the range on some of them,
    # under the compiled involution, the same images as a dict, and a dict
    # in which one cycle's image has the next grade
    ring, rng = mod.RING, random.Random(13)
    plain = dict(mod._INVOLUTION)
    with pytest.raises(TypeError):
        mod._INVOLUTION[ring.one] = ring.cls(ring.one, 2)
    seen = set()
    for g in range(1, ring.dim):
        basis = list(ring.basis(g))
        odd = dict(plain)
        odd[basis[-1]] = ring.cls(next(ring.basis(g + 1)), 3)
        for _ in range(150):
            x = ring.make_class(g, [
                (e, rng.choice((-1, 1)) * rng.randint(2**58, 2**62))
                for e in rng.sample(basis, rng.randint(1, 5))])
            want = outcome(fold_linear_map, x, mod._INVOLUTION)
            assert outcome(mod.cremona, x) == want
            assert outcome(chow.linear_map, x, mod._INVOLUTION) == want
            assert outcome(chow.linear_map, x, plain) == want
            want_odd = outcome(fold_linear_map, x, odd)
            assert outcome(chow.linear_map, x, odd) == want_odd
            seen |= {want if isinstance(want, type) else chow.ChowClass,
                     want_odd if isinstance(want_odd, type) else chow.ChowClass}
    assert seen == {chow.ChowClass, chow.CoefficientOverflowError,
                    chow.MixedGradeError}


def test_linear_map_of_zero_is_zero_of_its_grade():
    for g in range(5):
        assert chow.linear_map(p4.RING.zero(g), {}) == p4.RING.zero(g)


# -- record converters ---------------------------------------------------

# module, record kind, record type, lengths of the tuple fields after d
RECORDS = (
    (p3, "divisor", p3.P3Divisor, (4, 6)),
    (p3, "curve", p3.P3Curve, (4, 6)),
    (p4, "divisor", p4.P4Divisor, (5, 10, 10)),
    (p4, "curve", p4.P4Curve, (5, 10, 10)),
    (p4, "surface", p4.P4Surface, (5, 10, 10, 10, 30)),
)


@pytest.mark.parametrize("mod,kind,record_type,lengths", RECORDS,
                         ids=[f"{m.__name__[8:]}-{k}" for m, k, *_ in RECORDS])
def test_record_round_trips(mod, kind, record_type, lengths):
    rng = random.Random(kind + mod.__name__)
    to_class = getattr(mod, f"{kind}_class")
    from_class = getattr(mod, f"{kind}_from_class")
    record_cremona = getattr(mod, f"cremona_{kind}")
    for _ in range(150):
        hi = rng.choice((1, 3, 9, 2**40))
        r = record_type(rng.randint(-hi, hi), *(
            tuple(rng.randint(-hi, hi) for _ in range(n)) for n in lengths))
        x = to_class(r)
        assert from_class(x) == r
        assert record_cremona(r) == from_class(mod.cremona(x))
