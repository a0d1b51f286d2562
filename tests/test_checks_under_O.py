"""Checks that guard shared state or a search's premise are real checks,
not asserts: they still raise under python -O."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

OPTIMIZED = """
import sys
from cremona import chow, p4, weyl
assert False  # stripped under -O, so the run below is really optimized
assert sys.flags.optimize == 1

R = p4.RING
H, S = R.element("H"), R.element("S")
before = R.mul(R.cls(H), R.cls(H))
for build in (lambda: R.set_product(H, H, [(S, 5)]),
              lambda: R.add_basis(1, "E", (9,)),
              lambda: R.add_derived("G", (0, 1), -1, R.cls(S))):
    try:
        build()
    except chow.FinalizedRingError:
        pass
    else:
        raise SystemExit("a finalized ring took a write")
assert R.mul(R.cls(H), R.cls(H)) == before == R.cls(S)

# a transport onto a line inside S_1(123) cannot come from a pairing-0
# pair; force one past the pairing check and the search must refuse it
L12 = weyl.cremona5_surface(weyl.s1_plane(3, 4, 5), (1, 2, 3, 4, 5))
assert L12.d == 0 and L12.line(1, 2) == 1
weyl.weyl_plane_pairing = lambda R, T: 0
try:
    weyl.find_normalizing_word(weyl.s1_plane(1, 2, 3), L12)
except weyl.NoNormalizingWordError:
    pass
else:
    raise SystemExit("the search went on from L_12")
print("ok")
"""


def test_checks_hold_under_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED], text=True,
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
