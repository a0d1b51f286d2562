"""The bytes of cremona report, text and --json, pinned by sha256 on
seeded divisors and on the README inputs.

The seeded divisors have 3 <= s <= 14, degrees from -1 up and entries
from -1 to d + 2, so they cover empty and negative systems, the s <= 8
quartic slots and the seven point quartics past eight points.
"""

import hashlib
import json
import random

import pytest

from cremona import cli

README_INPUTS = [
    ((8, 1, (1, 1, 1, 1, 0, 0, 0, 0)), ()),
    ((8, 1, (1, 1, 1, 1, 0, 0, 0, 0)), ("--lines-only",)),
    ((8, 1, (1, 1, 1, 0, 0, 0, 0, 0)), ()),
    ((10, 4, (4,) + (2,) * 9), ()),
]


def seeded_inputs():
    rng = random.Random(23)
    out = []
    for _ in range(60):
        s = rng.randint(3, 14)
        d = rng.randint(-1, 5)
        out.append(((s, d, tuple(rng.randint(-1, d + 2) for _ in range(s))),
                    ()))
    return out


def report_bytes(capsys, tmp_path, inputs, extra):
    digest = hashlib.sha256()
    for i, ((s, d, m), flags) in enumerate(inputs):
        path = tmp_path / f"d{i}.json"
        path.write_text(json.dumps(
            {"kind": "divisor", "s": s, "d": d, "m": list(m)}))
        rc = cli.main(["report", "--in", str(path), *flags, *extra])
        out = capsys.readouterr().out
        assert rc == 0
        digest.update(f"{s} {d} {m} {flags}\n{out}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("extra, pinned", [
    ((), "054b0dd31ac21fc155ce35326eeaeab07dae783d1873364a8e189483338273ba"),
    (("--json",), "55dcd76ddab9a60cc1457ea26f62ca3d1416a38b76cb76f848b4f4eddfbcba27"),
], ids=["text", "json"])
def test_report_bytes_are_pinned(capsys, tmp_path, extra, pinned):
    inputs = README_INPUTS + seeded_inputs()
    assert report_bytes(capsys, tmp_path, inputs, extra) == pinned
