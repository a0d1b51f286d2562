"""The Weyl plane part of base_locus_report: the per-s plane table against a
reference copy of the plain scan (every Gamma_T, every listed pair)."""

import hashlib
import json
import random
import subprocess
import sys
from itertools import combinations

import pytest

from cremona import linsys, weyl

F = linsys.FatPointDivisor

ANCHOR = F(8, 3, (3, 3, 3, 2, 2, 1, 1, 1))    # 139 planes, 1726 conflicts
SIX_SIMPLE = F(8, 1, (1, 1, 1, 1, 1, 1, 0, 0))  # 156 planes, 2394 conflicts


def reference_planes(D):
    # the plain scan: k for every Gamma_T in _plane_curves order, a label
    # for each listed plane, every listed pair tested in the pairing rows,
    # then the conflicts sorted
    planes, conflicts, listed = {}, [], []
    for i, (T, G) in enumerate(linsys._plane_curves(D.s).items()):
        k = linsys.k_curve(D, G)
        if k > 0:
            name = linsys.plane_id(T)
            planes[name] = k
            listed.append((name, i))
    rows = linsys._plane_pairings(D.s)
    for (a, i), (b, j) in combinations(listed, 2):
        if rows[i][j]:
            conflicts.append((a, b) if a < b else (b, a))
    conflicts.sort()
    return planes, tuple(conflicts), bool(conflicts)


def seeded_divisors(n, seed=14):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        s = rng.choice(weyl.POINT_COUNTS)
        d = rng.randint(-2, 9)
        lo = rng.choice((-3, -1, 0, max(0, d // 3)))
        hi = max(lo, rng.choice((d // 2, d, d + 2)))
        out.append(F(s, d, tuple(rng.randint(lo, hi) for _ in range(s))))
    return out


def test_table_scan_matches_the_reference_scan():
    cases = [ANCHOR, SIX_SIMPLE, F(8, 1, (1,) * 8), F(7, 1, (1,) * 7),
             F(6, 1, (1,) * 6), F(8, 0, (0,) * 8), F(8, -2, (-1,) * 8)]
    cases += seeded_divisors(600)
    listed = conflicting = 0
    for D in cases:
        rep = linsys.base_locus_report(D)
        planes, conflicts, hint = reference_planes(D)
        assert list(rep.planes.items()) == list(planes.items()), D
        assert rep.pairwise_conflicts == conflicts, D
        assert rep.empties_hint is hint, D
        listed += bool(planes)
        conflicting += bool(conflicts)
    # the seeded set reaches both branches often
    assert listed > 200 and conflicting > 100
    rep = linsys.base_locus_report(ANCHOR)
    assert (len(rep.planes), len(rep.pairwise_conflicts)) == (139, 1726)
    rep = linsys.base_locus_report(SIX_SIMPLE)
    assert (len(rep.planes), len(rep.pairwise_conflicts)) == (156, 2394)


@pytest.mark.parametrize("s", weyl.POINT_COUNTS)
def test_plane_table_layout(s):
    labels, types, rank, ranked, later = linsys._plane_table(s)
    planes = list(linsys._plane_curves(s))
    assert labels == tuple(map(linsys.plane_id, planes))
    assert types is linsys._plane_types(s)
    assert ranked == tuple(sorted(labels)) and len(set(labels)) == len(labels)
    assert [ranked[r] for r in rank] == list(labels)
    gammas = list(linsys._plane_curves(s).values())
    for _, _, mus, idxs in types:
        assert [gammas[i].m for i in idxs] == list(mus)
    assert sorted(i for *_, idxs in types for i in idxs) == list(range(len(planes)))
    rows = linsys._plane_pairings(s)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            a, b = rank[i], rank[j]
            assert (later[a] >> b & 1) == (1 if v and b > a else 0)


def report_stdout(tmp_path, D, *flags):
    src = tmp_path / "d.json"
    src.write_text(json.dumps({"kind": "divisor", "s": D.s, "d": D.d,
                               "m": list(D.m)}))
    proc = subprocess.run(
        [sys.executable, "-m", "cremona.cli", "report", "--in", str(src),
         *flags], capture_output=True, check=True)
    return proc.stdout


@pytest.mark.parametrize("D, flags, size, digest", [
    (ANCHOR, (), 33747,
     "f7ba997ecfc133aba43584108a4cfba68afb33af1f5d4ed6c3f9c86f573a800e"),
    (ANCHOR, ("--json",), 48314,
     "f568f9380fb0de634e223fdd0f0a5a59e4de5f06dee9c64dd0a89d30788bbced"),
    (SIX_SIMPLE, (), 45854,
     "4ee3d0a03050ea0210b5cf00aa05803736a110e3c7ea85fa2fd72478d83c379a"),
    (SIX_SIMPLE, ("--json",), 65716,
     "52abca299fe2687ab20095b8c670969a93be2f0cc9dba1881ee8dbdc704f43ed"),
])
def test_report_bytes_are_pinned(tmp_path, D, flags, size, digest):
    # digests of the report output before the plane table was introduced
    out = report_stdout(tmp_path, D, *flags)
    assert len(out) == size
    assert hashlib.sha256(out).hexdigest() == digest
