"""The four benchmark workloads: diagnose, pairing, ring and cold_cli.

Each workload builds its inputs from the seed, runs one operation at a
time (closed loop, one client), and checks every answer.  A run times
the first ``op_count`` operations of the seed's stream, round after
round.  The timed part of an operation is ``run``.  Outside the timed
region ``answer`` renders the output as text without calling the
program, and ``check`` verifies it.  The answers of the first ``digest_ops`` operations are compared with
golden hashes when the seed is the default one.
"""

import base64
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import zlib
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
OUT = ROOT / ".perfbench_out"  # run outputs: spans, CLI work files
DEFAULT_SEED = 0


def import_cremona():
    """Import the package from the checkout's own sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cremona
    return cremona


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def short_hash(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def pack_table(rows):
    return base64.b64encode(zlib.compress("".join(rows).encode(), 9)).decode()


def unpack_table(blob, n):
    flat = zlib.decompress(base64.b64decode(blob)).decode()
    return [flat[i * n:(i + 1) * n] for i in range(n)]


# -- diagnose -----------------------------------------------------------

S_CYCLE = (6, 7, 8, 10)
SHAPES_PER_PASS = 12
SHAPE_SEED = 20210315


def diagnose_shapes():
    """The fixed, seed-independent shapes of one pass: s cycles over
    S_CYCLE, d is drawn from 1..8 and each m_i from 0..d."""
    rng = random.Random(SHAPE_SEED)
    out = []
    for i in range(SHAPES_PER_PASS):
        s = S_CYCLE[i % len(S_CYCLE)]
        d = rng.randint(1, 8)
        out.append((s, d, tuple(rng.randint(0, d) for _ in range(s))))
    return out


# (s, d, m) -> pinned (chi, h1_correction, wdim); s=10 pins the lines-only wdim
ANCHORS = [
    ((10, 4, (4,) + (2,) * 9), (-10, 9, -1)),
    ((8, 1, (1, 1, 1, 1, 0, 0, 0, 0)), (1, 0, 1)),
    ((8, 3, (3, 3, 3, 2, 2, 1, 1, 1)), (-23, 38, 16465)),
]


class Diagnose:
    """chi + h1_correction + wdim + base_locus_report on one divisor.

    A pass is the three anchors followed by the fixed shapes, each with
    its points relabeled by a fresh draw from the seed: every seed sees the
    same cost profile while every record differs.  Every answer is checked
    against the golden summary of its shape, which is invariant under
    relabeling; the anchors also against their pinned values.
    """

    name = "diagnose"
    tail_pct = 85.0
    digest_ops = len(ANCHORS) + SHAPES_PER_PASS
    op_count = len(ANCHORS) + SHAPES_PER_PASS
    in_children = False

    def setup(self):
        cremona = import_cremona()
        self.linsys = cremona.linsys
        self.shapes = diagnose_shapes()
        self.golden = load_golden()["diagnose"]
        for s in S_CYCLE:
            self.run(("warm-up", s, self.linsys.FatPointDivisor(s, 2, (1,) * s)))

    def ops(self, seed):
        F = self.linsys.FatPointDivisor
        rng = random.Random(seed)
        while True:
            for k, ((s, d, m), _) in enumerate(ANCHORS):
                yield ("anchor", k, F(s, d, m))
            for j, (s, d, m) in enumerate(self.shapes):
                perm = rng.sample(range(s), s)
                yield ("shape", j, F(s, d, tuple(m[p] for p in perm)))

    def run(self, op):
        D = op[2]
        L = self.linsys
        if D.s > 8:
            return (L.chi(D), L.h1_correction(D),
                    L.wdim(D, lines_only=True), None)
        return (L.chi(D), L.h1_correction(D), L.wdim(D),
                L.base_locus_report(D))

    @staticmethod
    def summary(out):
        """Relabeling-invariant digest of one answer."""
        c, h, w, r = out
        if r is None:
            return short_hash(f"{c} {h} {w}")
        return short_hash(repr((
            c, h, w, sorted(r.lines.values()), sorted(r.quartics.values()),
            sorted(r.planes.values()), len(r.pairwise_conflicts),
            sorted(k for _, _, k in r.deep_curves), r.empties_hint)))

    @staticmethod
    def answer(op, out):
        c, h, w, r = out
        if r is None:
            return f"{c} {h} {w}"
        return repr((c, h, w, sorted(r.lines.items()),
                     sorted(r.quartics.items()), sorted(r.planes.items()),
                     r.pairwise_conflicts, r.deep_curves, r.empties_hint))

    def check(self, op, out):
        kind, j, _ = op
        if kind == "anchor" and out[:3] != ANCHORS[j][1]:
            return False
        return self.summary(out) == self.golden[kind][j]


# -- pairing ------------------------------------------------------------

PAIRING_S7_SHARE = 0.125
# criterion 5 pins: (R, T) by plane label -> pairing at s=8
PAIRING_PINS = [("S1(1,2,3)", "S1(4,5,6)", 1), ("S1(1,2,3)", "S1(1,4,5)", 0),
                ("S1(1,2,3)", "S6(1,2,3)", 3), ("S3(1,8)", "S3(8,1)", 3)]


class Pairing:
    """weyl_plane_pairing, then find_normalizing_word (which must refuse
    with NoNormalizingWordError exactly when the pairing is 3)."""

    name = "pairing"
    tail_pct = 98.0
    digest_ops = 200
    op_count = 1500
    in_children = False

    def setup(self):
        cremona = import_cremona()
        self.weyl, self.linsys = cremona.weyl, cremona.linsys
        self.verified = set()  # (op, word) that passed the criterion 6 check
        golden = load_golden()["pairing"]
        self.labels, self.planes, self.table, self.s123 = {}, {}, {}, {}
        for s in (7, 8):
            by_label = {self.linsys.plane_id(T): T
                        for T in self.weyl.weyl_planes(s)}
            labels = sorted(by_label)
            if labels != golden[f"labels{s}"]:
                raise AssertionError(f"plane labels at s={s} differ from golden")
            self.labels[s] = labels
            self.planes[s] = [by_label[x] for x in labels]
            self.table[s] = unpack_table(golden[f"table{s}"], len(labels))
            self.s123[s] = self.weyl.s1_plane(1, 2, 3, s=s)
        idx = {x: i for i, x in enumerate(self.labels[8])}
        for a, b, want in PAIRING_PINS:
            op = (8, idx[a], idx[b])
            if (not self.check(op, self.run(op))
                    or self.table[8][idx[a]][idx[b]] != str(want)):
                raise AssertionError(f"pinned pairing {a}.{b} != {want}")
        for s in (7, 8):
            op = (s, 0, len(self.labels[s]) - 1)
            if not self.check(op, self.run(op)):
                raise AssertionError(f"warm-up pairing failed at s={s}")

    def ops(self, seed):
        rng = random.Random(seed)
        while True:
            s = 7 if rng.random() < PAIRING_S7_SHARE else 8
            n = len(self.labels[s])
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                yield (s, i, j)

    def run(self, op):
        s, i, j = op
        W = self.weyl
        R, T = self.planes[s][i], self.planes[s][j]
        value = W.weyl_plane_pairing(R, T)
        try:
            word = W.find_normalizing_word(R, T)
        except W.NoNormalizingWordError:
            word = None
        return value, word

    def answer(self, op, out):
        s, i, j = op
        return f"{self.labels[s][i]} {self.labels[s][j]} {out[0]}"

    def check(self, op, out):
        s, i, j = op
        value, word = out
        if str(value) != self.table[s][i][j]:
            return False
        if value == 3:
            return word is None
        if word is None:
            return False
        if (op, word) in self.verified:
            return True
        W = self.weyl
        R, T, S = self.planes[s][i], self.planes[s][j], self.s123[s]
        img = W.apply_word(T, word, allow_contraction=True)
        ok = (W.apply_word(R, word) == S
              and W.classify_surface(img)[0] == "S1"
              and W.weyl_plane_pairing(S, img) == value)
        if ok:
            self.verified.add((op, word))
        return ok


# -- ring ---------------------------------------------------------------

# ring dimension -> record kind -> (record type, field lengths; 1 = scalar)
RING_RECORDS = {
    3: {"divisor": ("P3Divisor", (1, 4, 6)), "curve": ("P3Curve", (1, 4, 6))},
    4: {"divisor": ("P4Divisor", (1, 5, 10, 10)),
        "curve": ("P4Curve", (1, 5, 10, 10)),
        "surface": ("P4Surface", (1, 5, 10, 10, 10, 30))},
}


class Ring:
    """A product of two seeded homogeneous classes, its Cremona image, and
    the involution and homomorphism checks; plus one record-level transform
    compared against the class-level map."""

    name = "ring"
    tail_pct = 99.5
    digest_ops = 400
    op_count = 2000
    in_children = False

    def setup(self):
        cremona = import_cremona()
        self.chow, p3, p4 = cremona.chow, cremona.p3, cremona.p4
        self.rings = []
        for mod in (p3, p4):
            ring = mod.RING
            names = {g: sorted(e.name for e in ring.basis(g))
                     for g in range(ring.dim + 1)}
            self.rings.append((mod, ring, names))
        rng = random.Random(-1)
        for k in range(len(self.rings)):
            out = self.run(self._op(rng, k))
            if not self._consistent(out):
                raise AssertionError("warm-up ring operation failed")

    def _op(self, rng, k):
        mod, ring, names = self.rings[k]
        a = rng.randint(1, ring.dim - 1)
        b = rng.randint(1, ring.dim - a)

        def rand_class(g):
            terms = [(rng.choice(names[g]), rng.choice((-3, -2, -1, 1, 2, 3)))
                     for _ in range(rng.randint(1, 4))]
            return ring.make_class(g, terms)

        kind = rng.choice(tuple(RING_RECORDS[ring.dim]))
        record_type, fields = RING_RECORDS[ring.dim][kind]
        rec = getattr(mod, record_type)(
            *[rng.randint(-3, 3) if n == 1 else
              tuple(rng.randint(-3, 3) for _ in range(n)) for n in fields])
        return k, rand_class(a), rand_class(b), kind, rec

    def ops(self, seed):
        rng = random.Random(seed)
        for i in itertools.count():
            yield self._op(rng, i % 2)

    def run(self, op):
        k, x, y, kind, rec = op
        mod = self.rings[k][0]
        cre = mod.cremona
        prod = x * y
        image = cre(prod)
        cx, cy = cre(x), cre(y)
        involutive = cre(cx) == x
        homomorphic = cx * cy == image
        degrees = None
        if prod.grade == mod.RING.dim:
            degrees = (self.chow.degree(prod), self.chow.degree(image))
        moved = getattr(mod, f"cremona_{kind}")(rec)
        via_class = getattr(mod, f"{kind}_from_class")(
            cre(getattr(mod, f"{kind}_class")(rec)))
        return prod, image, involutive, homomorphic, degrees, moved, \
            moved == via_class

    @staticmethod
    def _consistent(out):
        _, _, involutive, homomorphic, degrees, _, record_ok = out
        return (involutive and homomorphic and record_ok
                and (degrees is None or degrees[0] == degrees[1]))

    def check(self, op, out):
        return self._consistent(out)

    @staticmethod
    def answer(op, out):
        prod, image, *_ = out
        return f"{prod!r} | {image!r} | {out[5]!r}"


# -- cold_cli -----------------------------------------------------------

CLI_INPUTS = {
    "w.json": {"kind": "divisor", "s": 8, "d": 1,
               "m": [1, 1, 1, 1, 0, 0, 0, 0]},
    "s1_123.json": {"kind": "surface", "s": 8, "d": 1,
                    "m": [1, 1, 1, 0, 0, 0, 0, 0], "n": [0] * 8,
                    "mline": [1, 1] + [0] * 5 + [1] + [0] * 20},
    "s6_123.json": {"kind": "surface", "s": 8, "d": 6,
                    "m": [1, 1, 1, 3, 3, 3, 3, 3], "n": [1, 1, 1] + [0] * 5,
                    "mline": [0] * 18 + [1] * 10},
    "s3_81.json": {"kind": "surface", "s": 8, "d": 3,
                   "m": [0, 1, 1, 1, 1, 1, 1, 3], "n": [1] + [0] * 7,
                   "mline": [0] * 12 + [1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0,
                                        0, 1, 0, 1, 1]},
    "h.json": {"kind": "chow", "ring": "x4", "terms": {"H": 1}},
}

CACHE_FILE = "hyperplanes.txt"
CACHE_LINES = 2153

# the README's command list with its printed output
CLI_COMMANDS = [
    (["orbit", "--kind", "plane", "--census"],
     "members: 204\ncensus: S1:56 S3:56 S6:56 S10:28 S15:8; total 204\n"),
    (["orbit", "--kind", "line", "--s", "7", "--census"],
     "members: 22\ncensus: lines:21 quartics:1; total 22\n"),
    (["orbit", "--kind", "divisor", "--cache", CACHE_FILE],
     f"members: 2152\ncache written: {CACHE_FILE}\n"),
    (["cremona", "--kind", "divisor", "--in", "w.json",
      "--centers", "1,2,5,6,7"], "(2; 2 2 1 1 1 1 1 0)\n"),
    (["cremona", "--kind", "divisor", "--in", "w.json",
      "--centers", "1,2,3,5,6"], "(1; 1 1 1 1 0 0 0 0)\n"),
    (["pair", "--a", "s1_123.json", "--b", "s6_123.json"], "3\n"),
    (["mul", "--ring", "x4", "--a", "h.json", "--b", "h.json"],
     '{"kind": "chow", "ring": "x4", "grade": 2, "terms": {"S": 1}}\n'),
    (["report", "--in", "w.json"],
     "chi=1 wdim=1 h1corr=0\n"
     "lines: L_12:1 L_13:1 L_14:1 L_23:1 L_24:1 L_34:1\n"
     "quartics: none\n"
     "planes: S1(1,2,3):1 S1(1,2,4):1 S1(1,3,4):1 S1(2,3,4):1\n"
     "conflicts: none\n"),
    (["classify", "--kind", "surface", "--in", "s3_81.json"], "S3(8,1)\n"),
]


def cli_env():
    env = dict(os.environ)
    env.pop("CREMONA_ORBIT_BUDGET", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class ColdCli:
    """One README command, run as a fresh ``python -m cremona.cli`` child.

    The seed shuffles the command order of every pass; a run times one
    pass, so each run holds the same command mix.
    """

    name = "cold_cli"
    tail_pct = 75.0
    digest_ops = len(CLI_COMMANDS)
    op_count = len(CLI_COMMANDS)
    in_children = True

    def __init__(self, workdir):
        self.workdir = Path(workdir)
        self.launcher = None  # (argv prefix, span dir) in the traced run
        self.cache_bytes = None

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, doc in CLI_INPUTS.items():
            (self.workdir / name).write_text(json.dumps(doc))
        self.golden_cache = load_golden()["cold_cli"]["cache_sha256"]
        self.env = cli_env()

    def ops(self, seed):
        rng = random.Random(seed)
        op_id = itertools.count()
        while True:
            for k in rng.sample(range(len(CLI_COMMANDS)), len(CLI_COMMANDS)):
                yield (next(op_id), k)

    def prepare(self, op):
        """Untimed: remove the cache file so its write is seen afresh."""
        if CACHE_FILE in CLI_COMMANDS[op[1]][0]:
            (self.workdir / CACHE_FILE).unlink(missing_ok=True)

    def run(self, op):
        op_id, k = op
        argv = CLI_COMMANDS[k][0]
        if self.launcher is None:
            cmd = [sys.executable, "-m", "cremona.cli", *argv]
        else:
            prefix, span_dir = self.launcher
            cmd = [*prefix, str(span_dir / f"{op_id}.json"), str(op_id), *argv]
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=120)
        return proc.returncode, proc.stdout

    @staticmethod
    def answer(op, out):
        rc, stdout = out
        return f"{' '.join(CLI_COMMANDS[op[1]][0])} -> {rc} {stdout!r}"

    def check(self, op, out):
        argv, want = CLI_COMMANDS[op[1]]
        rc, stdout = out
        if rc != 0 or stdout != want.encode():
            return False
        if CACHE_FILE not in argv:
            return True
        path = self.workdir / CACHE_FILE
        blob = path.read_bytes() if path.exists() else b""
        if self.cache_bytes is None:
            self.cache_bytes = blob
        return (blob == self.cache_bytes and blob.count(b"\n") == CACHE_LINES
                and hashlib.sha256(blob).hexdigest() == self.golden_cache)


def make(name, workdir=OUT):
    if name == "diagnose":
        return Diagnose()
    if name == "pairing":
        return Pairing()
    if name == "ring":
        return Ring()
    if name == "cold_cli":
        return ColdCli(Path(workdir) / "cli")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("diagnose", "pairing", "cold_cli", "ring")
