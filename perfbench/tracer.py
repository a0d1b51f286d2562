"""Span recording at the layer boundaries of the cremona package.

The traced run replaces each boundary function, at the name its callers
look up, with a wrapper that records one span per call: boundary name,
start, end, parent span, the benchmark operation id, and the time covered
by child spans.  Spans live in typed arrays in memory and are written out
once the run ends.  Nothing is patched until a traced run calls install.
"""

import functools
import gzip
import json
import time
from array import array
from collections import defaultdict

# (module, attribute) pairs; "ChowRing.x" names a method patched on the class
BOUNDARIES = {
    "chow": ["ChowRing.mul", "linear_map", "ChowRing.degree"],
    "p3": ["cremona", "cremona_divisor", "cremona_curve"],
    "p4": ["cremona", "cremona_divisor", "cremona_curve", "cremona_surface"],
    "weyl": ["orbit", "canonical_form", "apply_cremona5", "apply_perm",
             "apply_word", "invert_word", "classify_surface", "classify_curve",
             "plane_normalizing_word", "weyl_plane_pairing",
             "find_normalizing_word"],
    "linsys": ["chi", "h1_correction", "k_curve", "k_weyl_plane",
               "k_weyl_divisor", "wdim", "base_locus_report"],
    "cli": ["main", "write_cache", "load_record"],
}
BOUNDARY_NAMES = [f"{mod}.{attr}" for mod, attrs in BOUNDARIES.items()
                  for attr in attrs]
# these modules bind chow.linear_map at import; their calls count as chow's
LINEAR_MAP_USERS = ("p3", "p4")
OP = "bench.op"

IMPORT_MODULES = ["chow", "p3", "p4", "weyl", "linsys", "cli"]

RATIO_METRICS = [
    ("weyl.plane_normalizing_word.hit_ratio", "ratio", "higher"),
    ("weyl.plane_normalizing_word.cache_calls", "count", "lower"),
    ("weyl.orbit.new_per_image", "ratio", "higher"),
    ("weyl.orbit.images", "count", "lower"),
    ("linsys.base_locus_report.conflict_per_pairing", "ratio", "higher"),
    ("linsys.base_locus_report.pairings", "count", "lower"),
    ("share.p50_ops.linsys.k_weyl_divisor", "ratio", "lower"),
    ("share.tail_ops.pairing_under_report", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def per_layer_spec():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for b in BOUNDARY_NAMES:
        out += [(f"{b}.calls", "count", "lower"),
                (f"{b}.total_s", "s", "lower"),
                (f"{b}.self_s", "s", "lower")]
    out += [(f"import.cremona.{m}.self_s", "s", "lower")
            for m in IMPORT_MODULES]
    return out + RATIO_METRICS


class Tracer:
    """Append-only span store plus the counters the ratio metrics need."""

    def __init__(self, span_cap):
        self.span_cap = span_cap
        self.names = [OP] + BOUNDARY_NAMES
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.nid = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.child = array("q")
        self.stack = []
        self.op_id = -1
        self.orbit_open = 0
        self.orbit_seen = set()
        self.orbit_classes = 0
        self.conflicts = 0
        self.pnw_hits = 0
        self.pnw_calls = 0
        self.patched = []

    def full(self):
        return len(self.start) >= self.span_cap

    def _open(self, nid):
        idx = len(self.start)
        self.nid.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.child.append(0)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        t = time.perf_counter_ns()
        self.end[idx] = t
        self.stack.pop()
        p = self.parent[idx]
        if p >= 0:
            self.child[p] += t - self.start[idx]

    def span(self, name, fn, *args):
        """Run fn(*args) inside a span that is not a program boundary."""
        idx = self._open(self.ids[name])
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def wrap(self, name, fn, after=None):
        nid = self.ids[name]
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = opened(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                closed(idx)
            if after is not None:
                after(out)
            return out
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self, package):
        """Patch every boundary of the imported package's modules."""
        # cremona.cli is a package attribute only once it has been imported
        mods = {name: getattr(package, name) for name in BOUNDARIES
                if hasattr(package, name)}
        self.pnw_original = mods["weyl"].plane_normalizing_word
        self.pnw_base = self.pnw_original.cache_info()
        hooks = {
            "weyl.canonical_form": self._after_canonical,
            "linsys.base_locus_report": self._after_report,
        }
        for mod_name, mod in mods.items():
            for attr in BOUNDARIES[mod_name]:
                name = f"{mod_name}.{attr}"
                if attr.startswith("ChowRing."):
                    owner, meth = mod.ChowRing, attr.split(".", 1)[1]
                else:
                    owner, meth = mod, attr
                orig = getattr(owner, meth)
                if name == "weyl.orbit":
                    new = self._wrap_orbit(orig)
                else:
                    new = self.wrap(name, orig, hooks.get(name))
                self.patched.append((owner, meth, orig))
                setattr(owner, meth, new)
        chow_lm = mods["chow"].linear_map
        for mod_name in LINEAR_MAP_USERS:
            mod = mods[mod_name]
            self.patched.append((mod, "linear_map", mod.linear_map))
            mod.linear_map = chow_lm

    def uninstall(self):
        for owner, attr, orig in reversed(self.patched):
            setattr(owner, attr, orig)
        self.patched = []
        # cache statistics count only while the wrappers were installed
        now, base = self.pnw_original.cache_info(), self.pnw_base
        self.pnw_hits += now.hits - base.hits
        self.pnw_calls += now.hits + now.misses - base.hits - base.misses

    def _wrap_orbit(self, fn):
        inner = self.wrap("weyl.orbit", fn)

        @functools.wraps(fn)
        def orbit(*args, **kwargs):
            self.orbit_open += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self.orbit_open -= 1
                self.orbit_classes += len(self.orbit_seen)
                self.orbit_seen = set()
        return orbit

    def _after_canonical(self, out):
        # the BFS keeps exactly the canonical forms of positive degree
        if self.orbit_open and out[0].d > 0:
            self.orbit_seen.add(out[0])

    def _after_report(self, out):
        self.conflicts += len(out.pairwise_conflicts)

    # -- output ----------------------------------------------------------

    def columns(self):
        return {"names": self.names, "nid": self.nid, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "child": self.child, "orbit_classes": self.orbit_classes,
                "conflicts": self.conflicts, "pnw_hits": self.pnw_hits,
                "pnw_calls": self.pnw_calls}


def dump_columns(cols, path):
    doc = {k: v.tolist() if isinstance(v, array) else v
           for k, v in cols.items()}
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def load_columns(path):
    with open(path) as fh:
        return json.load(fh)


def write_spans(parts, path):
    """All spans as gzip TSV: op, name, start_ns, end_ns, parent, self_ns.

    parts is a list of column dicts; parent indices are made global by
    offsetting each part's local indices.
    """
    base = 0
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("op\tname\tstart_ns\tend_ns\tparent\tself_ns\n")
        for cols in parts:
            names = cols["names"]
            for i in range(len(cols["start"])):
                p = cols["parent"][i]
                dur = cols["end"][i] - cols["start"][i]
                fh.write(f"{cols['op'][i]}\t{names[cols['nid'][i]]}\t"
                         f"{cols['start'][i]}\t{cols['end'][i]}\t"
                         f"{p + base if p >= 0 else -1}\t"
                         f"{dur - cols['child'][i]}\n")
            base += len(cols["start"])


def aggregate(parts):
    """Per-boundary calls / total_s / self_s, plus the span-tree counts.

    Returns (stats, under, op_time) where stats maps a boundary name to
    [calls, total_ns, self_ns]; under counts apply_cremona5 calls below an
    orbit span and pairing calls below a base locus report; op_time maps an
    operation id to {boundary: inclusive ns} for the share metrics.
    """
    stats = defaultdict(lambda: [0, 0, 0])
    under = {"images": 0, "pairings": 0}
    op_time = defaultdict(lambda: defaultdict(int))
    for cols in parts:
        names = cols["names"]
        nid, start, end = cols["nid"], cols["start"], cols["end"]
        parent, op, child = cols["parent"], cols["op"], cols["child"]
        orbit_id = names.index("weyl.orbit")
        report_id = names.index("linsys.base_locus_report")
        image_id = names.index("weyl.apply_cremona5")
        pair_id = names.index("weyl.weyl_plane_pairing")
        kwd_id = names.index("linsys.k_weyl_divisor")
        # spans are appended when they open, so a parent precedes its children
        in_orbit = bytearray(len(start))
        in_report = bytearray(len(start))
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                in_orbit[i] = in_orbit[p] or nid[p] == orbit_id
                in_report[i] = in_report[p] or nid[p] == report_id
            n = nid[i]
            dur = end[i] - start[i]
            st = stats[names[n]]
            st[0] += 1
            st[1] += dur
            st[2] += dur - child[i]
            if n == image_id and in_orbit[i]:
                under["images"] += 1
            elif n == pair_id and in_report[i]:
                under["pairings"] += 1
                op_time[op[i]]["pairing_under_report"] += dur
            elif n == kwd_id:
                op_time[op[i]]["linsys.k_weyl_divisor"] += dur
            elif names[n] == OP:
                op_time[op[i]][OP] += dur
    return stats, under, op_time
