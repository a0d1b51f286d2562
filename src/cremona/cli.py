"""Command line driver: orbits, Cremona transforms, pairings, Chow
products, linear system reports and record classification.

Records travel as JSON documents with a "kind" field; surfaces are also
accepted and printed as the 45-entry triangular array (degree row, quartic
row, then the line multiplicities row by row).  Point labels are 1-based
everywhere here, including the Chow cycle names (E1 is the first point).

Exit codes: 0 ok, 2 bad input, 3 orbit budget exceeded, 4 the transform
contracted the class (the image is still printed), 141 (128 + SIGPIPE)
stdout was closed before all output was written, as under `| head -1`
(no traceback is printed).
"""

import argparse
import json
import os
import sys
from collections import Counter

from . import chow, linsys, p3, p4, weyl

EX_OK = 0
EX_PARSE = 2
EX_BUDGET = 3
EX_CONTRACTED = 4
EX_PIPE = 141

CACHE_HEADER = "# cremona orbit cache v1"


class CliError(Exception):
    """Anything wrong with the command line or an input file."""


# -- record serialization ----------------------------------------------

def record_to_json(rec):
    if isinstance(rec, weyl.DivisorRecord):
        return {"kind": "divisor", "s": rec.s, "d": rec.d, "m": list(rec.m)}
    if isinstance(rec, weyl.CurveRecord):
        return {"kind": "curve", "s": rec.s, "d": rec.d, "m": list(rec.m)}
    if isinstance(rec, weyl.SurfaceRecord):
        return {"kind": "surface", "s": rec.s, "d": rec.d, "m": list(rec.m),
                "n": list(rec.n), "mline": list(rec.mline)}
    raise CliError(f"cannot serialize {rec!r}")


def _json_int(v, key):
    # JSON numbers arrive as int, float or bool; only a real int is a
    # record entry or a Chow coefficient (bool is an int subclass, and
    # int() would truncate 1.9)
    if type(v) is not int:
        raise CliError(f"bad document: {key} must be an integer, "
                       f"got {json.dumps(v)}")
    return v


def _json_ints(v, key):
    if not isinstance(v, list):
        raise CliError(f"bad document: {key} must be a list, "
                       f"got {json.dumps(v)}")
    return tuple(_json_int(x, f"{key}[{i}]") for i, x in enumerate(v))


def record_from_json(doc):
    try:
        kind = doc["kind"]
        if kind not in ("divisor", "curve", "surface"):
            raise CliError(f"unknown record kind {kind!r}")
        head = (_json_int(doc["s"], "s"), _json_int(doc["d"], "d"),
                _json_ints(doc["m"], "m"))
        if kind == "divisor":
            return weyl.DivisorRecord(*head)
        if kind == "curve":
            return weyl.CurveRecord(*head)
        return weyl.SurfaceRecord(*head, _json_ints(doc.get("n", [0] * 8), "n"),
                                  _json_ints(doc.get("mline", [0] * 28), "mline"))
    except (KeyError, TypeError, ValueError) as e:
        raise CliError(f"bad record document: {e}") from None


def surface_to_triangle(rec):
    """The printed triangular array: d with the m row, the n row, then
    the line multiplicities anchored at 1, 2, ..., 7."""
    rows = [[rec.d] + list(rec.m), list(rec.n)]
    at = 0
    for i in range(1, 8):
        rows.append(list(rec.mline[at:at + 8 - i]))
        at += 8 - i
    width = [0] * 9
    for r, row in enumerate(rows):
        for c, v in enumerate(row, start=r):
            width[c] = max(width[c], len(str(v)))
    out = []
    for r, row in enumerate(rows):
        cells = [" " * width[c] for c in range(r)]
        cells += [str(v).rjust(width[c]) for c, v in enumerate(row, start=r)]
        out.append(" ".join(cells).rstrip())
    return "\n".join(out)


def surface_from_triangle(text, s=8):
    toks = text.split()
    if len(toks) != 45:
        raise CliError(f"the triangular array has 45 entries, got {len(toks)}")
    try:
        vals = [chow.ascii_int(t) for t in toks]
    except ValueError:
        raise CliError("the triangular array must be whitespace-separated "
                       "integers") from None
    try:
        return weyl.SurfaceRecord(s, vals[0], tuple(vals[1:9]),
                                  tuple(vals[9:17]), tuple(vals[17:]))
    except ValueError as e:
        raise CliError(str(e)) from None


def read_file(path):
    """The text of an input file; an unreadable one is a CliError."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise CliError(str(e)) from None


def parse_json(text, path):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(f"{path}: {e}") from None


def load_record(path, kind=None, s=8):
    text = read_file(path)
    if text.lstrip().startswith("{"):
        rec = record_from_json(parse_json(text, path))
    else:
        rec = surface_from_triangle(text, s=s)
    if kind is not None and record_kind(rec) != kind:
        raise CliError(f"{path} holds a {record_kind(rec)}, expected {kind}")
    return rec


def record_kind(rec):
    return {weyl.DivisorRecord: "divisor", weyl.CurveRecord: "curve",
            weyl.SurfaceRecord: "surface"}[type(rec)]


def print_record(rec, as_json):
    if as_json:
        print(json.dumps(record_to_json(rec)))
    elif isinstance(rec, weyl.SurfaceRecord):
        print(surface_to_triangle(rec))
    else:
        print(f"({rec.d}; {' '.join(str(x) for x in rec.m)})")


# -- chow class serialization ------------------------------------------

# the modules, not their rings: a ring is built on its first use
_RINGS = {"x3": p3, "x4": p4}


def _shift_name(name, delta):
    # user-facing cycle names are 1-based, the rings label points from 0,
    # so no label of a name read with delta -1 may be 0
    kind, idx, sub = chow.parse_name(name)
    if kind == "one":
        return "1"
    labels = idx + ((sub,) if sub >= 0 else ())
    if any(i + delta < 0 for i in labels):
        raise chow.UnknownSymbolError(f"cannot parse cycle name {name!r}")
    out = kind + "".join(str(i + delta) for i in idx)
    if sub >= 0:
        out += f",{sub + delta}"
    return out


def chow_from_json(doc, ring_name):
    if not isinstance(doc, dict):
        raise CliError("expected a chow document, a JSON object")
    if doc.get("kind") != "chow":
        raise CliError(f"expected a chow document, got kind {doc.get('kind')!r}")
    if doc.get("ring", ring_name) != ring_name:
        raise CliError(f"ring mismatch: file says {doc['ring']}, "
                       f"command says {ring_name}")
    ring = _RINGS[ring_name].RING
    terms = doc.get("terms", {})
    if not isinstance(terms, dict):
        raise CliError("terms must be an object mapping class names to integers")
    # each term is resolved on its own, and an error names it as written
    first, pairs, named = None, [], {}
    for name, c in terms.items():
        try:
            elem = ring._coerce(_shift_name(name, -1))
        except chow.ChowError:
            raise CliError(f"{ring_name} has no basis cycle {name!r}") from None
        if elem in named:
            raise CliError(f"terms {named[elem]!r} and {name!r} name one cycle")
        named[elem] = name
        c = _json_int(c, f"terms[{name}]")
        if abs(c) > chow.INT64_MAX:
            raise CliError(f"terms[{name}] is outside the 64-bit range")
        if first is None:
            first, grade = name, elem.grade
        elif elem.grade != grade:
            raise CliError(f"term {name!r} has grade {elem.grade}, "
                           f"but {first!r} has grade {grade}")
        pairs.append((elem, c))
    if "grade" in doc:
        stated = _json_int(doc["grade"], "grade")
        if first is not None and stated != grade:
            raise CliError(f"grade {stated} disagrees with term {first!r} "
                           f"of grade {grade}")
        grade = stated
    elif first is None:
        grade = 0
    try:
        return ring.make_class(grade, pairs)
    except chow.ChowError as e:
        raise CliError(str(e)) from None


def chow_to_json(x, ring_name):
    return {"kind": "chow", "ring": ring_name, "grade": x.grade,
            "terms": {_shift_name(e.name, +1): c for e, c in x.terms()}}


def load_chow(path, ring_name):
    return chow_from_json(parse_json(read_file(path), path), ring_name)


# -- orbit command ------------------------------------------------------

_TAG_ORDER = {"line": 0, "quartic": 1, "S1": 0, "S3": 1, "S6": 2,
              "S10": 3, "S15": 4}
_TAG_SHOW = {"line": "lines", "quartic": "quartics"}


def census_line(census):
    def key(tag):
        return (0, _TAG_ORDER[tag]) if tag in _TAG_ORDER else (1, tag)
    parts = [f"{_TAG_SHOW.get(tag, tag)}:{census[tag]}"
             for tag in sorted(census, key=key)]
    return " ".join(parts) + f"; total {sum(census.values())}"


def builtin_seed(kind, s):
    if kind == "line":
        return weyl.line_record(1, 2, s=s)
    if kind == "plane":
        return weyl.s1_plane(1, 2, 3, s=s)
    if kind == "divisor":
        return weyl.hyperplane_record((1, 2, 3, 4), s=s)
    raise CliError(f"no builtin seed of kind {kind!r}")


def write_cache(path, members):
    # one encoder for every member: json.dumps with these options builds
    # a new one per call
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    lines = sorted(f"{weyl.record_tag(rec)}\t{encode(record_to_json(rec))}"
                   for rec in members)
    try:
        with open(path, "w") as fh:
            fh.write(CACHE_HEADER + "\n")
            fh.write("\n".join(lines) + "\n")
    except OSError as e:
        raise CliError(str(e)) from None


# the closed forms of the builtin seeds' orbits; each equals the orbit
# search from builtin_seed, order included (tests/test_orbits.py)
_BUILTIN_ORBITS = {"line": weyl.weyl_lines, "plane": weyl.weyl_planes,
                   "divisor": weyl.weyl_divisors}


def builtin_orbit(kind, s):
    """The labeled members of the builtin seed's orbit, read off the
    closed forms under the search's budget rule: more members than the
    cap raise OrbitBudgetExceededError."""
    try:
        seed = builtin_seed(kind, s)
    except ValueError as e:
        raise CliError(str(e)) from None
    cap = weyl._orbit_cap(None)
    members = _BUILTIN_ORBITS[kind](s)
    if len(members) > cap:
        raise weyl.OrbitBudgetExceededError(
            f"more than {cap} labeled members from {seed!r}")
    return members


def cmd_orbit(args):
    if args.seed:
        members = weyl.orbit(load_record(args.seed, s=args.s)).members
    else:
        members = builtin_orbit(args.kind, args.s)
    if args.cache:
        write_cache(args.cache, members)
    if args.json or args.census:
        census = Counter(weyl.record_tag(r) for r in members)
    if args.json:
        doc = {"members": len(members), "census": dict(sorted(census.items()))}
        if args.cache:
            doc["cache"] = args.cache
        print(json.dumps(doc))
    else:
        print(f"members: {len(members)}")
        if args.census:
            print(f"census: {census_line(census)}")
        if args.cache:
            print(f"cache written: {args.cache}")
    return EX_OK


# -- cremona command ----------------------------------------------------

def parse_centers(text):
    try:
        centers = tuple(chow.ascii_int(t) for t in text.split(","))
    except ValueError:
        raise CliError(f"bad centers {text!r}") from None
    return centers


def cmd_cremona(args):
    rec = load_record(args.infile, kind=args.kind, s=args.s)
    centers = parse_centers(args.centers)
    try:
        image = weyl.apply_cremona5(rec, centers)
    except weyl.BadCentersError as e:
        raise CliError(str(e)) from None
    print_record(image, args.json)
    return EX_CONTRACTED if image.d <= 0 else EX_OK


# -- pair command -------------------------------------------------------

def cmd_pair(args):
    a = load_record(args.a, kind="surface", s=args.s)
    b = load_record(args.b, kind="surface", s=args.s)
    try:
        value = weyl.weyl_plane_pairing(a, b)
    except (weyl.NotAWeylPlaneError, ValueError) as e:
        raise CliError(str(e)) from None
    if args.json:
        print(json.dumps({"pairing": value}))
    else:
        print(value)
    return EX_OK


# -- mul command --------------------------------------------------------

def cmd_mul(args):
    x = load_chow(args.a, args.ring)
    y = load_chow(args.b, args.ring)
    try:
        prod = x * y
    except chow.ChowError as e:
        raise CliError(str(e)) from None
    if args.degree:
        try:
            print(chow.degree(prod))
        except chow.ChowError as e:
            raise CliError(str(e)) from None
    else:
        print(json.dumps(chow_to_json(prod, args.ring)))
    return EX_OK


# -- report command -----------------------------------------------------

def _line_label(i, j):
    return f"L_{i}{j}" if j <= 9 else f"L_{i},{j}"


def _table(parts):
    return " ".join(parts) if parts else "none"


def cmd_report(args):
    doc = parse_json(read_file(args.infile), args.infile)
    if not isinstance(doc, dict) or doc.get("kind") != "divisor":
        raise CliError("the report wants a divisor record")
    try:
        D = linsys.FatPointDivisor(_json_int(doc["s"], "s"),
                                   _json_int(doc["d"], "d"),
                                   _json_ints(doc["m"], "m"))
    except (KeyError, ValueError) as e:
        raise CliError(f"bad record document: {e}") from None

    rep = linsys.base_locus_report(D)
    # chi + h1corr is the lines-only wdim; only the full one needs wdim
    full = D.s in weyl.POINT_COUNTS and not args.lines_only
    w = linsys.wdim(D) if full else rep.chi + rep.h1corr

    if args.json:
        print(json.dumps({
            "chi": rep.chi, "wdim": w, "h1corr": rep.h1corr,
            "lines_only": not full,
            "lines": {f"{i},{j}": k for (i, j), k in rep.lines.items()},
            "quartics": {",".join(str(x) for x in (k if isinstance(k, tuple)
                                                   else (k,))): v
                         for k, v in rep.quartics.items()},
            "planes": rep.planes,
            "conflicts": [list(p) for p in rep.pairwise_conflicts],
            "deep": [[tag, list(idx), k] for tag, idx, k in rep.deep_curves],
            "empties_hint": rep.empties_hint,
        }))
        return EX_OK

    label = "wdim" if full else "wdim(lines-only)"
    print(f"chi={rep.chi} {label}={w} h1corr={rep.h1corr}")
    print("lines: " + _table([f"{_line_label(i, j)}:{k}"
                              for (i, j), k in sorted(rep.lines.items())]))
    print("quartics: " + _table(
        [f"Q_{k}:{v}" if not isinstance(k, tuple)
         else "Q(" + ",".join(str(x) for x in k) + f"):{v}"
         for k, v in sorted(rep.quartics.items())]))
    if D.s <= 8:
        print("planes: " + _table([f"{t}:{k}"
                                   for t, k in sorted(rep.planes.items())]))
        print("conflicts: " + _table([f"{a}~{b}"
                                      for a, b in rep.pairwise_conflicts]))
    if rep.deep_curves:
        print("deep: " + " ".join(
            f"{tag}({','.join(str(x) for x in idx)}):{k}"
            for tag, idx, k in rep.deep_curves))
    if rep.empties_hint:
        print("note: meeting planes in the base locus; the system is "
              "likely empty")
    return EX_OK


# -- classify command ---------------------------------------------------

def cmd_classify(args):
    rec = load_record(args.infile, kind=args.kind, s=args.s)
    if isinstance(rec, weyl.SurfaceRecord):
        tag, idx = weyl.classify_surface(rec)
    elif isinstance(rec, weyl.CurveRecord):
        tag, idx = weyl.classify_curve(rec)
    elif weyl.is_weyl_divisor(rec):
        tag, idx = weyl.divisor_type(rec), ()
    else:
        tag, idx = "Other", ()
    if args.json:
        print(json.dumps({"tag": tag, "idx": list(idx)}))
    else:
        print(f"{tag}({','.join(str(i) for i in idx)})" if idx else tag)
    return EX_OK


# -- parser -------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="cremona",
        description="Weyl records, orbits and linear system diagnostics "
                    "for points in P^4")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, points=True):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        if points:
            p.add_argument("--s", type=chow.ascii_int, default=8,
                           help="point count for triangular input and "
                                "builtin seeds (default 8)")

    p = sub.add_parser("orbit", help="enumerate a Weyl orbit")
    p.add_argument("--kind", choices=("line", "plane", "divisor"),
                   default="plane", help="builtin seed to expand")
    p.add_argument("--seed", help="record file overriding the builtin seed")
    p.add_argument("--cache", help="write the sorted member cache here")
    p.add_argument("--census", action="store_true",
                   help="print the type census")
    common(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("cremona", help="apply a five-point Cremona")
    p.add_argument("--kind", choices=("divisor", "curve", "surface"),
                   required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--centers", required=True, help="five labels, comma-separated")
    common(p)
    p.set_defaults(func=cmd_cremona)

    p = sub.add_parser("pair", help="Weyl plane intersection pairing")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    common(p)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("mul", help="product of two Chow classes")
    p.add_argument("--ring", choices=("x3", "x4"), required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--degree", action="store_true",
                   help="print the point-class coefficient instead")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("report", help="linear system diagnostics")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--lines-only", action="store_true",
                   help="restrict the wdim correction to 1-dimensional cycles")
    common(p, points=False)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("classify", help="name a record's orbit type")
    p.add_argument("--kind", choices=("divisor", "curve", "surface"),
                   required=True)
    p.add_argument("--in", dest="infile", required=True)
    common(p)
    p.set_defaults(func=cmd_classify)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
        # a closed stdout shows up here, not in the flush at exit
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit; send what is left
        # of the buffer to devnull so that flush cannot fail as well
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EX_PIPE
    except weyl.OrbitBudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EX_BUDGET
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EX_PARSE
    except (weyl.WeylError, chow.ChowError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EX_PARSE


if __name__ == "__main__":
    sys.exit(main())
