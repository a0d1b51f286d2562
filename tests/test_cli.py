"""End to end checks of the command line driver."""

import functools
import json
import os
import subprocess
import sys
import time

import pytest

from cremona import cli, linsys, weyl


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def record_file(path, rec):
    return write_json(path, cli.record_to_json(rec))


def chow_file(path, ring, terms, grade=None):
    doc = {"kind": "chow", "ring": ring, "terms": terms}
    if grade is not None:
        doc["grade"] = grade
    return write_json(path, doc)


# -- orbit ---------------------------------------------------------------

def test_orbit_plane_census(capsys):
    rc, out, _ = run(capsys, "orbit", "--kind", "plane", "--census")
    assert rc == 0
    assert out.splitlines() == [
        "members: 204",
        "census: S1:56 S3:56 S6:56 S10:28 S15:8; total 204",
    ]


def test_orbit_line_census_seven_points(capsys):
    rc, out, _ = run(capsys, "orbit", "--kind", "line", "--s", "7", "--census")
    assert rc == 0
    assert out.splitlines() == [
        "members: 22",
        "census: lines:21 quartics:1; total 22",
    ]


def test_orbit_json(capsys):
    rc, out, _ = run(capsys, "orbit", "--kind", "divisor", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["members"] == 2152
    assert doc["census"]["(1;11110000)"] == 70
    assert sum(doc["census"].values()) == 2152


def test_orbit_seed_file(capsys, tmp_path):
    seed = record_file(tmp_path / "seed.json", weyl.line_record(3, 7))
    rc, out, _ = run(capsys, "orbit", "--seed", seed, "--census")
    assert rc == 0
    assert "members: 36" in out
    assert "lines:28 quartics:8; total 36" in out


def test_orbit_cache_is_byte_stable(capsys, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    rc, out, _ = run(capsys, "orbit", "--kind", "line", "--cache", str(a))
    assert rc == 0 and f"cache written: {a}" in out
    rc, _, _ = run(capsys, "orbit", "--kind", "line", "--cache", str(b))
    assert rc == 0
    blob = a.read_bytes()
    assert blob == b.read_bytes()
    lines = blob.decode().splitlines()
    assert lines[0] == "# cremona orbit cache v1"
    assert len(lines) == 1 + 36
    assert lines[1:] == sorted(lines[1:])
    # every payload parses back to a record of the advertised type
    for ln in lines[1:]:
        tag, doc = ln.split("\t")
        rec = cli.record_from_json(json.loads(doc))
        assert weyl.record_tag(rec) == tag


def test_cache_lines_are_compact_sorted_json(tmp_path):
    # one encoder for all members writes what one json.dumps per member did
    members = weyl.weyl_divisors(8) + weyl.weyl_planes(7)
    path = tmp_path / "c.txt"
    cli.write_cache(path, members)
    want = sorted(
        weyl.record_tag(r) + "\t" + json.dumps(
            cli.record_to_json(r), sort_keys=True, separators=(",", ":"))
        for r in members)
    text = path.read_text()
    got = text.splitlines()
    assert text.endswith("\n") and got[0] == cli.CACHE_HEADER
    assert len(got) == len(want) + 1
    # the numbers of the differing lines: a diff of 2000 lines takes minutes
    assert [i for i, (g, w) in enumerate(zip(got[1:], want)) if g != w] == []


def test_orbit_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("CREMONA_ORBIT_BUDGET", "10")
    rc, _, err = run(capsys, "orbit", "--kind", "plane")
    assert rc == 3
    assert err.startswith("error:")


@pytest.mark.parametrize("value", ["1.5", "ten", "", "1_000", " 40 ", "+40",
                                   "\u0664\u0660", "-5"])
def test_orbit_budget_env_must_be_an_integer(capsys, monkeypatch, value):
    # ASCII digits only (int() reads all but the last two), never negative
    monkeypatch.setenv("CREMONA_ORBIT_BUDGET", value)
    rc, out, err = run(capsys, "orbit", "--kind", "line")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "CREMONA_ORBIT_BUDGET" in err


@functools.lru_cache(maxsize=None)
def searched_orbit(kind, s):
    # the oracle: the breadth-first search from the builtin seed
    return weyl.orbit(cli.builtin_seed(kind, s))


@pytest.mark.parametrize("mode", ["--census", "--json", "--cache"])
@pytest.mark.parametrize("s", weyl.POINT_COUNTS)
@pytest.mark.parametrize("kind", ["line", "plane", "divisor"])
def test_builtin_orbit_prints_what_the_search_finds(capsys, tmp_path, kind, s,
                                                     mode):
    result = searched_orbit(kind, s)
    n = len(result.members)
    argv = ["orbit", "--kind", kind, "--s", str(s), mode]
    if mode == "--cache":
        argv.append(str(tmp_path / "got.txt"))
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    if mode == "--census":
        assert out == (f"members: {n}\n"
                       f"census: {cli.census_line(result.type_census)}\n")
    elif mode == "--json":
        assert out == json.dumps({"members": n, "census": dict(
            sorted(result.type_census.items()))}) + "\n"
    else:
        assert out == f"members: {n}\ncache written: {tmp_path / 'got.txt'}\n"
        cli.write_cache(tmp_path / "want.txt", result.members)
        assert ((tmp_path / "got.txt").read_bytes()
                == (tmp_path / "want.txt").read_bytes())


@pytest.mark.parametrize("kind", ["line", "plane", "divisor"])
def test_builtin_orbit_budget_boundary(capsys, monkeypatch, tmp_path, kind):
    # the search's rule, on the closed forms and on the search itself:
    # more labeled members than the cap exit 3; the seed file path printed
    # 57 members under a cap of 56 for the hyperplane seed at s = 7
    sizes = {s: len(searched_orbit(kind, s).members) for s in weyl.POINT_COUNTS}
    for s, n in sizes.items():
        seed = record_file(tmp_path / f"{kind}{s}.json",
                           cli.builtin_seed(kind, s))
        for source in (["--kind", kind], ["--seed", seed]):
            argv = ["orbit", *source, "--s", str(s)]
            monkeypatch.setenv("CREMONA_ORBIT_BUDGET", str(n))
            rc, out, _ = run(capsys, *argv)
            assert rc == 0 and out == f"members: {n}\n", argv
            monkeypatch.setenv("CREMONA_ORBIT_BUDGET", str(n - 1))
            rc, out, err = run(capsys, *argv)
            assert rc == 3 and out == "", argv
            assert err.startswith(f"error: more than {n - 1} labeled members")


def test_only_a_custom_seed_runs_the_search(capsys, monkeypatch, tmp_path):
    calls = []
    search = weyl.orbit

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)
    monkeypatch.setattr(weyl, "orbit", counted)
    rc, _, _ = run(capsys, "orbit", "--kind", "divisor")
    assert rc == 0 and calls == []
    seed = record_file(tmp_path / "seed.json",
                       weyl.hyperplane_record((1, 2, 3, 4)))
    rc, out, _ = run(capsys, "orbit", "--seed", seed)
    assert rc == 0 and out == "members: 2152\n" and len(calls) == 1


def test_orbit_cache_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    rc, out, err = run(capsys, "orbit", "--kind", "line", "--s", "6",
                       "--cache", str(target))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and str(target) in err
    assert not target.parent.exists()


# -- cremona -------------------------------------------------------------

def test_cremona_surface_disjoint_centers(capsys, tmp_path):
    src = record_file(tmp_path / "s1.json", weyl.s1_plane(6, 7, 8))
    rc, out, _ = run(capsys, "cremona", "--kind", "surface", "--in", src,
                     "--centers", "1,2,3,4,5")
    assert rc == 0
    assert out == cli.surface_to_triangle(weyl.s6_sextic(6, 7, 8)) + "\n"


def test_cremona_contraction_exit_code_and_involution(capsys, tmp_path):
    src = record_file(tmp_path / "s1.json", weyl.s1_plane(1, 2, 3))
    rc, out, _ = run(capsys, "cremona", "--kind", "surface", "--in", src,
                     "--centers", "1,2,3,4,5", "--json")
    assert rc == 4  # the plane is contracted, but the image still prints
    image = cli.record_from_json(json.loads(out))
    assert image.d == 0
    back = write_json(tmp_path / "img.json", json.loads(out))
    rc, out, _ = run(capsys, "cremona", "--kind", "surface", "--in", back,
                     "--centers", "1,2,3,4,5", "--json")
    assert rc == 0
    assert cli.record_from_json(json.loads(out)) == weyl.s1_plane(1, 2, 3)


def test_cremona_divisor_fixed_and_moved(capsys, tmp_path):
    src = record_file(tmp_path / "w.json", weyl.hyperplane_record((1, 2, 3, 4)))
    rc, out, _ = run(capsys, "cremona", "--kind", "divisor", "--in", src,
                     "--centers", "1,2,3,5,6")
    assert rc == 0
    assert out.strip() == "(1; 1 1 1 1 0 0 0 0)"  # three centers hit: fixed
    rc, out, _ = run(capsys, "cremona", "--kind", "divisor", "--in", src,
                     "--centers", "1,2,5,6,7")
    assert rc == 0
    assert out.strip() == "(2; 2 2 1 1 1 1 1 0)"


def test_cremona_bad_centers(capsys, tmp_path):
    src = record_file(tmp_path / "w.json", weyl.hyperplane_record((1, 2, 3, 4)))
    for centers in ("1,2,3", "1,1,2,3,4", "1,2,3,4,9", "1,2,x,4,5"):
        rc, _, err = run(capsys, "cremona", "--kind", "divisor", "--in", src,
                         "--centers", centers)
        assert rc == 2 and err.startswith("error:")


@pytest.mark.parametrize("centers", ["\u0661,2,5,6,7", "1_0,2,5,6,7",
                                     "+1,2,5,6,7", " 1,2,5,6,7", "1,2,5,6,7,"])
def test_cremona_centers_are_ascii_integers(capsys, tmp_path, centers):
    # int() reads the Arabic-Indic one as 1 and 1_0 as 10; both used to
    # reach the Cremona, the first one printing (2; 2 2 1 1 1 1 1 0)
    src = record_file(tmp_path / "w.json", weyl.hyperplane_record((1, 2, 3, 4)))
    rc, out, err = run(capsys, "cremona", "--kind", "divisor", "--in", src,
                       "--centers", centers)
    assert rc == 2 and out == "" and "bad centers" in err


def test_point_count_option_is_an_ascii_integer(capsys):
    for value in ("\u0667", "7_0", "+7"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["orbit", "--kind", "line", "--s", value])
        assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err


def test_cremona_kind_mismatch(capsys, tmp_path):
    src = record_file(tmp_path / "w.json", weyl.hyperplane_record((1, 2, 3, 4)))
    rc, _, err = run(capsys, "cremona", "--kind", "surface", "--in", src,
                     "--centers", "1,2,3,4,5")
    assert rc == 2 and "expected surface" in err


# -- pair ----------------------------------------------------------------

def test_pair_values(capsys, tmp_path):
    a = record_file(tmp_path / "a.json", weyl.s1_plane(1, 2, 3))
    for other, value in ((weyl.s6_sextic(1, 2, 3), 3),
                         (weyl.s1_plane(4, 5, 6), 1),
                         (weyl.s1_plane(1, 4, 5), 0)):
        b = record_file(tmp_path / "b.json", other)
        rc, out, _ = run(capsys, "pair", "--a", a, "--b", b)
        assert rc == 0 and out.strip() == str(value)
    b = record_file(tmp_path / "b.json", weyl.s6_sextic(1, 2, 3))
    rc, out, _ = run(capsys, "pair", "--a", a, "--b", b, "--json")
    assert rc == 0 and json.loads(out) == {"pairing": 3}


def test_pair_accepts_triangles(capsys, tmp_path):
    a = tmp_path / "a.txt"
    a.write_text(cli.surface_to_triangle(weyl.s3_cubic(1, 8)) + "\n")
    b = record_file(tmp_path / "b.json", weyl.s3_cubic(8, 1))
    rc, out, _ = run(capsys, "pair", "--a", str(a), "--b", b)
    assert rc == 0 and out.strip() == "3"


def test_pair_rejects_non_planes(capsys, tmp_path):
    a = record_file(tmp_path / "a.json", weyl.s1_plane(1, 2, 3))
    bad = weyl.SurfaceRecord(8, 2, (1,) * 8, (0,) * 8, (0,) * 28)
    b = record_file(tmp_path / "b.json", bad)
    rc, _, err = run(capsys, "pair", "--a", a, "--b", b)
    assert rc == 2 and err.startswith("error:")
    c = record_file(tmp_path / "c.json", weyl.s1_plane(1, 2, 3, s=7))
    rc, _, err = run(capsys, "pair", "--a", a, "--b", c)
    assert rc == 2 and "point counts" in err


# -- mul -----------------------------------------------------------------

def test_mul_h_squared(capsys, tmp_path):
    h = chow_file(tmp_path / "h.json", "x4", {"H": 1})
    rc, out, _ = run(capsys, "mul", "--ring", "x4", "--a", h, "--b", h)
    assert rc == 0
    assert json.loads(out) == {"kind": "chow", "ring": "x4", "grade": 2,
                               "terms": {"S": 1}}


def test_mul_disjoint_exceptionals_vanish(capsys, tmp_path):
    a = chow_file(tmp_path / "a.json", "x4", {"E1": 1})
    b = chow_file(tmp_path / "b.json", "x4", {"E2": 1})
    rc, out, _ = run(capsys, "mul", "--ring", "x4", "--a", a, "--b", b)
    assert rc == 0
    assert json.loads(out) == {"kind": "chow", "ring": "x4", "grade": 2,
                               "terms": {}}


def test_mul_degree_flag(capsys, tmp_path):
    # 1-based names: l1 and E1 sit over the first point
    a = chow_file(tmp_path / "a.json", "x3", {"l1": 1})
    b = chow_file(tmp_path / "b.json", "x3", {"E1": 1})
    rc, out, _ = run(capsys, "mul", "--ring", "x3", "--a", a, "--b", b,
                     "--degree")
    assert rc == 0 and out.strip() == "-1"


def test_mul_errors(capsys, tmp_path):
    a = chow_file(tmp_path / "a.json", "x3", {"H": 1})
    b = chow_file(tmp_path / "b.json", "x4", {"H": 1})
    rc, _, err = run(capsys, "mul", "--ring", "x4", "--a", a, "--b", b)
    assert rc == 2 and "ring mismatch" in err
    c = chow_file(tmp_path / "c.json", "x4", {"H": 1, "E1": "x"})
    rc, _, err = run(capsys, "mul", "--ring", "x4", "--a", c, "--b", b)
    assert rc == 2


def test_chow_coefficients_must_be_integers(capsys, tmp_path):
    # int() used to truncate these: H^2 came out as {"S": 1} with exit 0
    for terms, grade, bad in (({"H": 1.9}, None, "terms[H]"),
                              ({"H": True}, None, "terms[H]"),
                              ({}, 1.5, "grade")):
        a = chow_file(tmp_path / "a.json", "x4", terms, grade)
        rc, out, err = run(capsys, "mul", "--ring", "x4", "--a", a, "--b", a)
        assert rc == 2 and out == "" and f"{bad} must be an integer" in err


@pytest.mark.parametrize("name", ["V123,+3", "V123, 3", "V123,٣", "H,0",
                                  "H,-1", "V123,-3"])
def test_chow_sub_index_is_an_ascii_integer(capsys, tmp_path, name):
    # int() read the first three as V123,3 and the two H terms as H, all
    # with exit 0; a sub-index is a 1-based point label
    b = chow_file(tmp_path / "b.json", "x4", {"E3": 1})
    a = chow_file(tmp_path / "a.json", "x4", {"V123,3": 1})
    rc, out, _ = run(capsys, "mul", "--ring", "x4", "--a", a, "--b", b)
    assert rc == 0 and json.loads(out)["terms"] == {"f123": -1}
    a = chow_file(tmp_path / "a.json", "x4", {name: 1})
    rc, out, err = run(capsys, "mul", "--ring", "x4", "--a", a, "--b", b)
    assert rc == 2 and out == "" and repr(name) in err


@pytest.mark.parametrize("terms, written, internal", [
    ({"E0": 1}, "'E0'", ["E-(1,)", "E-1"]),
    ({"E10": 1}, "'E10'", ["E0-(1,)", "E0-1"]),
    ({"E21": 1}, "'E21'", ["E(1, 0)", "E10"]),
    ({"E6": 1}, "'E6'", ["E(5,)", "E5"]),
    ({"S": 1, "E12": 1}, "'E12'", ["E01"]),
    ({"E1": 2**63}, "terms[E1]", ["E0"]),
    ({"E1": 2**62, " E1": 2**62}, "' E1'", ["E0"]),
    ({" E1 ": 1}, "' E1 '", ["E0"]),
])
def test_chow_term_errors_name_the_term_as_written(capsys, tmp_path, terms,
                                                   written, internal):
    # these printed the ring's 0-based names (E-(1,), E(1, 0), E01, ...)
    h = chow_file(tmp_path / "h.json", "x4", {"H": 1})
    a = chow_file(tmp_path / "a.json", "x4", terms)
    rc, out, err = run(capsys, "mul", "--ring", "x4", "--a", h, "--b", a)
    assert rc == 2 and out == "" and written in err
    assert not any(name in err for name in internal), err


def test_chow_document_must_be_an_object(capsys, tmp_path):
    # both used to crash with AttributeError and exit 1
    b = chow_file(tmp_path / "b.json", "x4", {"H": 1})
    for doc, msg in (([1], "expected a chow document"),
                     ({"kind": "chow", "ring": "x4", "terms": [1]},
                      "terms must be an object")):
        a = write_json(tmp_path / "a.json", doc)
        rc, out, err = run(capsys, "mul", "--ring", "x4", "--a", a, "--b", b)
        assert rc == 2 and out == "" and msg in err


def test_chow_grade_must_match_the_terms(capsys, tmp_path):
    # a stated grade 2 on the grade 1 class H was dropped: H^2 printed S
    h = chow_file(tmp_path / "h.json", "x4", {"H": 1})
    g = chow_file(tmp_path / "g.json", "x4", {"H": 1}, grade=2)
    rc, out, err = run(capsys, "mul", "--ring", "x4", "--a", g, "--b", h)
    assert rc == 2 and out == ""
    assert "grade 2" in err and "grade 1" in err and "'H'" in err
    g = chow_file(tmp_path / "g.json", "x4", {"H": 1}, grade=1)
    rc, out, _ = run(capsys, "mul", "--ring", "x4", "--a", g, "--b", h)
    assert rc == 0 and json.loads(out)["terms"] == {"S": 1}
    z = chow_file(tmp_path / "z.json", "x4", {}, grade=3)
    rc, out, _ = run(capsys, "mul", "--ring", "x4", "--a", z, "--b", h)
    assert rc == 0 and json.loads(out) == {"kind": "chow", "ring": "x4",
                                           "grade": 4, "terms": {}}


@pytest.mark.parametrize("argv", [
    ("mul", "--ring", "x4", "--a", "h.json", "--b", "h.json", "--json"),
    ("mul", "--ring", "x4", "--a", "h.json", "--b", "h.json", "--s", "7"),
    ("report", "--in", "w.json", "--s", "7"),
])
def test_options_a_command_does_not_read_are_refused(capsys, argv):
    # mul reads neither --json nor --s, and report takes s from its input
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# -- report --------------------------------------------------------------

def test_report_lines_only_large_s(capsys, tmp_path):
    src = write_json(tmp_path / "d.json",
                     {"kind": "divisor", "s": 10, "d": 4,
                      "m": [4, 2, 2, 2, 2, 2, 2, 2, 2, 2]})
    rc, out, _ = run(capsys, "report", "--in", src)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "chi=-10 wdim(lines-only)=-1 h1corr=9"
    assert lines[1].startswith("lines: L_12:2")
    assert "L_1,10:2" in lines[1]
    assert any(ln.startswith("deep: line(1,2):2") for ln in lines)


def test_report_deep_quartics_large_s(capsys, tmp_path):
    # (1; 1^10): every quartic through seven points has k = 7 - 4 = 3, so
    # all 120 of them are deep, as the s <= 8 report lists them
    src = write_json(tmp_path / "d.json",
                     {"kind": "divisor", "s": 10, "d": 1, "m": [1] * 10})
    rc, out, _ = run(capsys, "report", "--in", src)
    assert rc == 0
    deep = [ln for ln in out.splitlines() if ln.startswith("deep: ")]
    assert len(deep) == 1
    parts = deep[0][len("deep: "):].split()
    assert parts[0] == "quartic(1,2,3,4,5,6,7):3"
    assert parts[-1] == "quartic(4,5,6,7,8,9,10):3"
    assert len(parts) == 120
    rc, out, _ = run(capsys, "report", "--in", src, "--json")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["quartics"]) == 120
    assert doc["deep"][0] == ["quartic", [1, 2, 3, 4, 5, 6, 7], 3]
    assert len(doc["deep"]) == 120


def test_report_large_s_is_refused_quickly(capsys, tmp_path):
    # C(40, 7) quartic subsets: the scan bound turns hours into exit 2
    src = write_json(tmp_path / "d.json",
                     {"kind": "divisor", "s": 40, "d": 1, "m": [1] * 40})
    start = time.perf_counter()
    rc, out, err = run(capsys, "report", "--in", src)
    assert time.perf_counter() - start < 5
    assert rc == 2 and out == "" and "more than the scan covers" in err


def test_report_full(capsys, tmp_path):
    src = write_json(tmp_path / "d.json",
                     {"kind": "divisor", "s": 8, "d": 1,
                      "m": [1, 1, 1, 1, 0, 0, 0, 0]})
    rc, out, _ = run(capsys, "report", "--in", src)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "chi=1 wdim=1 h1corr=0"
    assert lines[1] == "lines: L_12:1 L_13:1 L_14:1 L_23:1 L_24:1 L_34:1"
    assert lines[2] == "quartics: none"
    assert lines[3] == ("planes: S1(1,2,3):1 S1(1,2,4):1 "
                        "S1(1,3,4):1 S1(2,3,4):1")
    assert lines[4] == "conflicts: none"


def test_report_conflict_note(capsys, tmp_path):
    src = write_json(tmp_path / "d.json",
                     {"kind": "divisor", "s": 8, "d": 1,
                      "m": [1, 1, 1, 1, 1, 1, 0, 0]})
    rc, out, _ = run(capsys, "report", "--in", src)
    assert rc == 0
    assert "S1(1,2,3)~S1(4,5,6)" in out
    assert out.splitlines()[-1] == ("note: meeting planes in the base locus; "
                                    "the system is likely empty")


def test_report_json(capsys, tmp_path):
    src = write_json(tmp_path / "d.json",
                     {"kind": "divisor", "s": 8, "d": 1,
                      "m": [1, 1, 1, 1, 0, 0, 0, 0]})
    rc, out, _ = run(capsys, "report", "--in", src, "--json")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["chi"], doc["wdim"], doc["h1corr"]) == (1, 1, 0)
    assert doc["lines_only"] is False
    assert doc["lines"]["1,2"] == 1
    assert doc["planes"]["S1(1,2,3)"] == 1
    assert doc["conflicts"] == [] and doc["empties_hint"] is False


def test_report_lines_only_flag(capsys, tmp_path):
    src = write_json(tmp_path / "d.json",
                     {"kind": "divisor", "s": 8, "d": 1,
                      "m": [1, 1, 1, 1, 0, 0, 0, 0]})
    rc, out, _ = run(capsys, "report", "--in", src, "--lines-only")
    assert rc == 0
    assert out.splitlines()[0] == "chi=1 wdim(lines-only)=1 h1corr=0"


@pytest.mark.parametrize("s, d, flags, most", [
    (10, 4, (), 1),
    (8, 3, ("--lines-only",), 1),
    (8, 3, (), 2),
    (4, 1, (), 1),
])
def test_report_scans_once(capsys, tmp_path, monkeypatch, s, d, flags, most):
    # one report is one base_locus_report pass over the lines and
    # quartics; only the full wdim at s = 6, 7, 8 counts them a second time
    calls = []

    def counted(fn):
        def wrapper(D, *args):
            calls.append(D)
            return fn(D, *args)
        return wrapper

    for name in ("base_locus_report", "_curve_counts"):
        monkeypatch.setattr(linsys, name, counted(getattr(linsys, name)))
    src = write_json(tmp_path / "d.json",
                     {"kind": "divisor", "s": s, "d": d,
                      "m": [d] + [2] * (s - 1)})
    rc, _, _ = run(capsys, "report", "--in", src, *flags)
    assert rc == 0
    assert 1 <= len(calls) <= most


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_report_into_a_closed_pipe(tmp_path, flags):
    # a reader that quit early (| head -1): the child's stdout is a pipe
    # whose read end is already closed, so its first write fails
    src = write_json(tmp_path / "d.json",
                     {"kind": "divisor", "s": 8, "d": 3,
                      "m": [3, 3, 3, 2, 2, 1, 1, 1]})
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cremona.cli", "report", "--in", src,
             *flags], stdout=w, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(w)
    assert proc.returncode == cli.EX_PIPE == 141
    assert proc.stderr == b""


def test_report_wants_divisor(capsys, tmp_path):
    src = record_file(tmp_path / "c.json", weyl.line_record(1, 2))
    rc, _, err = run(capsys, "report", "--in", src)
    assert rc == 2 and "divisor" in err


# -- classify ------------------------------------------------------------

def test_classify(capsys, tmp_path):
    cases = (
        ("surface", weyl.s3_cubic(8, 1), "S3(8,1)"),
        ("surface", weyl.s15_surface(2), "S15(2)"),
        ("curve", weyl.quartic_record(3), "quartic(3)"),
        ("curve", weyl.line_record(2, 5), "line(2,5)"),
        ("divisor", weyl.hyperplane_record((1, 2, 3, 4)), "(1;11110000)"),
    )
    for kind, rec, want in cases:
        src = record_file(tmp_path / "r.json", rec)
        rc, out, _ = run(capsys, "classify", "--kind", kind, "--in", src)
        assert rc == 0 and out.strip() == want
    src = record_file(tmp_path / "r.json", weyl.s15_surface(2))
    rc, out, _ = run(capsys, "classify", "--kind", "surface", "--in", src,
                     "--json")
    assert rc == 0 and json.loads(out) == {"tag": "S15", "idx": [2]}


def test_classify_divisor_outside_the_orbit_is_other(capsys, tmp_path):
    # (1; 2, 0^7) has 5d - sum m = 3: not a Weyl hyperplane class
    for m, want in (((1, 1, 1, 1, 0, 0, 0, 0), "(1;11110000)"),
                    ((2, 0, 0, 0, 0, 0, 0, 0), "Other")):
        src = record_file(tmp_path / "d.json", weyl.DivisorRecord(8, 1, m))
        rc, out, _ = run(capsys, "classify", "--kind", "divisor", "--in", src)
        assert rc == 0 and out == want + "\n"
        rc, out, _ = run(capsys, "classify", "--kind", "divisor", "--in", src,
                         "--json")
        assert rc == 0 and json.loads(out) == {"tag": want, "idx": []}


# -- serialization round trips -------------------------------------------

@pytest.mark.parametrize("bad", ["1_0", "\u0661", "+1", "0x1", "1.0"])
def test_triangle_entries_are_ascii_integers(capsys, tmp_path, bad):
    # the degree of S_1(1,2,3) written as 1_0 used to read as 10 (and
    # classify as Other, exit 0), the Arabic-Indic one as 1
    toks = cli.surface_to_triangle(weyl.s1_plane(1, 2, 3)).split()
    assert toks[0] == "1"
    path = tmp_path / "t.txt"
    path.write_text(" ".join([bad] + toks[1:]) + "\n")
    rc, out, err = run(capsys, "classify", "--kind", "surface",
                       "--in", str(path))
    assert rc == 2 and out == ""
    assert "whitespace-separated integers" in err
    with pytest.raises(cli.CliError):
        cli.surface_from_triangle(path.read_text())


def test_triangle_roundtrip():
    rec = weyl.s3_cubic(2, 7)
    text = cli.surface_to_triangle(rec)
    assert cli.surface_from_triangle(text) == rec
    assert text.split()[0] == "3"  # degree leads the first row


def test_json_roundtrip():
    for rec in (weyl.hyperplane_record((2, 3, 5, 8)),
                weyl.quartic_record(8, s=7),
                weyl.s10_surface(7, 8)):
        assert cli.record_from_json(cli.record_to_json(rec)) == rec


def test_bad_inputs_exit_2(capsys, tmp_path):
    rc, _, err = run(capsys, "pair", "--a", str(tmp_path / "nope.json"),
                     "--b", str(tmp_path / "nope.json"))
    assert rc == 2 and err.startswith("error:")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "classify", "--kind", "surface", "--in", str(bad))
    assert rc == 2
    tri = tmp_path / "tri.txt"
    tri.write_text("1 2 3\n")
    rc, _, err = run(capsys, "classify", "--kind", "surface", "--in", str(tri))
    assert rc == 2 and "45 entries" in err
    odd = write_json(tmp_path / "odd.json", {"kind": "pencil", "s": 8})
    rc, _, err = run(capsys, "classify", "--kind", "surface", "--in", odd)
    assert rc == 2 and "unknown record kind" in err


def test_json_entries_must_be_integers(capsys, tmp_path):
    # floats and booleans used to be truncated into a record and processed
    for doc, bad in (
            ({"kind": "divisor", "s": 8, "d": 1.9,
              "m": [1, 1, 1, True, 0, 0, 0, 0.5]}, "d"),
            ({"kind": "divisor", "s": 8, "d": 1,
              "m": [1, 1, 1, True, 0, 0, 0, 0]}, "m[3]"),
            ({"kind": "divisor", "s": 8.0, "d": 1, "m": [1] * 8}, "s")):
        src = write_json(tmp_path / "f.json", doc)
        rc, out, err = run(capsys, "cremona", "--kind", "divisor",
                           "--centers", "1,2,3,4,5", "--in", src)
        assert rc == 2 and out == "" and f"{bad} must be an integer" in err
        rc, out, err = run(capsys, "report", "--in", src)
        assert rc == 2 and out == "" and f"{bad} must be an integer" in err
    surf = cli.record_to_json(weyl.s1_plane(1, 2, 3))
    surf["mline"][0] = 1.0
    src = write_json(tmp_path / "s.json", surf)
    rc, out, err = run(capsys, "classify", "--kind", "surface", "--in", src)
    assert rc == 2 and out == "" and "mline[0] must be an integer" in err


def test_console_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cremona.cli", "orbit", "--kind", "line",
         "--census"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "members: 36" in proc.stdout
    assert "lines:28 quartics:8; total 36" in proc.stdout


# -- paths no other test reaches ------------------------------------------

def test_orbit_json_names_the_cache(capsys, tmp_path):
    path = str(tmp_path / "c.txt")
    rc, out, _ = run(capsys, "orbit", "--kind", "line", "--s", "7", "--json",
                     "--cache", path)
    assert rc == 0
    assert json.loads(out) == {"members": 22,
                               "census": {"line": 21, "quartic": 1},
                               "cache": path}


def test_orbit_point_count_out_of_range(capsys):
    rc, out, err = run(capsys, "orbit", "--kind", "line", "--s", "5")
    assert rc == 2 and out == "" and "6, 7 or 8 points" in err


def test_triangle_dead_point_slot_is_refused(capsys, tmp_path):
    toks = cli.surface_to_triangle(weyl.s1_plane(1, 2, 3, s=7)).split()
    toks[8] = "1"  # m_8, after the degree and m_1 .. m_7
    path = tmp_path / "t.txt"
    path.write_text(" ".join(toks) + "\n")
    rc, _, err = run(capsys, "classify", "--kind", "surface", "--s", "7",
                     "--in", str(path))
    assert rc == 2 and "point 8 does not exist for s=7" in err


def test_chow_document_naming_one_cycle_twice(capsys, tmp_path):
    a = chow_file(tmp_path / "a.json", "x4", {"V123,1": 1, "V123,01": 2})
    h = chow_file(tmp_path / "h.json", "x4", {"H": 1})
    rc, _, err = run(capsys, "mul", "--ring", "x4", "--a", a, "--b", h)
    assert rc == 2 and "name one cycle" in err


def test_mul_wants_chow_documents(capsys, tmp_path):
    d = record_file(tmp_path / "d.json", weyl.hyperplane_record((1, 2, 3, 4)))
    h = chow_file(tmp_path / "h.json", "x4", {"H": 1})
    rc, _, err = run(capsys, "mul", "--ring", "x4", "--a", d, "--b", h)
    assert rc == 2 and "expected a chow document" in err


def test_mul_degree_needs_top_grade(capsys, tmp_path):
    h = chow_file(tmp_path / "h.json", "x4", {"H": 1})
    rc, out, err = run(capsys, "mul", "--ring", "x4", "--a", h, "--b", h,
                       "--degree")
    assert rc == 2 and out == "" and "degree needs grade 4" in err


def test_mul_empty_terms_is_the_zero_class_of_grade_zero(capsys, tmp_path):
    zero = chow_file(tmp_path / "z.json", "x4", {})
    h = chow_file(tmp_path / "h.json", "x4", {"H": 1})
    rc, out, _ = run(capsys, "mul", "--ring", "x4", "--a", zero, "--b", h)
    assert rc == 0
    assert out == '{"kind": "chow", "ring": "x4", "grade": 1, "terms": {}}\n'


def test_report_document_without_m(capsys, tmp_path):
    src = write_json(tmp_path / "d.json", {"kind": "divisor", "s": 8, "d": 1})
    rc, out, err = run(capsys, "report", "--in", src)
    assert rc == 2 and out == "" and "bad record document: 'm'" in err
