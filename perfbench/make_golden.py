"""Regenerate perfbench/golden.json from the program in this checkout.

    python3 perfbench/make_golden.py

The golden answers are the reference outputs of the commit that defined
the benchmark; rerun this only when the expected answers themselves are
meant to change.  It takes several minutes, most of it in the diagnose
shape summaries.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def diagnose_summaries():
    d = wl.Diagnose()
    cremona = wl.import_cremona()
    d.linsys = cremona.linsys
    F = cremona.linsys.FatPointDivisor
    records = {"anchor": [rec for rec, _ in wl.ANCHORS],
               "shape": wl.diagnose_shapes()}
    return {kind: [d.summary(d.run((kind, j, F(*rec))))
                   for j, rec in enumerate(recs)]
            for kind, recs in records.items()}


def pairing_tables():
    cremona = wl.import_cremona()
    weyl, linsys = cremona.weyl, cremona.linsys
    out = {}
    for s in (7, 8):
        by_label = {linsys.plane_id(T): T for T in weyl.weyl_planes(s)}
        labels = sorted(by_label)
        planes = [by_label[x] for x in labels]
        rows = ["".join(str(weyl.weyl_plane_pairing(R, T)) for T in planes)
                for R in planes]
        out[f"labels{s}"] = labels
        out[f"table{s}"] = wl.pack_table(rows)
    return out


def cache_sha256():
    workdir = wl.OUT / "golden-cli"
    workdir.mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, "-m", "cremona.cli", "orbit", "--kind",
                    "divisor", "--cache", wl.CACHE_FILE], cwd=workdir,
                   env=wl.cli_env(), stdout=subprocess.DEVNULL, check=True)
    return hashlib.sha256((workdir / wl.CACHE_FILE).read_bytes()).hexdigest()


def answer_hashes(name):
    """Hashes of the default seed's first answers, all checks passing."""
    w = wl.make(name, wl.OUT / "golden-work")
    w.setup()
    hashes = []
    for _, op in zip(range(w.digest_ops), w.ops(wl.DEFAULT_SEED)):
        _, answer, ok = run.execute(w, op)
        if not ok:
            raise AssertionError(f"{name}: reference answer fails its check")
        hashes.append(wl.short_hash(answer))
    return hashes


def main():
    golden = {"diagnose": diagnose_summaries(),
              "pairing": pairing_tables(),
              "cold_cli": {"cache_sha256": cache_sha256()},
              "digests": {}}
    with open(wl.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh)
    for name in wl.WORKLOADS:
        golden["digests"][name] = answer_hashes(name)
    with open(wl.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
