"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. A copy of the benchmark whose golden file has one expected answer
   corrupted must report a failed operation and exit non-zero.
2. The same copy without the program's sources must exit non-zero and
   print no result.
3. Two runs with the same seed must print identical answer digests.

Copies live under .perfbench_out/selftest and are removed afterwards.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

WORK = wl.OUT / "selftest"
SHORT = ["--seconds", "0.5", "--trace", "0"]


def bench(root, workload, seed):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), *SHORT],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def digests(proc):
    return [ln for ln in proc.stdout.splitlines() if "digest of first" in ln]


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    copy = WORK / "corrupt"
    shutil.copytree(wl.BENCH_DIR, copy / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(wl.SRC, copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    golden_path = copy / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    golden["diagnose"]["shape"][0] = "0" * 12
    golden["digests"]["ring"][0] = "0" * 12
    golden_path.write_text(json.dumps(golden))

    failures = []
    for workload in ("diagnose", "ring"):
        proc = bench(copy, workload, wl.DEFAULT_SEED)
        res = result(proc)
        if proc.returncode == 0 or res is None or res["failed"] < 1 \
                or res["metrics"]["ok_frac"]["value"] >= 1:
            failures.append(f"corrupted {workload} answer was not caught")

    shutil.rmtree(copy / "src")
    proc = bench(copy, "ring", wl.DEFAULT_SEED)
    if proc.returncode == 0 or result(proc) is not None:
        failures.append("a checkout without sources did not fail cleanly")

    for workload in wl.WORKLOADS:
        first, second = (bench(wl.ROOT, workload, 7) for _ in range(2))
        if (first.returncode or second.returncode
                or not digests(first) or digests(first) != digests(second)):
            failures.append(f"{workload}: same seed, different digests")

    shutil.rmtree(WORK, ignore_errors=True)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
