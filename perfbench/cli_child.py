"""Traced stand-in for ``python -m cremona.cli``.

Usage: python3 perfbench/cli_child.py SPAN_FILE OP_ID CLI_ARG...

Installs the boundary wrappers, runs ``cremona.cli.main`` on the given
arguments, writes the recorded spans to SPAN_FILE and exits with the
command's exit code.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
from workloads import import_cremona  # noqa: E402


def main():
    span_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    cremona = import_cremona()
    import cremona.cli  # noqa: F401  (binds cremona.cli for install)
    tr = tracer.Tracer(span_cap=float("inf"))
    tr.install(cremona)
    tr.op_id = op_id
    try:
        rc = cremona.cli.main(argv)
    finally:
        tr.uninstall()
        tracer.dump_columns(tr.columns(), span_file)
    sys.exit(rc)


if __name__ == "__main__":
    main()
