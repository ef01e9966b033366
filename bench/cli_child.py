"""Traced bootstrap for one coxmov CLI process.

    python3 bench/cli_child.py TRACE_FILE ARG...

Puts this checkout's ``src`` first on the path, installs the benchmark's
layer wrappers, runs ``coxmov.cli.main(ARG...)``, writes the per-layer
totals and spans to TRACE_FILE and exits with the code ``main`` returned.
Standard output is the CLI's own, byte for byte.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    import coxmov.cli
    tracer = Tracer().install()
    tracer.request = 0
    tracer.enabled = True
    try:
        return coxmov.cli.main(argv)
    finally:
        tracer.enabled = False
        sys.stdout.flush()
        tracer.write(trace_file)


if __name__ == "__main__":
    raise SystemExit(main())
