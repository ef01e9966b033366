"""Time one set-up in a fresh interpreter and print the seconds.

    python3 bench/setup_probe.py WORKLOAD SEED

The set-up is what a library user pays before the first request: import
``coxmov`` (this checkout's ``src``) and build the ``CoxeterSystem`` of every
(n, m) the workload's mix uses.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, Context  # noqa: E402

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]]
    requests = workload.mix(int(sys.argv[2]))
    print(repr(Context(workload.systems(requests)).setup_s))
