"""Self-test of the benchmark on a tiny load.

    python3 bench/selftest.py

- Every workload, untraced and traced, with ``--seconds 1``: the run must
  exit 0, report a correct result and print every metric of
  ``BENCHMARK.json`` with its unit, both in the human-readable lines and in
  the final JSON line.
- A copy of the checkout whose digest list has one tiling digest changed
  must exit 1 on the tiling workload and report ``correct: false``.
- A copy of ``BENCHMARK.json`` and ``bench/`` alone, without the coxmov
  sources, must exit with a code other than 0 and print no result.

Exits 0 when all of these hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out" / "selftest"
RUN = [sys.executable, str(BENCH / "run.py")]


def run(args, cwd=ROOT, script=None):
    cmd = ([sys.executable, str(script)] if script else RUN) + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_metrics(workload, trace, spec, problems):
    proc = run(["--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace)])
    result = last_json(proc.stdout)
    label = f"{workload} trace {trace}"
    if proc.returncode != 0 or not result or not result.get("correct"):
        problems.append(f"{label}: exit {proc.returncode}, "
                        f"result {result}, stderr {proc.stderr[-500:]}")
        return
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in listed}:
        problems.append(f"{label}: metrics {sorted(result['metrics'])}")
    for entry in listed:
        item = result["metrics"].get(entry["name"], {})
        if item.get("unit") != entry["unit"] or \
                not isinstance(item.get("value"), (int, float)):
            problems.append(f"{label}: {entry['name']} printed as {item}")
        if not any(line.split()[:1] == [entry["name"]]
                   and line.split()[-1] == entry["unit"]
                   for line in proc.stdout.splitlines()):
            problems.append(f"{label}: no line for {entry['name']}")
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append(f"{label}: attempted {result['attempted']}, "
                        f"failed {result['failed']}")


def copy_tree(name, with_src):
    """A scratch copy of ``BENCHMARK.json`` and ``bench/``, and of ``src/``
    when ``with_src``."""
    tree = OUT / name
    shutil.rmtree(tree, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, tree / "bench", ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", tree / "src", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    return tree


def run_tiling(tree):
    return run(["--workload", "tiling", "--seed", "0", "--seconds", "1",
                "--trace", "0"], cwd=tree, script=tree / "bench" / "run.py")


def check_tampered(problems):
    tree = copy_tree("tampered", with_src=True)
    path = tree / "bench" / "digests.json"
    digests = json.loads(path.read_text())
    listed = digests["workloads"]["tiling"]
    listed[sorted(listed)[0]] = "0" * 64
    path.write_text(json.dumps(digests))
    proc = run_tiling(tree)
    result = last_json(proc.stdout)
    if proc.returncode != 1 or not result or result.get("correct") \
            or result.get("failed", 0) < 1:
        problems.append(f"tampered digest: exit {proc.returncode}, "
                        f"result {result}")
    shutil.rmtree(tree, ignore_errors=True)


def check_bare(problems):
    tree = copy_tree("bare", with_src=False)
    proc = run_tiling(tree)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        problems.append(f"bare copy: exit {proc.returncode}, "
                        f"stdout {proc.stdout[-300:]}")
    shutil.rmtree(tree, ignore_errors=True)


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_metrics(workload, trace, spec, problems)
            print(f"checked {workload} trace {trace}", flush=True)
    check_tampered(problems)
    check_bare(problems)
    for msg in problems:
        print("FAIL " + msg)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
