"""The coxmov benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload tiling --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0

Each run builds its workload's request mix from ``--seed``, times the
set-up, then replays the mix, one request at a time, until ``--seconds``
have passed (and at least three times).  Every
answer is checked: exact invariants for any seed, and for the default seed
a sha256 against ``bench/digests.json``.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates traced and untraced replays
and prints the per-layer metrics and the tracing overhead.  The metric
names and units are those of ``BENCHMARK.json``.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The full result, with provenance, goes to ``.bench_out/``.

``--workload all`` runs the two workloads, each in its own fresh process,
since peak resident memory is a per-process high-water mark.

Exit codes: 0 when every answer is correct, 1 when some answer is wrong,
2 when this checkout cannot be measured (no ``src/coxmov``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import deque
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 0
SETUP_RUNS = 15
MIN_REPLAYS = 3

# counters a traced run must see non-zero, per workload (coxeter.build_s
# comes from the set-up of every workload)
NONZERO = {
    "tiling": ("linalg.matmul_calls", "linalg.self_s", "bir.nf_mul_calls",
               "atlas.self_s", "atlas.classify_steps", "atlas.max_coeff_bits",
               "symmetric.self_s", "symmetric.cone_yield"),
    "cli": ("linalg.inverse_s", "coxeter.quadric_s", "jsonio.self_s",
            "jsonio.bytes_out", "svgplot.self_s", "svgplot.bytes_out",
            "checks.self_s", "cli.startup_s", "cli.main_s",
            "bir.words_checked", "exact.quadext_calls", "exact.self_s",
            "exact.squarefree_s", "atlas.patch_yield"),
}
# counters that must stay zero inside the requests of a workload
IN_PROCESS_ZERO = ("jsonio.self_s", "jsonio.bytes_out", "svgplot.self_s",
                   "svgplot.bytes_out", "checks.self_s", "cli.startup_s")
ZERO = {
    "tiling": ("exact.quadext_calls",) + IN_PROCESS_ZERO,
    "cli": (),
}
# the layer whose self time must be the largest within the requests
LARGEST = {"tiling": "linalg"}


def key_hash(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def nearest_rank(sorted_values, pct):
    """The pct-th percentile by nearest rank, and how many samples lie
    beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Runner:
    """Replays one workload's mix and checks every answer."""

    def __init__(self, workload, seed, digests):
        self.wl = workload
        self.seed = seed
        self.digests = digests          # key hash -> sha256, or None
        self.requests = workload.mix(seed)
        self.observed = {}              # key hash -> sha256 seen this run
        self.attempted = 0
        self.failures = []
        self.ctx = None

    def setup(self) -> float:
        from workloads import make_context
        self.ctx = make_context(self.wl, self.requests)
        return self.ctx.setup_s

    def run_mix(self, tracer=None, trace_dir=None):
        """One replay of the mix; returns the request latencies."""
        latencies = []
        queue = deque(self.requests)
        while queue:
            req = queue.popleft()
            rid = len(latencies)
            kwargs = {}
            if trace_dir is not None:
                kwargs["trace_file"] = trace_dir / f"request-{rid}.json"
            if tracer is not None and trace_dir is None:
                tracer.request = rid
                tracer.enabled = True
            start = perf_counter()
            try:
                result = self.wl.execute(self.ctx, req, **kwargs)
                error = None
            except Exception as exc:  # a failed request, counted below
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
                if trace_dir is not None:
                    self._merge_child(tracer, kwargs["trace_file"], latency)
            latencies.append(latency)
            self.attempted += 1
            if error is None:
                error = self._verify(req, result)
                queue.extendleft(reversed(
                    self.wl.follow_ups(self.ctx, req, result)))
            if error is not None:
                self.failures.append(f"{req.key[:120]}: {error}")
        return latencies

    @staticmethod
    def _merge_child(tracer, trace_file, wall):
        data = json.loads(trace_file.read_text(encoding="utf-8"))
        totals = data["totals"]
        tracer.merge(totals)
        tracer.timers["cli.startup_s"] += wall - totals.get("cli.main_s", 0.0)

    def _verify(self, req, result):
        error = self.wl.check(self.ctx, req, result)
        digest = hashlib.sha256(
            self.wl.document(self.ctx, req, result)).hexdigest()
        kh = key_hash(req.key)
        if self.observed.setdefault(kh, digest) != digest:
            error = error or "result differs from an earlier replay"
        if self.digests is not None:
            want = self.digests.get(kh)
            if want is None and self.seed == DEFAULT_SEED:
                error = error or "no committed digest for this request"
            elif want is not None and want != digest:
                error = error or f"digest {digest[:12]} != committed {want[:12]}"
        return error


# -- set-up times -----------------------------------------------------------

def setup_probe(runner, workload_name, seed):
    """Seconds of one set-up in a fresh process.  In-process workloads time
    import plus system builds inside the process; ``cli`` times one
    ``coxmov --help`` round trip."""
    from workloads import child_env
    if workload_name == "cli":
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "coxmov.cli", "--help"],
                              env=child_env(), cwd=ROOT, capture_output=True,
                              timeout=60)
        if proc.returncode != 0:
            runner.failures.append(f"--help exited {proc.returncode}")
        return perf_counter() - start
    proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"),
                           workload_name, str(seed)],
                          env=dict(os.environ), cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout)


# -- the two kinds of run ---------------------------------------------------

def measure(runner, name, seconds):
    """Untraced run: the end-to-end metrics.

    Every replay runs the same requests in the same order, and a request's
    latency is the median of its replays.  On a shared host, other tenants
    slow this one down by up to 1.7x, in spells from milliseconds to
    minutes; the median of a request's replays, spread over the whole run,
    varies less from run to run than their fastest, which depends on
    whether the run happened to catch a quiet moment.  The metrics are
    taken over these per-request latencies.

    The set-up probes are spread over the run, between replays, so that
    their median, like the latencies, samples the whole run rather than
    one moment of it.
    """
    first = runner.setup()
    setups = [] if name == "cli" else [first]
    replays = []
    start = perf_counter()
    while len(replays) < MIN_REPLAYS or perf_counter() - start < seconds:
        replays.append(runner.run_mix())
        due = math.ceil(SETUP_RUNS * (perf_counter() - start) / seconds)
        while len(setups) < min(due, SETUP_RUNS):
            setups.append(setup_probe(runner, name, runner.seed))
    while len(setups) < SETUP_RUNS:
        setups.append(setup_probe(runner, name, runner.seed))
    latencies = sorted(statistics.median(col) for col in zip(*replays))
    tail = runner.wl.tail_percentile
    tail_value, beyond = nearest_rank(latencies, tail)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli"
                               else resource.RUSAGE_SELF)
    values = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    info = {"replays": len(replays), "requests_per_mix": len(latencies),
            "tail_percentile": tail, "requests_beyond_tail": beyond,
            "setup_runs_s": setups}
    errors = [] if beyond >= 10 else [
        f"only {beyond} requests beyond p{tail}, fewer than ten"]
    return values, info, errors


def trace(runner, name, seconds):
    """Traced run: per-layer totals for set-up plus one mix, averaged over
    the traced replays, and the tracing overhead against untraced replays
    of the same mix.  The wrappers are taken out for the untraced replays,
    so those run the program as ``--trace 0`` does."""
    import coxmov  # noqa: F401  (the import itself is not traced)
    from tracer import Tracer
    tracer = Tracer()
    trace_dir = None
    if name == "cli":
        runner.setup()
        trace_dir = OUT / f"trace-cli-seed{runner.seed}"
        trace_dir.mkdir(parents=True, exist_ok=True)
    else:
        tracer.install()
        tracer.enabled = True
        runner.setup()
        tracer.enabled = False
        tracer.uninstall()
    setup_totals = tracer.totals()
    tracer.reset_totals()
    traced = untraced = 0.0
    requests = pairs = 0
    start = perf_counter()
    while True:
        if trace_dir is None:
            tracer.install()
        lat = runner.run_mix(tracer, trace_dir)
        tracer.uninstall()
        traced += sum(lat)
        requests += len(lat)
        untraced += sum(runner.run_mix())
        pairs += 1
        if perf_counter() - start >= seconds:
            break
    req_totals = tracer.totals()
    totals = dict(setup_totals)
    for key, value in req_totals.items():
        if key == "atlas.max_coeff_bits":
            totals[key] = max(totals.get(key, 0), value)
        else:
            totals[key] = totals.get(key, 0) + value / pairs
    values = per_layer_values(totals)
    values["trace.ops_per_s_traced"] = requests / traced
    values["trace.ops_per_s_untraced"] = requests / untraced
    values["trace.overhead"] = traced / untraced
    errors = self_check(name, req_totals)
    if not values.get("coxeter.build_s"):
        errors.append("coxeter.build_s is zero")
    OUT.mkdir(exist_ok=True)
    if trace_dir is None:
        tracer.write(OUT / f"spans-{name}-seed{runner.seed}.json",
                     workload=name, seed=runner.seed)
    info = {"traced_mixes": pairs, "requests_per_mix": requests // pairs,
            "request_totals": req_totals, "setup_totals": setup_totals}
    return values, info, errors


def per_layer_values(totals):
    def ratio(num, den):
        return totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
    values = dict(totals)
    values["atlas.patch_yield"] = ratio("atlas.patches_kept",
                                        "atlas.patches_tried")
    values["symmetric.cone_yield"] = ratio("symmetric.cones_kept",
                                           "symmetric.cones_tried")
    return values


def self_check(name, req_totals):
    """The split the workloads were chosen for, read from the trace."""
    values = per_layer_values(req_totals)
    errors = [f"{k} is zero on {name}" for k in NONZERO[name]
              if not values.get(k)]
    errors += [f"{k} is {values[k]} on {name}, expected 0"
               for k in ZERO[name] if values.get(k)]
    if name in LARGEST:
        selfs = {k: v for k, v in values.items() if k.endswith(".self_s")}
        top = max(selfs, key=selfs.get)
        if top != LARGEST[name] + ".self_s":
            errors.append(f"{top} is the largest self time on {name}, "
                          f"expected {LARGEST[name]}.self_s")
    return errors


# -- reporting --------------------------------------------------------------

def provenance(seed, budget_env):
    import coxmov
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"coxmov_file": coxmov.__file__, "git_commit": commit,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "seed": seed,
            "COXMOV_WORD_BUDGET_unset": budget_env is None}


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report(name, seed, trace_flag, values, info, runner, errors, budget_env):
    spec = load_spec()
    listed = spec["per_layer"] if trace_flag else spec["end_to_end"]
    metrics = {}
    for entry in listed:
        value = values.get(entry["name"], 0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    failed = len(runner.failures)
    failure_rate = failed / runner.attempted
    correct = failed == 0 and not errors
    prov = provenance(seed, budget_env)
    print(f"workload {name}  seed {seed}  trace {trace_flag}  "
          f"attempted {runner.attempted}  failed {failed}")
    print("  " + "  ".join(f"{k} {v}" for k, v in info.items()
                           if isinstance(v, (int, float))))
    for metric, item in metrics.items():
        print(f"  {metric:28s} {item['value']:>16.6g} {item['unit']}")
    if not trace_flag:
        print(f"  {'failure_rate':28s} {failure_rate:>16.6g} ratio")
    for msg in (runner.failures[:10] + errors):
        print(f"FAIL {msg}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "trace": trace_flag, "correct": correct,
              "attempted": runner.attempted, "failed": failed,
              "failure_rate": failure_rate, "metrics": metrics, "info": info,
              "failures": runner.failures[:100], "self_check": errors,
              "provenance": prov}
    (OUT / f"result-{name}-seed{seed}-trace{trace_flag}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    print("  provenance " + json.dumps(prov))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own fresh process."""
    from workloads import WORKLOADS
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False}
        combined["correct"] &= bool(result.get("correct"))
        combined["attempted"] += result.get("attempted", 0)
        combined["failed"] += result.get("failed", 0)
        for metric, item in result.get("metrics", {}).items():
            combined["metrics"][f"{name}.{metric}"] = item
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def record_digests(runner, name):
    """Write the digests of one mix of the default seed into the list."""
    runner.setup()
    runner.run_mix()
    if runner.failures:
        print("\n".join(runner.failures[:10]), file=sys.stderr)
        return 1
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    data["seed"] = DEFAULT_SEED
    data.setdefault("workloads", {})[name] = dict(sorted(runner.observed.items()))
    DIGESTS.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    print(f"{name}: {len(runner.observed)} digests")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tiling", "cli", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="write the default seed's digests and exit")
    args = parser.parse_args(argv)

    if not (SRC / "coxmov" / "__init__.py").is_file():
        print(f"no coxmov sources under {SRC}: nothing to measure",
              file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("BENCHMARK.json is missing", file=sys.stderr)
        return 2
    budget_env = os.environ.pop("COXMOV_WORD_BUDGET", None)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    if args.record_digests:
        return record_digests(Runner(workload, DEFAULT_SEED, None),
                              args.workload)
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    runner = Runner(workload, args.seed,
                    digests["workloads"].get(args.workload, {}))
    if args.trace:
        values, info, errors = trace(runner, args.workload, args.seconds)
    else:
        values, info, errors = measure(runner, args.workload, args.seconds)
    import coxmov
    if Path(coxmov.__file__).resolve().parent != (SRC / "coxmov").resolve():
        errors.append(f"measured {coxmov.__file__}, not this checkout")
    return report(args.workload, args.seed, args.trace, values, info, runner,
                  errors, budget_env)


if __name__ == "__main__":
    sys.exit(main())
