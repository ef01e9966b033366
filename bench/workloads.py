"""Seeded request mixes for the two benchmark workloads, with their checks.

A workload is a *mix*: a list of requests built from the seed, replayed
whole until the run has lasted long enough.  Replaying the same mix keeps
every replay equally costly, so a run's figures do not depend on where the
clock stopped.  Requests can spawn follow-up requests from their results
(``classify`` of each enumerated chamber); those are derived from the seed
and the exact result, so they are the same on every replay.

The requests that cost the most take the same arguments for every seed:
the cost of ``enumerate_chambers`` changes by up to 1.5x with n, so a
seeded n would make runs of different seeds measure different work.  The
seed picks the many light requests (classified points, CLI arguments) and
the order of the mix.

Each workload supplies:

- ``mix(seed)``: the static requests;
- ``systems(requests)``: the (n, m) pairs whose ``CoxeterSystem`` the
  set-up builds;
- ``execute(ctx, req)``: the timed call;
- ``follow_ups(ctx, req, result)``: requests spawned by a result;
- ``check(ctx, req, result)``: an exact invariant, returning an error
  message or ``None``;
- ``document(ctx, req, result)``: the bytes whose sha256 is compared with
  the committed digest list.

Nothing here imports ``coxmov`` at module level: the set-up time includes
that import.  ``ctx`` carries the imported modules and the built systems.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Request:
    kind: str
    args: tuple
    expect: object = None     # data the invariant check compares against

    @property
    def key(self) -> str:
        """Canonical text naming the request in the digest list."""
        return json.dumps([self.kind, self.args], separators=(",", ":"))


class Context:
    """Imported coxmov modules plus the systems built during set-up.

    ``setup_s`` times what a library user pays before the first request:
    ``import coxmov`` and building the systems.  The modules imported after
    it are the benchmark's own needs (``jsonio`` for the digests) or tiny.
    """

    def __init__(self, systems_needed):
        start = perf_counter()
        import coxmov
        self.systems = {nm: coxmov.build_system(*nm) for nm in systems_needed}
        self.setup_s = perf_counter() - start
        from coxmov import atlas, jsonio, symmetric
        self.coxmov, self.atlas = coxmov, atlas
        self.jsonio, self.symmetric = jsonio, symmetric


def _chamber_count(m: int, depth: int) -> int:
    return 1 + m * sum((m - 1) ** k for k in range(depth))


def _interior_point(rays, rng) -> tuple[int, ...]:
    """A seeded strictly positive combination of a chamber's rays."""
    weights = [rng.randint(1, 3) for _ in rays]
    return tuple(sum(w * r[k] for w, r in zip(weights, rays))
                 for k in range(len(rays[0])))


# ---------------------------------------------------------------------------
# tiling: matrix products in linalg, no quadratic-field arithmetic


class Tiling:
    name = "tiling"
    tail_percentile = 99.0
    # (n, m, depth): 382, 485 and 426 chambers, one system of each n
    SHAPES = ((2, 3, 7), (3, 4, 5), (4, 5, 4))

    def mix(self, seed):
        rng = random.Random(f"tiling/{seed}")
        reqs = [Request("enumerate_chambers", shape) for shape in self.SHAPES]
        reqs += [Request("sym_enumerate", (5,)), Request("sym_enumerate", (7,)),
                 Request("psef_patches", (6,))]
        rng.shuffle(reqs)
        return reqs

    def systems(self, requests):
        return sorted({r.args[:2] for r in requests
                       if r.kind == "enumerate_chambers"})

    def execute(self, ctx, req):
        if req.kind == "enumerate_chambers":
            n, m, depth = req.args
            return ctx.atlas.enumerate_chambers(ctx.systems[(n, m)], depth)
        if req.kind == "classify":
            n, m, coords = req.args
            return ctx.atlas.classify(ctx.systems[(n, m)], coords)
        if req.kind == "sym_enumerate":
            return ctx.symmetric.sym_enumerate(*req.args)
        return ctx.symmetric.psef_patches(*req.args)

    def follow_ups(self, ctx, req, result):
        if req.kind != "enumerate_chambers":
            return []
        n, m, _ = req.args
        rng = random.Random(req.key)
        return [Request("classify", (n, m, _interior_point(ch.rays, rng)),
                        expect=ch.word) for ch in result]

    def check(self, ctx, req, result):
        if req.kind == "enumerate_chambers":
            n, m, depth = req.args
            want = _chamber_count(m, depth)
            if len(result) != want:
                return f"{len(result)} chambers, expected {want}"
        elif req.kind == "classify":
            if result.t_word != req.expect:
                return f"classify gave {result.t_word}, chamber is {req.expect}"
        elif req.kind == "sym_enumerate":
            want = 3 * 2 ** req.args[0] - 2
            if len(result) != want:
                return f"{len(result)} cones, expected {want}"
        else:
            want = 5 * 2 ** (req.args[0] + 1) - 5
            if len(result) != want:
                return f"{len(result)} patches, expected {want}"
        return None

    def document(self, ctx, req, result):
        j = ctx.jsonio
        if req.kind == "enumerate_chambers":
            n, m, depth = req.args
            doc = j.chambers_document(ctx.systems[(n, m)], depth, result)
        elif req.kind == "classify":
            n, m, coords = req.args
            doc = j.classify_document(ctx.systems[(n, m)], coords, result)
        elif req.kind == "sym_enumerate":
            doc = j.symmetric_document(req.args[0], "movable", result)
        else:
            doc = j.symmetric_document(req.args[0], "psef", result)
        return j.dumps(doc).encode()


# ---------------------------------------------------------------------------
# cli: one `python -m coxmov.cli` process per request


def child_env() -> dict:
    """Environment for coxmov children: this checkout's src first."""
    env = dict(os.environ)
    env.pop("COXMOV_WORD_BUDGET", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


# exit code of `classify` for a class outside the tiled cone
EXIT_OUTSIDE = 3


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: bytes


class Cli:
    name = "cli"
    tail_percentile = 75.0

    def mix(self, seed):
        """40 light commands, whose time is mostly interpreter start-up and
        import, plus two heavy ones: ``system --m 42`` (Gauss-Jordan inverse
        and signature) and ``verify --suite all``."""
        rng = random.Random(f"cli/{seed}")

        def n_any():
            return rng.choice((2, 3, 4))

        def n_apex():
            return rng.choice((3, 4, 5, 6))

        argvs = [("system", "--n", 3, "--m", 42),
                 ("verify", "--suite", "all")]
        argvs += [("system", "--n", n_any(), "--m", rng.randint(6, 14))
                  for _ in range(4)]
        for m, depths in ((3, (4, 5)), (3, (4, 5)), (4, (2, 3)), (4, (2, 3)),
                          (5, (2,)), (5, (2,))):
            argvs.append(("chambers", "--n", n_any(), "--m", m,
                          "--depth", rng.choice(depths)))
        argvs += [("chambers", "--n", n_any(), "--m", 3, "--depth",
                   rng.choice((3, 4)), "--format", "svg") for _ in range(3)]
        for m, depth in ((3, 1), (3, 2), (3, 2), (4, 1)):
            argvs.append(("boundary", "--n", n_apex(), "--m", m,
                          "--depth", depth))
        argvs += [("boundary", "--n", n_apex(), "--m", 3, "--depth",
                   rng.choice((1, 2)), "--format", "svg") for _ in range(2)]
        for layer in ("movable", "psef"):
            argvs.append(("symmetric", "--layer", layer, "--depth",
                          rng.choice((3, 4))))
            argvs.append(("symmetric", "--layer", layer, "--depth",
                          rng.choice((2, 3)), "--format", "svg"))
        argvs += [("verify", "--suite", suite)
                  for suite in ("free", "tiling", "boundary", "symmetric")]
        reqs = [Request("cli", argv) for argv in argvs]
        for m in (3, 3, 3, 3, 4, 4, 4, 4, 5, 5):
            word = [rng.randint(1, m)]
            for _ in range(rng.randint(2, 4)):
                word.append(rng.choice([k for k in range(1, m + 1)
                                        if k != word[-1]]))
            reqs.append(Request("cli", ("classify", "--n", rng.choice((2, 3)),
                                        "--m", m, "--class", word),
                                expect=tuple(word)))
        # negative coordinate sum with a negative coordinate: outside the
        # tiled cone, so classify must exit with code 3
        for _ in range(3):
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            outside = [-a, -b, rng.randint(1, a + b - 1)]
            reqs.append(Request("cli", ("classify", "--n", rng.choice((2, 3)),
                                        "--m", 3, "--class", outside),
                                expect=EXIT_OUTSIDE))
        rng.shuffle(reqs)
        return reqs

    def systems(self, requests):
        return []

    @staticmethod
    def argv(ctx, req):
        """The command line.  A classify request inside the cone names a
        t-word; its class is a seeded interior point of that word's chamber,
        so the round trip must give the word back."""
        args = list(req.args)
        if args[0] == "classify":
            n, m, target = args[2], args[4], args[6]
            if req.expect != EXIT_OUTSIDE:
                mat = ctx.atlas.word_matrix(ctx.coxmov.build_system(n, m),
                                            target)
                rays = [ctx.coxmov.primitive_int_vector(c)
                        for c in mat.columns()]
                target = _interior_point(rays, random.Random(req.key))
            args[5:7] = ["--class=" + ",".join(str(x) for x in target)]
        return [str(a) for a in args]

    def execute(self, ctx, req, trace_file=None):
        argv = ctx.cli_argv[req.key]
        if trace_file is None:
            cmd = [sys.executable, "-m", "coxmov.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "cli_child.py"),
                   str(trace_file), *argv]
        proc = subprocess.run(cmd, env=ctx.env, cwd=ROOT, capture_output=True,
                              timeout=120)
        return CliResult(proc.returncode, proc.stdout)

    def follow_ups(self, ctx, req, result):
        return []

    def check(self, ctx, req, result):
        want_code = EXIT_OUTSIDE if req.expect == EXIT_OUTSIDE else 0
        if result.code != want_code:
            return f"exit code {result.code}, expected {want_code}"
        if want_code == EXIT_OUTSIDE:
            return None
        if "svg" in req.args:
            import xml.etree.ElementTree as ET
            try:
                root = ET.fromstring(result.stdout)
            except ET.ParseError as exc:
                return f"svg does not parse: {exc}"
            if not root.tag.endswith("svg"):
                return f"svg root is {root.tag}"
            return None
        try:
            doc = json.loads(result.stdout)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        errors = sorted(ctx.validator.iter_errors(doc), key=str)
        if errors:
            return f"schema: {errors[0].message}"
        cmd = req.args[0]
        if cmd == "chambers":
            depth, m = req.args[6], req.args[4]
            if doc["count"] != _chamber_count(m, depth):
                return f"{doc['count']} chambers, expected " \
                       f"{_chamber_count(m, depth)}"
        elif cmd == "classify":
            if tuple(doc["result"]["t_word"]) != req.expect:
                return f"classify gave {doc['result']['t_word']}, " \
                       f"chamber is {list(req.expect)}"
        elif cmd == "verify" and not doc.get("passed"):
            return "verify reported a failed check"
        return None

    def document(self, ctx, req, result):
        return result.stdout + b"\nexit=%d\n" % result.code


WORKLOADS = {w.name: w for w in (Tiling(), Cli())}


def make_context(workload, requests):
    """The set-up: import coxmov and build every system the mix uses."""
    ctx = Context(workload.systems(requests))
    if workload.name == "cli":
        import jsonschema
        schema = json.loads((ROOT / "schema" / "coxmov.schema.json")
                            .read_text(encoding="utf-8"))
        ctx.validator = jsonschema.validators.validator_for(schema)(schema)
        ctx.env = child_env()
        ctx.cli_argv = {r.key: Cli.argv(ctx, r) for r in requests}
    return ctx
