"""Command-line surface.

Subcommands: system, chambers, classify, boundary, symmetric, verify.
Output is JSON (schema-versioned) or SVG 1.1 on stdout (or --out FILE);
repeated runs with the same inputs produce byte-identical output.

Exit codes: 0 success, 1 a verify check failed, 2 usage, parameter or
output error (with an error JSON on stderr), 3 domain failure
(classification walk hit its step cap).  Output errors are an --out file
that cannot be opened and a failed write to --out or stdout.  Every
number in the JSON output is exact at any length, and svg output is
drawn on a fixed 900x800 viewBox.
An --out file is checked for writability before any computation; a file
the run created is removed again when the run fails or writes nothing,
and an existing one keeps its bytes unless the output is written whole.
The only environment knob is COXMOV_WORD_BUDGET, the global cap on
enumerated words (default 10^6) for chambers, boundary, symmetric and the
freeness check.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from fractions import Fraction

from . import jsonio
from .atlas import (DEFAULT_MAX_STEPS, ClassificationError,
                    boundary_patches, classify, enumerate_chambers)
from .coxeter import build_system

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# checks.SUITE_NAMES + ("all",), spelled out so that building the parser
# does not import the suites
SUITE_CHOICES = ("identities", "free", "tiling", "boundary", "symmetric", "all")


class CommandError(Exception):
    """A usage, parameter or output error: exit 2."""


def _emit_error(message: str, code: int, **extra):
    payload = {"error": {"code": code, "message": message, **extra}}
    sys.stderr.write(json.dumps(payload) + "\n")


def _open_out(path: str, mode: str):
    return open(path, mode, encoding="utf-8", newline="\n")


def _claim_out(path: str | None) -> bool:
    """Fail now if --out cannot be written; True if this creates the file.

    Append mode leaves an existing file's bytes alone until ``_write``.
    """
    if not path:
        return False
    created = not os.path.lexists(path)
    try:
        _open_out(path, "a").close()
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc.strerror}") from exc
    return created


def _write(text: str, out: str | None):
    """Write ``text`` to the --out file or stdout; a failed write, flush or
    close is a ``CommandError``.

    A regular --out file keeps its bytes until ``text`` is whole: the text
    goes to a new sibling file with the target's mode bits, which then
    replaces the target, and is removed again when the write fails.  A
    device or pipe, or a file whose directory refuses the sibling, is
    written in place.
    """
    try:
        if not out:
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        path = os.path.realpath(out)
        mode = os.stat(path).st_mode
        head, tail = os.path.split(path)
        tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
        try:
            fh = _open_out(tmp, "x") if stat.S_ISREG(mode) else None
        except PermissionError:
            fh = None
        if fh is None:
            with _open_out(out, "w") as fh:
                fh.write(text)
            return
        try:
            with fh:
                os.chmod(tmp, stat.S_IMODE(mode))
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise
    except OSError as exc:
        raise CommandError(
            f"cannot write {out or 'stdout'}: {exc.strerror}") from exc


def _emit(args, document, render):
    """Write ``document()`` as JSON, or with --format svg the picture
    ``render(svgplot, labels)``."""
    if args.format == "json":
        text = jsonio.dumps(document())
    else:
        from . import svgplot
        text = render(svgplot, args.labels)
    _write(text, args.out)


def cmd_system(args) -> int:
    sys_ = build_system(args.n, args.m, enforce_dimension_bound=True)
    _write(jsonio.dumps(jsonio.system_document(sys_)), args.out)
    return EXIT_OK


def cmd_chambers(args) -> int:
    sys_ = build_system(args.n, args.m, enforce_dimension_bound=True)
    chambers = enumerate_chambers(sys_, args.depth)
    _emit(args, lambda: jsonio.chambers_document(sys_, args.depth, chambers),
          lambda plot, labels: plot.render_chambers(sys_, chambers, labels))
    return EXIT_OK


def cmd_classify(args) -> int:
    sys_ = build_system(args.n, args.m, enforce_dimension_bound=True)
    try:
        coords = tuple(Fraction(part) for part in args.divisor.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise CommandError(f"malformed class string: {exc}") from exc
    if len(coords) != args.m:
        raise CommandError(f"expected {args.m} coordinates, got {len(coords)}")
    try:
        result = classify(sys_, coords, max_steps=args.max_steps)
    except ClassificationError as exc:
        _emit_error(f"classification failed: {exc}", EXIT_DOMAIN,
                    steps=exc.steps,
                    last_iterate=[jsonio.frac_to_str(x)
                                  for x in exc.last_iterate])
        return EXIT_DOMAIN
    _write(jsonio.dumps(jsonio.classify_document(sys_, coords, result)),
           args.out)
    return EXIT_OK


def cmd_boundary(args) -> int:
    sys_ = build_system(args.n, args.m, enforce_dimension_bound=True)
    if args.n < 2:
        raise CommandError(
            "the boundary sampling is defined for n >= 2 only; the n = 1 "
            "systems accumulate differently and are not described here")
    patches = boundary_patches(sys_, args.depth)
    _emit(args, lambda: jsonio.boundary_document(sys_, args.depth, patches),
          lambda plot, labels: plot.render_boundary(sys_, patches))
    return EXIT_OK


def cmd_symmetric(args) -> int:
    from . import symmetric
    if args.layer == "movable":
        items = symmetric.sym_enumerate(args.depth)
        picture = "render_symmetric_movable"
    else:
        items = symmetric.psef_patches(args.depth)
        picture = "render_symmetric_psef"
    _emit(args, lambda: jsonio.symmetric_document(args.depth, args.layer, items),
          lambda plot, labels: getattr(plot, picture)(items, labels))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import checks
    report = checks.run_suites(args.suite, args.n, args.m)
    doc = jsonio.document("verify", {"suite": args.suite, "n": args.n,
                                     "m": args.m}, report)
    _write(jsonio.dumps(doc), args.out)
    return EXIT_OK if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxmov",
        description="Exact chamber geometry of movable cones for "
                    "Calabi-Yau complete intersections in products of "
                    "projective spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, depth_default=None):
        p.add_argument("--out", help="write output to a file instead of stdout")
        if depth_default is not None:
            p.add_argument("--depth", type=int, default=depth_default,
                           help="enumeration depth (reduced word length)")

    def add_nm(p):
        p.add_argument("--n", type=int, required=True,
                       help="dimension of each projective-space factor")
        p.add_argument("--m", type=int, required=True,
                       help="number of factors (the Picard rank)")

    def add_render(p):
        p.add_argument("--format", choices=("json", "svg"), default="json")
        p.add_argument("--labels", action="store_true",
                       help="draw ray labels in svg output")

    p = sub.add_parser("system", help="Gram matrix, generators, quadric")
    add_nm(p)
    add_common(p)
    p.set_defaults(func=cmd_system)

    p = sub.add_parser("chambers", help="chamber tiling of the movable cone")
    add_nm(p)
    add_common(p, depth_default=4)
    add_render(p)
    p.set_defaults(func=cmd_chambers)

    p = sub.add_parser("classify", help="locate a divisor class in the tiling")
    add_nm(p)
    p.add_argument("--class", dest="divisor", required=True,
                   help="comma-separated exact rational coordinates")
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("boundary", help="boundary patches of the movable cone")
    add_nm(p)
    add_common(p, depth_default=2)
    add_render(p)
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("symmetric", help="the symmetric (2, 3) case")
    p.add_argument("--layer", choices=("movable", "psef"), default="movable")
    add_common(p, depth_default=4)
    add_render(p)
    p.set_defaults(func=cmd_symmetric)

    p = sub.add_parser("verify", help="run the exact property suites")
    p.add_argument("--suite", choices=SUITE_CHOICES, default="all")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    add_common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def _merge_class_flag(argv: list[str]) -> list[str]:
    # "--class -1,4,5" would be read as an unknown option by argparse;
    # fold the value into the flag so leading minus signs survive
    out, i = [], 0
    while i < len(argv):
        if argv[i] == "--class" and i + 1 < len(argv):
            out.append("--class=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_merge_class_flag(argv))
    created = done = False
    try:
        created = _claim_out(args.out)
        code = args.func(args)
        done = True
        return code
    except (CommandError, ValueError) as exc:
        # ours, or parameter errors from the library, BudgetError included
        _emit_error(str(exc), EXIT_USAGE)
        return EXIT_USAGE
    finally:
        if created and (not done or os.path.getsize(args.out) == 0):
            os.remove(args.out)


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
