"""Layer spans recorded from outside the coxmov package.

``Tracer.install`` replaces the public entry points of every coxmov module
with timing wrappers.  A function is replaced under every module attribute
that is bound to it, because ``atlas``, ``cli``, ``checks``, ``symmetric``
and ``jsonio`` import names with ``from .x import ...`` and look them up in
their own namespace; patching the defining module alone would miss those
calls.  Methods are replaced on their classes.  ``Tracer.uninstall`` puts
the original callables back.

A span is recorded only where a call crosses from one layer into another
(or for the few functions whose own time is a metric, such as
``squarefree_decompose``); a call that stays inside the caller's layer runs
through unrecorded.  The operation counters are the exception: every
``QuadExt`` operation, every ``Matrix`` product with a ``Matrix`` operand
and every normal-form product is counted, whichever layer makes it, so
the products inside ``Matrix.__pow__`` count one by one.  A layer's self
time is its span time minus the time covered by its child spans.  Spans
are kept in memory, capped at ``MAX_SPANS``, and written out by ``write``;
the per-layer totals are accumulated for every span, stored or not.

Value types that the hot loops touch per element (``Permutation``,
``PsiWord`` and the result dataclasses) are not wrapped: their calls are
part of the layer that makes them.
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("exact", "linalg", "coxeter", "bir", "atlas", "symmetric",
          "jsonio", "svgplot", "checks", "cli")

MAX_SPANS = 200_000

# methods wrapped per class; the classes' other members are plain data
CLASS_METHODS = {
    "exact.QuadExt": ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                      "__rmul__", "__neg__", "__truediv__", "__rtruediv__",
                      "__pow__", "__eq__", "__lt__", "__le__", "__gt__",
                      "__ge__", "__bool__", "__float__", "inverse",
                      "conjugate", "sign", "as_fraction"),
    "linalg.Matrix": ("__mul__", "__rmul__", "__add__", "__sub__", "__neg__",
                      "__pow__", "__eq__", "transpose", "column", "columns",
                      "det", "inverse", "charpoly", "signature", "map",
                      "is_symmetric", "identity", "zeros", "from_columns"),
    "coxeter.CoxeterSystem": ("tau", "t", "quadric_matrix",
                              "gram_eigen_check"),
    "bir.GroupElementNF": ("__mul__", "inverse", "matrix"),
    "symmetric.SymWord": ("from_letters", "matrix", "spell"),
}

# functions whose every call is a span, even from inside their own layer,
# and the timer each one feeds
TIMERS = {
    "exact.squarefree_decompose": "exact.squarefree_s",
    "linalg.Matrix.inverse": "linalg.inverse_s",
    "linalg.Matrix.signature": "linalg.inverse_s",
    "coxeter.build_system": "coxeter.build_s",
    "coxeter.CoxeterSystem.quadric_matrix": "coxeter.quadric_s",
    "cli.main": "cli.main_s",
}


def _bits(x) -> int:
    """Largest bit length in an int, Fraction, QuadExt or nested tuple."""
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, (tuple, list)):
        return max((_bits(e) for e in x), default=0)
    if hasattr(x, "numerator"):
        return max(_bits(x.numerator), _bits(x.denominator))
    if hasattr(x, "b") and hasattr(x, "d"):
        return max(_bits(x.a), _bits(x.b), _bits(x.d))
    return 0


class Tracer:
    """Span recorder plus per-layer totals for one process."""

    def __init__(self):
        self.enabled = False
        self.request = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        # open spans: [layer, child_time, span_index]
        self._stack: list[list] = [["", 0.0, -1]]
        self.self_s = defaultdict(float)
        self.timers = defaultdict(float)
        self.counts = defaultdict(int)
        # (owner, attribute, original) of every replaced callable
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def reset_totals(self):
        self.self_s.clear()
        self.timers.clear()
        self.counts.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, qualname: str, on_result=None):
        layer = qualname.split(".", 1)[0]
        name_id = self._name_id(qualname)
        timer = TIMERS.get(qualname)
        is_matmul = qualname == "linalg.Matrix.__mul__"
        matrix_cls = fn.__globals__.get("Matrix") if is_matmul else None
        is_nf_mul = qualname == "bir.GroupElementNF.__mul__"
        is_quadext = qualname.startswith("exact.QuadExt.")
        tracer = self
        stack = self._stack
        signature = inspect.signature(fn) if on_result is not None else None

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if is_nf_mul:
                tracer.counts["bir.nf_mul_calls"] += 1
            elif is_quadext:
                tracer.counts["exact.quadext_calls"] += 1
            elif is_matmul and isinstance(args[1], matrix_cls):
                tracer.counts["linalg.matmul_calls"] += 1
            if stack[-1][0] == layer and timer is None:
                return fn(*args, **kwargs)
            # the slot is taken at the start, so child spans can name it
            frame = [layer, 0.0, -1]
            if len(tracer.spans) < MAX_SPANS:
                frame[2] = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                parent = stack[-1]
                parent[1] += dur
                tracer.self_s[layer] += dur - frame[1]
                if parent[0] != layer:
                    tracer.counts[layer + ".calls"] += 1
                if timer is not None:
                    tracer.timers[timer] += dur
                if frame[2] >= 0:
                    tracer.spans[frame[2]] = (name_id, start, end, parent[2],
                                              tracer.request)
                else:
                    tracer.dropped += 1
            if on_result is not None:
                on_result(tracer, signature.bind(*args, **kwargs).arguments,
                          result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public coxmov entry point; returns self."""
        import importlib
        mods = {name: importlib.import_module(f"coxmov.{name}")
                for name in LAYERS}
        pkg = importlib.import_module("coxmov")
        targets = list(mods.values()) + [pkg]
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                qual = f"{layer}.{attr}"
                wrapped = self._wrap_callable(obj, qual, ON_RESULT.get(qual))
                for target in targets:
                    for tattr, tobj in list(vars(target).items()):
                        if tobj is obj:
                            self._patch(target, tattr, wrapped)
        for cls_qual, methods in CLASS_METHODS.items():
            layer, cls_name = cls_qual.split(".")
            cls = getattr(mods[layer], cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                qual = f"{cls_qual}.{meth}"
                if isinstance(raw, staticmethod):
                    self._patch(cls, meth, staticmethod(
                        self._wrap(raw.__func__, qual)))
                else:
                    self._patch(cls, meth, self._wrap(raw, qual))
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        """Put back every callable ``install`` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap_callable(self, fn, qual, on_result):
        if not inspect.isgeneratorfunction(fn):
            return self._wrap(fn, qual, on_result)
        # a generator's work happens in next(), so each resumption is a span
        step = self._wrap(lambda it: next(it, _DONE), qual)

        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                item = step(it)
                if item is _DONE:
                    return
                yield item

        gen_wrapper.__wrapped__ = fn
        return gen_wrapper

    # -- reporting ---------------------------------------------------------

    def write(self, path, **extra):
        """Write the totals, the span names and the stored spans as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "totals": self.totals(),
                       "fields": ["name", "start", "end", "parent", "request"],
                       "names": self.names, "dropped": self.dropped,
                       "spans": self.spans}, fh)

    def merge(self, totals: dict):
        """Add the totals of another process (a traced CLI child)."""
        for key, value in totals.items():
            if key.endswith(".self_s"):
                self.self_s[key[:-len(".self_s")]] += value
            elif key == "atlas.max_coeff_bits":
                self.counts[key] = max(self.counts[key], value)
            elif isinstance(value, float):
                self.timers[key] += value
            else:
                self.counts[key] += value

    def totals(self) -> dict:
        out = {f"{layer}.self_s": self.self_s.get(layer, 0.0)
               for layer in LAYERS}
        out.update(self.timers)
        out.update(self.counts)
        return out


_DONE = object()


# -- counters read from results ----------------------------------------------

def _max_bits(tracer, value):
    key = "atlas.max_coeff_bits"
    tracer.counts[key] = max(tracer.counts[key], _bits(value))


def _on_chambers(tracer, call, result):
    _max_bits(tracer, [c.rays for c in result])


def _on_classify(tracer, call, result):
    tracer.counts["atlas.classify_steps"] += len(result.t_word)
    _max_bits(tracer, result.nef_coords)


def _on_patches(tracer, call, result):
    m, depth = call["sys"].m, call["depth"]
    words = 1 + m * sum((m - 1) ** k for k in range(depth))
    tracer.counts["atlas.patches_kept"] += len(result)
    tracer.counts["atlas.patches_tried"] += words * m * (m - 1) // 2
    _max_bits(tracer, [(p.apex, p.base_rays) for p in result])


def _sym_word_count(depth):
    # reduced words over {a, b, b^-1}: 3 * 2^(k-1) of each length k >= 1
    return 1 + sum(3 * 2 ** (k - 1) for k in range(1, depth + 1))


def _on_sym(tracer, call, result):
    tracer.counts["symmetric.cones_kept"] += len(result)
    tracer.counts["symmetric.cones_tried"] += _sym_word_count(call["depth"])


def _on_psef(tracer, call, result):
    # five pieces (two cones, three segments) per word
    tracer.counts["symmetric.cones_kept"] += len(result)
    tracer.counts["symmetric.cones_tried"] += 5 * _sym_word_count(call["depth"])


def _on_free(tracer, call, result):
    tracer.counts["bir.words_checked"] += result.words_checked


def _on_text(layer):
    def hook(tracer, call, result):
        tracer.counts[f"{layer}.bytes_out"] += len(result.encode("utf-8"))
    return hook


ON_RESULT = {
    "atlas.enumerate_chambers": _on_chambers,
    "atlas.classify": _on_classify,
    "atlas.boundary_patches": _on_patches,
    "symmetric.sym_enumerate": _on_sym,
    "symmetric.psef_patches": _on_psef,
    "bir.verify_free": _on_free,
    "jsonio.dumps": _on_text("jsonio"),
    "svgplot.render_chambers": _on_text("svgplot"),
    "svgplot.render_boundary": _on_text("svgplot"),
    "svgplot.render_symmetric_movable": _on_text("svgplot"),
    "svgplot.render_symmetric_psef": _on_text("svgplot"),
}
