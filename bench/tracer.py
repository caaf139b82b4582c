"""Per-layer tracing of the gon package from outside it.

The tracer replaces each public function of a gon module with a wrapper that
records calls and self time. Modules import each other's names directly
(``from .minima import successive_minima``), so a function is replaced in
every gon module namespace that holds it, not only where it is defined.
Spans are kept in memory; self time is a span's duration minus the time of
the traced spans nested inside it. A call made while the same function is
already running (``lp_exact`` recurses for minimisation) is counted once, as
part of the outer call.
"""

from __future__ import annotations

import sys
import time

PACKAGE = "gon"

# the layers, in the order the package builds them up
LAYERS = ("exactmath", "body", "lattice", "minima", "counting", "siegel", "verify",
          "schemas", "cli")

# per-element arithmetic helpers: called per coordinate, so wrapping them would
# cost more than the work they do; their time stays in their callers' self time
UNTRACED = {
    "exactmath": {"rat", "rat_str", "vec", "dot", "vsub", "vadd", "vscale", "vavg", "iroot",
                  "quad_or_rat", "solve_square", "affine_rank"},
}

# methods traced on classes, by layer
METHODS = {"body": {"Body": ("volume", "surface_area")}}

# results whose size is a work count: name -> (measure, size of the result)
WORK = {
    "minima.polytope_integer_points": ("points", len),
    "minima.quadratic_integer_points": ("points", len),
    "siegel.scan_constants": ("rows", lambda rep: len(rep.records)),
}

_WALKS = ("minima.polytope_integer_points", "minima.quadratic_integer_points")


class Tracer:
    """``install`` puts the wrappers in place and ``remove`` restores the originals."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.work = {}
        self.points_in_minima = 0
        self.minima_found = 0
        self._minima_depth = 0
        self._stack = []
        self._patches = []

    # -- recording --------------------------------------------------------------

    def _wrap(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls[name] = 0
        self_s[name] = 0.0
        work = WORK.get(name)
        if work:
            self.work[f"{name}.{work[0]}"] = 0
        is_walk = name in _WALKS
        is_minima = name == "minima.successive_minima"
        depth = [0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                depth[0] = 0
                calls[name] += 1
                self_s[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if work:
                size = work[1](out)
                self.work[f"{name}.{work[0]}"] += size
                if is_walk and self._minima_depth:
                    self.points_in_minima += size
            if is_minima:
                self.minima_found += len(out.values)
            return out

        if is_minima:
            def traced_minima(*args, **kwargs):
                self._minima_depth += 1
                try:
                    return traced(*args, **kwargs)
                finally:
                    self._minima_depth -= 1
            traced_minima.__wrapped__ = fn
            return traced_minima
        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------------

    def install(self):
        mods = {k: v for k, v in sys.modules.items()
                if v is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))}
        replace = {}
        for layer in LAYERS:
            mod = mods[f"{PACKAGE}.{layer}"]
            skip = UNTRACED.get(layer, set())
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or attr in skip or isinstance(obj, type)
                        or not callable(obj) or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                replace[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", orig))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def remove(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- reporting ------------------------------------------------------------------

    def metrics(self) -> dict:
        """Flat name -> value map: per function, per layer, and derived ratios."""
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.work)
        for layer in LAYERS:
            names = [k for k in self.calls if k.startswith(layer + ".")]
            out[f"{layer}.calls"] = sum(self.calls[k] for k in names)
            out[f"{layer}.self_s"] = sum(self.self_s[k] for k in names)
        out["minima.points_per_minimum"] = (
            self.points_in_minima / self.minima_found if self.minima_found else 0.0)
        return out
