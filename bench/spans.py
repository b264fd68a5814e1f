"""Per-layer tracing from outside the library.

The traced run replaces chosen diffmod functions, in every diffmod module
that binds them, with wrappers that record a span (name, start, end,
parent) in memory.  Nothing under src/ changes.  When the run ends the
spans give each layer's call count, inclusive time and self time (its
duration minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (metric prefix, module, attribute); "Class.method" patches the class
LAYERS = [
    ("modules.hom_space", "diffmod.modules", "hom_space"),
    ("modules.hom_chain", "diffmod.modules", "_poly_hom_basis"),
    ("modules.iso_search", "diffmod.modules", "iso_search"),
    ("modules.make_iso_certificate", "diffmod.modules", "make_iso_certificate"),
    ("modules.verify_hom", "diffmod.modules", "verify_hom"),
    ("exactalg.inverse_unimodular", "diffmod.exactalg", "PolyMat.inverse_unimodular"),
    ("exactalg.kernel_basis", "diffmod.exactalg", "kernel_basis"),
    ("exactalg.snf", "diffmod.exactalg", "smith_normal_form_with_inverses"),
    ("exactalg.rat_nullspace", "diffmod.exactalg", "rat_nullspace"),
    ("zeroder.rcf", "diffmod.zeroder", "rcf"),
    ("zeroder.similar", "diffmod.zeroder", "similar"),
    ("cores.core", "diffmod.cores", "core"),
    ("cores.cancel_free", "diffmod.cores", "cancel_free"),
    ("cores.split_trivial_summand", "diffmod.cores", "split_trivial_summand"),
]
# layers whose spans feed a counter but are not reported on their own
COUNT_ONLY = {"cores.split_trivial_summand"}
ITEM = "item"


def _diffmod_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "diffmod" or name.startswith("diffmod."))]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.on = False
        self.counters = Counter()
        self.originals = {}      # layer name -> (owner, attribute, function)
        self.missing = []

    # -- recording --------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(span)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn):
        hook = {"modules.hom_space": self._after_hom_space,
                "modules.hom_chain": self._after_hom_chain,
                "modules.iso_search": self._after_iso_search}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None and self.on:
                hook(args, result)
            return result
        return wrapper

    def _after_hom_space(self, args, result):
        self.counters["hom_space.zero_dim"] += result.dimension == 0

    def _after_hom_chain(self, args, result):
        A, B, cap = args[:3]
        if A.rows * B.rows:
            self.counters["hom_chain.steps"] += cap + max(A.max_degree(), B.max_degree()) + 1

    def _after_iso_search(self, args, result):
        self.counters["iso_search.trials"] += result.trials_used
        self.counters["iso_search.unknown"] += result.kind == "unknown"

    # -- installing -------------------------------------------------------------

    def install(self):
        """Wrap every layer in every diffmod module that binds it."""
        for name, modname, attr in LAYERS:
            owner = sys.modules.get(modname)
            cls, _, meth = attr.rpartition(".")
            if owner is not None and cls:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, meth, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            self.originals[name] = (owner, meth, fn)
            wrapper = self._wrap(name, fn)
            if cls:
                setattr(owner, meth, wrapper)
            for mod in _diffmod_modules():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def unwrapped_bindings(self):
        """Names in diffmod modules (and patched classes) that still bind an
        original function: calls through them would go unrecorded."""
        originals = {id(fn): name for name, (_, _, fn) in self.originals.items()}
        found = []
        holders = _diffmod_modules() + [owner for owner, _, _ in self.originals.values()
                                        if isinstance(owner, type)]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if id(value) in originals:
                    found.append(f"{getattr(holder, '__name__', holder)}.{key}")
        return found

    # -- results ----------------------------------------------------------------

    def layer_times(self):
        """{name: (calls, inclusive s, self s)}; a span nested inside a span
        of the same name adds to calls and self time, not to inclusive time."""
        child = [0.0] * len(self.spans)
        out = {}
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, parent) in enumerate(self.spans):
            calls, incl, self_s = out.get(name, (0, 0.0, 0.0))
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            out[name] = (calls + 1, incl + (end - start if p < 0 else 0.0),
                         self_s + (end - start) - child[idx])
        return out
