"""Per-layer tracing of superrigid from outside the library.

A Tracer wraps every public function and method of each superrigid module,
plus the operator methods of ``fractions.Fraction``, in a span that counts
calls and times them.  A function imported by name into another module is
rebound there too (``walg`` imports ``span_reduce``, ``catalog`` imports
``is_rigid`` and the brackets), otherwise those calls would go uncounted.
Everything is restored by ``uninstall``.

Spans are aggregated as they close rather than stored: an open span keeps the
time its children covered on a stack, so a span's self time is its duration
minus that child time.  Private helpers are not wrapped, so their time counts
as self time of the nearest wrapped caller; the maps a closure receives are
wrapped and charged to the module that defined them.
"""
from __future__ import annotations

import fractions
import functools
import inspect
import time

# Special methods of library classes wrapped besides the public ones.
DUNDERS = ("__init__", "__call__", "__add__", "__radd__", "__sub__",
           "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
           "__neg__", "__pow__")
# Fraction.__new__ is left out: most constructions happen inside Fraction's
# own operators.
FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                "__abs__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
                "__bool__")


class Record:
    """Calls, self seconds and outermost inclusive seconds of one callable."""

    __slots__ = ("calls", "self_s", "incl_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0


class Tracer:
    """Counts and times calls into superrigid, keyed ``layer.qualname``."""

    def __init__(self, modules: dict):
        """``modules`` maps a layer name (``walg``, ...) to its module, as
        ``workloads.import_library`` returns them."""
        self.modules = modules
        self.records: dict[str, Record] = {}
        self.counters = {"jets.mul_terms_out": 0, "linalg.closure_candidates": 0,
                         "linalg.closure_accepted": 0}
        self._stack = [0.0]
        self._undo: list = []

    # -- spans ----------------------------------------------------------------

    def _record(self, key: str) -> Record:
        return self.records.setdefault(key, Record())

    def span(self, fn, key: str):
        """Wrap ``fn`` so each call is counted and timed under ``key``."""
        rec = self._record(key)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec.calls += 1
            rec.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                rec.self_s += d - stack.pop()
                stack[-1] += d
                rec.depth -= 1
                if not rec.depth:
                    rec.incl_s += d

        return traced

    def _jet_mul(self, fn, key):
        counters = self.counters
        inner = self.span(fn, key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = inner(*args, **kwargs)
            terms = getattr(out, "terms", None)
            if terms is not None:
                counters["jets.mul_terms_out"] += len(terms)
            return out

        return traced

    def _closure(self, fn, key, map_params):
        """Span for a closure routine whose map arguments are counted as
        candidates; each accepted candidate raises the dimension by one."""
        counters = self.counters
        sig = inspect.signature(fn)
        inner = self.span(fn, key)

        def candidate(m):
            layer = (getattr(m, "__module__", "") or "").rpartition(".")[2]
            charged = self.span(m, f"{layer}.<closure map>")

            def counted(*args):
                counters["linalg.closure_candidates"] += 1
                return charged(*args)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            for name in map_params:
                m = bound.arguments[name]
                bound.arguments[name] = ([candidate(x) for x in m]
                                         if isinstance(m, (list, tuple))
                                         else candidate(m))
            out = inner(*bound.args, **bound.kwargs)
            counters["linalg.closure_accepted"] += (
                out.dim - bound.arguments["seed"].dim)
            return out

        return traced

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap(self, fn, key):
        if key == "jets.Jet.__mul__":
            return self._jet_mul(fn, key)
        if key == "linalg.closure_under":
            return self._closure(fn, key, ("maps",))
        if key == "linalg.pairwise_closure":
            return self._closure(fn, key, ("bracket",))
        return self.span(fn, key)

    def _wrap_attr(self, cls, name, key):
        raw = cls.__dict__[name]
        if isinstance(raw, (staticmethod, classmethod)):
            self._patch(cls, name, type(raw)(self._wrap(raw.__func__, key)))
        elif inspect.isfunction(raw):
            self._patch(cls, name, self._wrap(raw, key))

    def install(self) -> None:
        for name in FRACTION_OPS:
            self._wrap_attr(fractions.Fraction, name, f"fractions.Fraction.{name}")
        rebound = {}
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{name}")
                    self._patch(mod, name, wrapped)
                    rebound[id(obj)] = (obj, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr in list(vars(obj)):
                        if not attr.startswith("_") or attr in DUNDERS:
                            self._wrap_attr(obj, attr, f"{layer}.{obj.__qualname__}.{attr}")
        # Functions imported by name into another module.
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                hit = rebound.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def reset(self) -> None:
        """Zero every count, keeping the wrappers installed."""
        for rec in self.records.values():
            rec.calls, rec.self_s, rec.incl_s = 0, 0.0, 0.0
        for key in self.counters:
            self.counters[key] = 0

    # -- derived metrics ------------------------------------------------------

    def calls(self, *keys) -> int:
        return sum(self.records[k].calls for k in keys if k in self.records)

    def incl_s(self, key) -> float:
        return self.records.get(key, Record()).incl_s

    def self_s(self, key) -> float:
        return self.records.get(key, Record()).self_s

    def layer_self_s(self, layer) -> float:
        prefix = layer + "."
        return sum(r.self_s for k, r in self.records.items() if k.startswith(prefix))

    def layer_calls(self, layer) -> int:
        prefix = layer + "."
        return sum(r.calls for k, r in self.records.items()
                   if k.startswith(prefix) and not k.endswith("<closure map>"))


def layer_metrics(tr: Tracer) -> dict:
    """The per-layer metrics, by name, as (value, unit) pairs."""
    frac = "fractions.Fraction."
    cands = tr.counters["linalg.closure_candidates"]
    accepted = tr.counters["linalg.closure_accepted"]
    walg_map = "walg.MultiLinMap."
    out = {
        "fractions.mul_calls": (tr.calls(frac + "__mul__", frac + "__rmul__"), "count"),
        "fractions.add_calls": (tr.calls(frac + "__add__", frac + "__radd__",
                                         frac + "__sub__", frac + "__rsub__"), "count"),
        "fractions.self_s": (tr.layer_self_s("fractions"), "s"),
        "jets.mul_calls": (tr.calls("jets.Jet.__mul__"), "count"),
        "jets.mul_terms_out": (tr.counters["jets.mul_terms_out"], "count"),
        "jets.deriv_calls": (tr.calls("jets.Jet.d_even", "jets.Jet.d_odd",
                                      "jets.Jet.d_tau"), "count"),
        "jets.self_s": (tr.layer_self_s("jets"), "s"),
        "brackets.calls": (tr.layer_calls("brackets"), "count"),
        "brackets.self_s": (tr.layer_self_s("brackets"), "s"),
        "fields.calls": (tr.layer_calls("fields"), "count"),
        "fields.lie_bracket_calls": (tr.calls("fields.lie_bracket"), "count"),
        "fields.self_s": (tr.layer_self_s("fields"), "s"),
        "catalog.oracle_product_calls": (tr.calls("catalog.OracleEntry.product"), "count"),
        "catalog.self_s": (tr.layer_self_s("catalog"), "s"),
        "walg.act_calls": (tr.calls("walg.act"), "count"),
        "walg.act_self_s": (tr.self_s("walg.act"), "s"),
        "walg.map_build_calls": (tr.calls(walg_map + "__init__"), "count"),
        "walg.str_algebra_s": (tr.incl_s("walg.str_algebra"), "s"),
        "walg.related_products_s": (tr.incl_s("walg.related_products"), "s"),
        "walg.is_simple_s": (tr.incl_s("walg.is_simple"), "s"),
        "walg.box_calls": (tr.calls("walg.box"), "count"),
        "walg.box_self_s": (tr.self_s("walg.box"), "s"),
        "walg.map_eval_calls": (tr.calls(walg_map + "__call__"), "count"),
        "walg.tkk_s": (tr.incl_s("walg.tkk"), "s"),
        "walg.admissible_s": (tr.incl_s("walg.check_admissible_findim"), "s"),
        "walg.self_s": (tr.layer_self_s("walg"), "s"),
        "linalg.span_reduce_calls": (tr.calls("linalg.span_reduce"), "count"),
        "linalg.closure_calls": (tr.calls("linalg.closure_under",
                                          "linalg.pairwise_closure"), "count"),
        "linalg.closure_candidates": (cands, "count"),
        "linalg.closure_accepted": (accepted, "count"),
        "linalg.closure_accept_ratio": (accepted / cands if cands else 0.0, "ratio"),
        "linalg.self_s": (tr.layer_self_s("linalg"), "s"),
    }
    return out
