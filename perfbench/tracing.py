"""Outside-in tracing of negmom, one layer per module.

``Tracer.install`` wraps every public function of each negmom module at
every place it is bound (the defining module, ``from .x import y`` copies
in other modules and the package namespace) and every public method and
arithmetic operator of the classes those modules define.  Generator
functions are timed per ``next()``.  Each wrapped call is a span; spans
are aggregated in memory by (caller, callee) and returned at the end, so
the traced run does no I/O while it measures.

A span's self time is its duration minus that of its child spans; the
total time of a layer or metric group counts only calls not nested inside
another call of the same layer or group, so recursion is not counted
twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns
from typing import Dict, List, Tuple

LAYERS = ("poly", "ratfunc", "matrix", "moments", "paths", "laurent",
          "reciprocity", "weights", "cli")

# operators and constructors wrapped besides the public methods
_DUNDERS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__neg__", "__pow__", "__truediv__", "__rtruediv__")

# metric group -> functions (layer.qualified_name) whose calls it sums
GROUPS = {
    "poly.mul": ("poly.MultiPoly.__mul__",),
    "poly.add": ("poly.MultiPoly.__add__",),
    "poly.gcd": ("poly.poly_gcd",),
    "poly.div_exact": ("poly.poly_div_exact",),
    "poly.subs": ("poly.MultiPoly.subs",),
    "poly.render": ("poly.MultiPoly.render",),
    "matrix.det": ("matrix.determinant",),
    "matrix.mul": ("matrix.Matrix.__mul__",),
    "matrix.adjugate": ("matrix.adjugate",),
    "matrix.inverse": ("matrix.matrix_inverse",),
    "ratfunc.normalize": ("ratfunc.RatFunc.__init__",),
    "ratfunc.series": ("ratfunc.series_expand",),
    "ratfunc.series_rat": ("ratfunc.series_expand_rat",),
    "ratfunc.reverse": ("ratfunc.reverse_gf",),
    "ratfunc.cf_eval": ("ratfunc.cf_eval",),
    "moments.forward": ("moments.moment_vectors",),
    "moments.negative": ("moments.negative_moment",),
    "moments.well_defined": ("moments.well_defined",),
    "paths.enum": ("paths.motzkin_paths", "paths.schroeder_paths", "paths.pv_sequences",
                   "paths.alt_sequences", "paths.rpp_fillings"),
    "paths.weight": ("paths.wt_motzkin", "paths.pwt_motzkin", "paths.wt_schroeder",
                     "paths.wt_seq_v", "paths.wt_seq_av", "paths.wt_rpp"),
    "reciprocity.compare": ("reciprocity.check_values",),
}

# (module, attribute) of the lru_caches whose hit ratio is reported
CACHES = {"moments.reversed_gf.hit_ratio": ("moments", "_reversed_moment_gf"),
          "paths.count_alt.hit_ratio": ("paths", "count_alt")}


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.layer_of: List[int] = []
        self.group_of: List[int] = []
        self.groups = list(GROUPS)
        n_layers, n_groups = len(LAYERS), len(self.groups)
        self.calls: List[int] = []
        self.failed: List[int] = []
        self.self_ns: List[int] = []
        self.layer_active = [0] * n_layers
        self.layer_total_ns = [0] * n_layers
        self.group_active = [0] * n_groups
        self.group_total_ns = [0] * n_groups
        self.counters: Dict[str, int] = {"poly.mul.terms_out": 0, "poly.gcd.nontrivial": 0,
                                         "matrix.det.max_dim": 0, "paths.enum.objects": 0}
        self.edges: Dict[Tuple[int, int], List[int]] = {}
        self.stack: List[List[int]] = []          # frames: [fid, child time in ns]
        self._patched: List[Tuple[object, str, object]] = []
        self._caches: Dict[str, object] = {}
        self._seen: Dict[int, object] = {}         # id(original) -> wrapper
        self._is_const = None

    # -- span bookkeeping ----------------------------------------------------------

    def _enter(self, fid: int) -> None:
        self.stack.append([fid, 0])
        self.layer_active[self.layer_of[fid]] += 1
        gid = self.group_of[fid]
        if gid >= 0:
            self.group_active[gid] += 1

    def _leave(self, fid: int, dur: int, counted: bool = True, failed: bool = False) -> None:
        frame = self.stack.pop()
        self.self_ns[fid] += dur - frame[1]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dur
        if counted:
            self.calls[fid] += 1
        if failed:
            self.failed[fid] += 1
        key = (parent[0] if parent is not None else -1, fid)
        edge = self.edges.get(key)
        if edge is None:
            self.edges[key] = [int(counted), dur]
        else:
            edge[0] += counted
            edge[1] += dur
        lid = self.layer_of[fid]
        self.layer_active[lid] -= 1
        if not self.layer_active[lid]:
            self.layer_total_ns[lid] += dur
        gid = self.group_of[fid]
        if gid >= 0:
            self.group_active[gid] -= 1
            if not self.group_active[gid]:
                self.group_total_ns[gid] += dur

    def settle(self) -> None:
        """Drop frames left open by a call a time limit interrupted."""
        while self.stack:
            self._leave(self.stack[-1][0], 0, counted=False, failed=True)

    # -- wrappers --------------------------------------------------------------------

    def _register(self, name: str, layer: str) -> int:
        fid = len(self.names)
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        group = next((g for g, members in GROUPS.items() if name in members), None)
        self.group_of.append(self.groups.index(group) if group else -1)
        for arr in (self.calls, self.failed, self.self_ns):
            arr.append(0)
        return fid

    def _wrap(self, fn, name: str, layer: str):
        if id(fn) in self._seen:
            return self._seen[id(fn)]
        fid = self._register(name, layer)
        observe = self._observer(name)
        enter, leave = self._enter, self._leave

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    enter(fid)
                    t0 = perf_counter_ns()
                    try:
                        item = next(it)
                    except StopIteration:
                        leave(fid, perf_counter_ns() - t0, counted=False)
                        return
                    except BaseException:
                        leave(fid, perf_counter_ns() - t0, failed=True)
                        raise
                    leave(fid, perf_counter_ns() - t0)
                    yield item
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                enter(fid)
                t0 = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    leave(fid, perf_counter_ns() - t0, failed=True)
                    raise
                leave(fid, perf_counter_ns() - t0)
                if observe is not None and result is not NotImplemented:
                    observe(args, result)
                return result

        self._seen[id(fn)] = traced
        return traced

    def _observer(self, name: str):
        c = self.counters
        if name == "poly.MultiPoly.__mul__":
            def observe(args, result):
                c["poly.mul.terms_out"] += len(result)
        elif name == "poly.poly_gcd":
            is_const = self._is_const   # the unwrapped method: observing records no span

            def observe(args, result):
                c["poly.gcd.nontrivial"] += not is_const(result)
        elif name == "matrix.determinant":
            def observe(args, result):
                c["matrix.det.max_dim"] = max(c["matrix.det.max_dim"], args[0].rows)
        elif name in GROUPS["paths.enum"]:
            def observe(args, result):
                c["paths.enum.objects"] += len(result)
        else:
            observe = None
        return observe

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        # some layers (laurent) are imported lazily by the code that uses them
        modules = {layer: importlib.import_module(f"negmom.{layer}") for layer in LAYERS}
        self._is_const = modules["poly"].MultiPoly.is_const
        for metric, (layer, attr) in CACHES.items():
            fn = getattr(modules.get(layer), attr, None)
            if fn is not None and hasattr(fn, "cache_info"):
                self._caches[metric] = fn
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(obj, layer)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    self._wrap(obj, f"{layer}.{attr}", layer)
        # rebind every module-level reference to a wrapped function
        for modname, mod in list(sys.modules.items()):
            if modname != "negmom" and not modname.startswith("negmom."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = self._seen.get(id(obj))
                if wrapper is not None and wrapper is not obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        missing = [m for members in GROUPS.values() for m in members if m not in self.names]
        missing += [m for m in CACHES if m not in self._caches]
        if missing:
            sys.stderr.write(f"tracing: not found in negmom, reported as 0: {missing}\n")

    def _install_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                wrapped = type(raw)(self._wrap(fn, f"{layer}.{cls.__name__}.{attr}", layer))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, f"{layer}.{cls.__name__}.{attr}", layer)
            else:
                continue
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics, by the names BENCHMARK.json gives them."""
        out: Dict[str, float] = {}
        layer_self = [0] * len(LAYERS)
        for fid, ns in enumerate(self.self_ns):
            layer_self[self.layer_of[fid]] += ns
        for lid, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = layer_self[lid] / 1e9
            out[f"{layer}.total_s"] = self.layer_total_ns[lid] / 1e9
        for gid, group in enumerate(self.groups):
            fids = [f for f, g in enumerate(self.group_of) if g == gid]
            out[f"{group}.calls"] = sum(self.calls[f] for f in fids)
            out[f"{group}.self_s"] = sum(self.self_ns[f] for f in fids) / 1e9
            out[f"{group}.total_s"] = self.group_total_ns[gid] / 1e9
            out[f"{group}.failed"] = sum(self.failed[f] for f in fids)
        out.update(self.counters)
        gcd_calls = out["poly.gcd.calls"]
        out["poly.gcd.nontrivial_ratio"] = out.pop("poly.gcd.nontrivial") / gcd_calls if gcd_calls else 0.0
        out["moments.forward.steps"] = out["moments.forward.calls"]
        out["reciprocity.checks"] = sum(
            self.calls[f] for f, name in enumerate(self.names)
            if name.startswith("reciprocity.check_") and name != "reciprocity.check_values")
        for metric in CACHES:
            info = self._caches[metric].cache_info() if metric in self._caches else None
            lookups = info.hits + info.misses if info else 0
            out[metric] = info.hits / lookups if lookups else 0.0
        return out

    def spans(self) -> List[Dict[str, object]]:
        """The aggregated span tree: one entry per (caller, callee) pair."""
        return [{"caller": self.names[p] if p >= 0 else None, "callee": self.names[f],
                 "calls": calls, "total_s": ns / 1e9}
                for (p, f), (calls, ns) in sorted(self.edges.items(), key=lambda e: -e[1][1])]
