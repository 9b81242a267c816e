"""Span tracing around massflat's public functions, installed from outside.

Every wrapped call records a span: its name, start and end, the span that
caused it, the op it belongs to, and its thread.  Spans are kept in memory
and written out once, when the run ends.  Aggregates are updated as spans
close, so reading the per-layer metrics never walks the span list.

Nothing here edits the package.  Wrappers replace attributes on the
package's modules and classes after import, and scipy's public
``scipy.sparse.csgraph.dijkstra`` is patched as soon as that module is
imported (an import hook installed before massflat is imported), so the
Dijkstra counter survives any rewrite of how massflat imports it.  Names a
later version of the package no longer has are skipped, and their
counters read 0.

This module imports only the standard library, so a traced CLI process
reports its own import times undisturbed.
"""

from __future__ import annotations

import importlib.abc
import importlib.util
import sys
import threading
import time
import weakref
from collections import defaultdict

# (group, module, attribute path, how to count points)
#   points "arg" counts the elements of the first positional argument after
#   self; None counts nothing.
WRAPPED = (
    ("profiles.eval", "massflat.profiles", "HawkingProfile.mass", "arg"),
    ("profiles.eval", "massflat.profiles", "HawkingProfile.mass_prime", "arg"),
    ("profiles.eval", "massflat.profiles", "HawkingProfile.wall_gap", "arg"),
    ("profiles.validate", "massflat.profiles", "validate", None),
    ("geometry.build", "massflat.geometry", "ManifoldModel.__init__", None),
    ("geometry.query", "massflat.geometry", "ManifoldModel.s", "arg"),
    ("geometry.query", "massflat.geometry", "ManifoldModel.F", "arg"),
    ("geometry.query", "massflat.geometry", "ManifoldModel.r_of_s", "arg"),
    ("geometry.slope", "massflat.geometry", "ManifoldModel.f_prime", "arg"),
    ("geometry.slope", "massflat.geometry", "ManifoldModel.s_prime", "arg"),
    ("geometry.integral", "massflat.geometry", "ManifoldModel.shell_volume", None),
    ("geometry.integral", "massflat.geometry", "ManifoldModel.graph_excess", None),
    ("geometry.integral", "massflat.geometry", "ManifoldModel.sup_grad", None),
    ("embedding.constants", "massflat.embedding", "embedding_constant_bound", None),
    ("embedding.constants", "massflat.embedding", "budget_embedding_constants", None),
    ("embedding.check", "massflat.embedding", "metric_embedding_check", None),
    ("mesh.build", "massflat.mesh", "MeshGeodesicOracle.__init__", None),
    ("mesh.build", "massflat.mesh", "MeshGeodesicOracle.from_model", None),
    ("certificates.flat", "massflat.certificates", "flat_certificate", None),
    ("certificates.budget", "massflat.certificates", "delta_budget", None),
    ("ghdist.best", "massflat.ghdist", "best_gh_bound", None),
    ("ghdist.candidate", "massflat.ghdist", "gh_bound", None),
    ("ghdist.segment", "massflat.ghdist", "segment_limit_bound", None),
    ("sweeps.run", "massflat.sweeps", "run_sweep", None),
    ("serialization", "massflat.serialization", "read_profile", None),
    ("serialization", "massflat.serialization", "canonical_json", None),
    ("serialization", "massflat.serialization", "dumps_profile", None),
    ("cli.main", "massflat.cli", "main", None),
)

DIJKSTRA_GROUP = "mesh.dijkstra"
LAYERS = ("profiles", "geometry", "embedding", "mesh", "certificates",
          "ghdist", "sweeps", "serialization", "cli")


def _count(x) -> int:
    size = getattr(x, "size", None)
    if isinstance(size, int):
        return size
    if hasattr(x, "__len__"):
        return len(x)
    return 1


class _Span:
    __slots__ = ("sid", "name", "group", "t0", "parent", "cross", "child_s",
                 "xchild_s")

    def __init__(self, sid, name, group, t0, parent, cross):
        self.sid = sid
        self.name = name
        self.group = group
        self.t0 = t0
        self.parent = parent
        self.cross = cross
        self.child_s = 0.0      # same-thread direct children, sequential
        self.xchild_s = 0.0     # direct children on other threads


class Tracer:
    """Collects spans and per-group aggregates while ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.op = -1
        self.spans = []         # finished spans, as tuples, in end order
        self.groups = defaultdict(lambda: defaultdict(float))
        self.counts = defaultdict(float)
        self.graph_mb = 0.0
        self._graphs = weakref.WeakValueDictionary()
        self._next_sid = 0
        self._local = threading.local()
        self._main_stack = None
        self._lock = threading.Lock()

    # -- span bookkeeping ------------------------------------------------------

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.depth = defaultdict(int)
            if threading.current_thread() is threading.main_thread():
                self._main_stack = loc.stack
        return loc

    def begin(self, name, group, points=0):
        loc = self._state()
        stack = loc.stack
        cross = False
        parent = stack[-1] if stack else None
        if parent is None and self._main_stack and stack is not self._main_stack:
            # a pool thread's root span is caused by whatever the main
            # thread is blocked in, e.g. run_sweep
            parent = self._main_stack[-1]
            cross = True
        loc.depth[group] += 1
        outer = loc.depth[group] == 1
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
            if outer:
                agg = self.groups[group]
                agg["outer_calls"] += 1
                agg["points"] += points
            if name == "ManifoldModel.s" and loc.depth["r_of_s"] > 0:
                self.counts["geometry.r_of_s.newton_steps"] += 1
            if name == "gh_bound" and loc.depth["ghdist.best"] > 0:
                self.counts["ghdist.candidates_in_best"] += 1
        span = _Span(sid, name, group, time.perf_counter(), parent, cross)
        stack.append(span)
        if name == "ManifoldModel.r_of_s":
            loc.depth["r_of_s"] += 1
        return span

    def end(self, span, failed):
        t1 = time.perf_counter()
        loc = self._local
        loc.stack.pop()
        loc.depth[span.group] -= 1
        if span.name == "ManifoldModel.r_of_s":
            loc.depth["r_of_s"] -= 1
        dur = t1 - span.t0
        parent = span.parent
        with self._lock:
            agg = self.groups[span.group]
            agg["calls"] += 1
            agg["self_s"] += dur - span.child_s
            agg["children_s"] += span.child_s + span.xchild_s
            agg["wall_s"] += dur
            if failed:
                agg["errors"] += 1
            if parent is not None:
                if span.cross:
                    parent.xchild_s += dur
                else:
                    parent.child_s += dur
        self.spans.append((span.sid, span.name, span.group, span.t0, t1,
                           parent.sid if parent is not None else -1,
                           self.op, threading.get_ident(), int(failed)))

    # -- wrappers --------------------------------------------------------------

    def wrap(self, fn, name, group, points=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            n = 0
            if points == "arg":
                n = _count(args[1] if len(args) > 1 else next(iter(kwargs.values())))
            span = tracer.begin(name, group, n)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                tracer.end(span, failed)
            tracer.after(name, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def after(self, name, args, out):
        """Work counts read off a call's arguments and result."""
        with self._lock:
            if name == "ManifoldModel.__init__":
                knots = getattr(args[0], "knots", None)
                if knots is not None:
                    self.groups["geometry.build"]["knots"] += _count(knots)
            elif name == "MeshGeodesicOracle.__init__":
                oracle = args[0]
                self.counts["mesh.nodes"] += (getattr(oracle, "n_s", 0)
                                              * getattr(oracle, "n_theta", 0))
            elif name == "run_sweep":
                self.counts["sweeps.rows"] += len(out)
                self.counts["sweeps.rows_failed"] += sum(
                    1 for row in out if row.get("status") != "ok")

    def wrap_dijkstra(self, fn):
        """Dijkstra wrapper: sources, edges, graph bytes and distances read."""
        import numpy as np

        tracer = self

        class ReadCounted(np.ndarray):
            """Distance rows that count the entries a caller reads."""

            def __getitem__(self, key):
                out = np.ndarray.__getitem__(self, key)
                tracer.counts["mesh.dijkstra.read"] += np.size(out)
                return out.view(np.ndarray) if isinstance(out, np.ndarray) else out

        def traced(csgraph, *args, **kwargs):
            if not tracer.enabled:
                return fn(csgraph, *args, **kwargs)
            span = tracer.begin("dijkstra", DIJKSTRA_GROUP)
            failed = True
            try:
                out = fn(csgraph, *args, **kwargs)
                failed = False
            finally:
                tracer.end(span, failed)
            indices = args[1] if len(args) > 1 else kwargs.get("indices")
            n = csgraph.shape[0]
            tracer.counts["mesh.dijkstra.sources"] += (
                n if indices is None else int(np.size(indices)))
            seen = tracer._graphs.get(id(csgraph))
            if seen is not csgraph:
                # a sparse graph; massflat never passes a dense one
                tracer._graphs[id(csgraph)] = csgraph
                tracer.counts["mesh.edges"] += csgraph.nnz
                nbytes = (csgraph.data.nbytes + csgraph.indices.nbytes
                          + csgraph.indptr.nbytes)
                tracer.graph_mb = max(tracer.graph_mb, nbytes / 2**20)
            if isinstance(out, tuple):
                dist = out[0]
                tracer.counts["mesh.dijkstra.computed"] += dist.size
                return (dist.view(ReadCounted),) + out[1:]
            tracer.counts["mesh.dijkstra.computed"] += out.size
            return out.view(ReadCounted)

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    def hook_dijkstra(self):
        """Patch scipy's csgraph.dijkstra whenever that module is loaded."""
        name = "scipy.sparse.csgraph"
        if name in sys.modules:
            self._patch_csgraph(sys.modules[name])
        else:
            sys.meta_path.insert(0, _AfterImport(name, self._patch_csgraph))

    def _patch_csgraph(self, module):
        fn = getattr(module, "dijkstra", None)
        if fn is not None and not hasattr(fn, "__wrapped__"):
            module.dijkstra = self.wrap_dijkstra(fn)

    def install(self):
        """Wrap every listed massflat function that exists, everywhere bound.

        Call after massflat is imported.  Module-level functions are
        re-bound in every massflat module that imported them by name.
        """
        packages = [m for n, m in list(sys.modules.items())
                    if m is not None and (n == "massflat" or n.startswith("massflat."))]
        for group, modname, path, points in WRAPPED:
            module = sys.modules.get(modname)
            if module is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None:
                continue
            fn = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if fn is None or hasattr(getattr(fn, "__func__", fn), "__wrapped__"):
                continue
            if isinstance(fn, classmethod):
                setattr(owner, attr, classmethod(
                    self.wrap(fn.__func__, path, group, points)))
                continue
            wrapped = self.wrap(fn, path if owner_name else attr, group, points)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for mod in packages:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
        csgraph = sys.modules.get("scipy.sparse.csgraph")
        if csgraph is not None:
            self._patch_csgraph(csgraph)
            patched = csgraph.dijkstra
            for mod in packages:
                for key, value in list(vars(mod).items()):
                    if value is getattr(patched, "__wrapped__", None):
                        setattr(mod, key, patched)

    # -- results ---------------------------------------------------------------

    def busy(self) -> dict:
        """Per group, the wall time during which one of its spans was open.

        The union of the group's span intervals over all threads, so spans
        nested in the same group, or overlapping in a thread pool, count once.
        """
        by_group = defaultdict(list)
        for span in self.spans:
            by_group[span[2]].append((span[3], span[4]))
        out = {}
        for group, intervals in by_group.items():
            intervals.sort()
            total = 0.0
            lo, hi = intervals[0]
            for a, b in intervals[1:]:
                if a > hi:
                    total += hi - lo
                    lo, hi = a, b
                elif b > hi:
                    hi = b
            out[group] = total + (hi - lo)
        return out

    def raw(self) -> dict:
        """Aggregates as plain data, for merging across processes."""
        groups = {g: dict(v) for g, v in self.groups.items()}
        for group, busy in self.busy().items():
            groups[group]["busy_s"] = busy
        return {"groups": groups, "counts": dict(self.counts),
                "graph_mb": self.graph_mb, "spans": len(self.spans)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sid,name,group,start,end,parent,op,thread,failed\n")
            for s in self.spans:
                fh.write("%d,%s,%s,%.9f,%.9f,%d,%d,%d,%d\n" % s)


class _AfterImport(importlib.abc.MetaPathFinder):
    """Runs ``patch(module)`` right after the named module executes."""

    def __init__(self, name, patch):
        self.name = name
        self.patch = patch

    def find_spec(self, fullname, path, target=None):
        if fullname != self.name:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        if spec is None or spec.loader is None:
            return spec
        loader = spec.loader
        run = loader.exec_module
        patch = self.patch

        def exec_module(module):
            run(module)
            patch(module)

        loader.exec_module = exec_module
        return spec


def merge(parts) -> dict:
    """Sum the raw aggregates of several processes (graph size: maximum)."""
    groups = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(float)
    graph_mb = 0.0
    spans = 0
    for part in parts:
        for g, agg in part["groups"].items():
            for k, v in agg.items():
                groups[g][k] += v
        for k, v in part["counts"].items():
            counts[k] += v
        graph_mb = max(graph_mb, part["graph_mb"])
        spans += part["spans"]
    return {"groups": groups, "counts": counts, "graph_mb": graph_mb,
            "spans": spans}


def layer_metrics(raw: dict, ops: int) -> dict:
    """Per-layer metric values, per op where they are counts or seconds."""
    g = raw["groups"]
    c = raw["counts"]
    per = 1.0 / max(ops, 1)

    def grp(name, key):
        return float(g.get(name, {}).get(key, 0.0))

    best_calls = grp("ghdist.best", "calls")
    computed = c.get("mesh.dijkstra.computed", 0.0)
    sweep_wall = grp("sweeps.run", "wall_s")
    out = {
        "profiles.points": grp("profiles.eval", "points") * per,
        "profiles.busy_s": grp("profiles.eval", "busy_s") * per,
        "profiles.validate.calls": grp("profiles.validate", "calls") * per,
        "profiles.validate.busy_s": grp("profiles.validate", "busy_s") * per,
        "geometry.build.calls": grp("geometry.build", "calls") * per,
        "geometry.build.busy_s": grp("geometry.build", "busy_s") * per,
        "geometry.build.knots": grp("geometry.build", "knots") * per,
        "geometry.query.calls": grp("geometry.query", "outer_calls") * per,
        "geometry.query.points": grp("geometry.query", "points") * per,
        "geometry.query.busy_s": grp("geometry.query", "busy_s") * per,
        "geometry.query.self_s": grp("geometry.query", "self_s") * per,
        "geometry.r_of_s.newton_steps": c.get("geometry.r_of_s.newton_steps", 0.0) * per,
        "geometry.slope.calls": grp("geometry.slope", "calls") * per,
        "geometry.slope.points": grp("geometry.slope", "points") * per,
        "geometry.integral.busy_s": grp("geometry.integral", "busy_s") * per,
        "embedding.constants.calls": grp("embedding.constants", "calls") * per,
        "embedding.constants.busy_s": grp("embedding.constants", "busy_s") * per,
        "embedding.check.busy_s": grp("embedding.check", "busy_s") * per,
        "embedding.check.self_s": grp("embedding.check", "self_s") * per,
        "mesh.build.busy_s": grp("mesh.build", "busy_s") * per,
        "mesh.nodes": c.get("mesh.nodes", 0.0) * per,
        "mesh.edges": c.get("mesh.edges", 0.0) * per,
        "mesh.dijkstra.calls": grp(DIJKSTRA_GROUP, "calls") * per,
        "mesh.dijkstra.sources": c.get("mesh.dijkstra.sources", 0.0) * per,
        "mesh.dijkstra.busy_s": grp(DIJKSTRA_GROUP, "busy_s") * per,
        "mesh.dijkstra.useful_frac": (c.get("mesh.dijkstra.read", 0.0) / computed
                                      if computed else 0.0),
        "mesh.peak_graph_mb": raw["graph_mb"],
        "certificates.flat.calls": grp("certificates.flat", "calls") * per,
        "certificates.flat.busy_s": grp("certificates.flat", "busy_s") * per,
        "certificates.flat.self_s": grp("certificates.flat", "self_s") * per,
        "certificates.budget.calls": grp("certificates.budget", "calls") * per,
        "certificates.budget.busy_s": grp("certificates.budget", "busy_s") * per,
        "ghdist.best.calls": best_calls * per,
        "ghdist.best.busy_s": grp("ghdist.best", "busy_s") * per,
        "ghdist.candidates": grp("ghdist.candidate", "calls") * per,
        "ghdist.candidates_per_best": (c.get("ghdist.candidates_in_best", 0.0)
                                       / best_calls if best_calls else 0.0),
        "ghdist.segment.busy_s": grp("ghdist.segment", "busy_s") * per,
        "sweeps.rows": c.get("sweeps.rows", 0.0) * per,
        "sweeps.rows_failed": c.get("sweeps.rows_failed", 0.0) * per,
        "sweeps.busy_s": grp("sweeps.run", "busy_s") * per,
        "sweeps.concurrency": (grp("sweeps.run", "children_s") / sweep_wall
                               if sweep_wall else 0.0),
        "serialization.busy_s": grp("serialization", "busy_s") * per,
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = sum(
            agg.get("errors", 0.0) for name, agg in g.items()
            if name.split(".")[0] == layer) * per
    return out
