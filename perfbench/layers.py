"""Per-layer tracing from outside the program.

The layers are the modules of `src/exmat`.  A layer boundary is a name as
its caller module binds it (`exmat.search._contains_using_cell`,
`exmat.cli.run_suites`, ...); `Tracer.install` replaces each binding with a
timing wrapper and `uninstall` puts the originals back.  A binding that no
longer exists is reported in `absent` and its time stays in the enclosing
span.

Every call is a span (layer, start, end, parent, job).  Spans of the hot
leaf layers (matrix checks, patterns) are not kept one by one, which would
cost hundreds of MiB on a search; their time, call count and hits are
added to their layer and to the enclosing span.  Leaf layers call no other
wrapped name, so their self time is their time.  All other spans are kept
in memory and returned by `report()` once the pass ends.

Self time of a span is its duration minus the time covered by its direct
child spans; the children of one span never overlap (one thread), so that
is the sum of their durations.
"""

from __future__ import annotations

import importlib
import time

# layer -> (bindings "module:name", keep individual spans, outcome counter)
LAYERS = {
    "cli": (["exmat.cli:main"], True, None),
    "search.ex_weight": (
        ["exmat.cli:ex_weight", "exmat.verify:ex_weight", "exmat.search:ex_weight"], True, "search"),
    "search.ex_columns": (
        ["exmat.cli:ex_columns", "exmat.verify:ex_columns", "exmat.search:ex_columns"], True, "search"),
    "search.oracle": (["exmat.search:ex_weight_oracle"], True, None),
    "matrix.cell_check": (
        ["exmat.search:_contains_using_cell", "exmat.verify:_contains_using_cell"], False, "hit"),
    "matrix.col_check": (["exmat.search:_contains_using_last_col"], False, "hit"),
    "matrix.contains": (
        ["exmat.verify:contains", "exmat.verify:avoids_all", "exmat.search:avoids_all",
         "exmat.visibility:avoids_all"], False, None),
    "matrix.oracle": (["exmat.verify:contains_oracle", "exmat.search:contains_oracle"], False, None),
    "visibility.sweep": (["exmat.cli:sweep_edges", "exmat.verify:sweep_edges"], True, "edges"),
    "visibility.oracle": (["exmat.verify:sweep_edges_oracle"], True, None),
    "visibility.reduce": (
        ["exmat.cli:matrix_to_visibility", "exmat.verify:matrix_to_visibility"], True, None),
    "visibility.parse": (["exmat.cli:parse_layout"], True, None),
    "constructions": (
        [f"exmat.{mod}:{name}" for mod in ("cli", "verify") for name in (
            "cluster_split", "coloring_induction_step", "greedy_coloring", "induction_base",
            "lower_bound_witness", "pigeonhole_witness")]
        + ["exmat.cli:construct_K_prime", "exmat.verify:degree_growth_bound"], True, None),
    "constructions.column_graph": (
        ["exmat.cli:build_column_graph", "exmat.verify:build_column_graph",
         "exmat.constructions:build_column_graph"], True, None),
    "render": (["exmat.cli:layout_svg"], True, "bytes"),
    "verify": (["exmat.cli:run_suites"], True, "claims"),
    "patterns": (
        [f"exmat.{mod}:{name}" for mod in ("cli", "verify") for name in (
            "generate_T", "pattern_L", "pattern_P")]
        + ["exmat.visibility:generate_T"], False, None),
}

# Metric prefix -> (the end-to-end metrics it should move, the workload
# parts where it should move them, the parts where it should stay flat).
# Parts are the job groups of workloads.py: `search` = weight + columns,
# `certify` = geometry + verify; run.py reports wall_s per part.
PREDICTIONS = {
    "matrix.cell_check": ("wall_s", "weight verify", "geometry columns"),
    "matrix.col_check": ("wall_s", "columns", "weight geometry"),
    "matrix.contains": ("wall_s", "verify", "geometry"),
    "matrix.oracle": ("wall_s", "verify", "geometry"),
    "search.ex_weight": ("wall_s cut_lower_bound", "weight", "geometry"),
    "search.ex_columns": ("wall_s cut_lower_bound", "columns", "geometry"),
    "search.oracle": ("wall_s peak_rss_mb", "verify", "geometry"),
    "search.exact_share": ("wall_s peak_rss_mb", "verify", "geometry"),
    "visibility": ("wall_s", "geometry verify", "weight columns"),
    "constructions": ("wall_s", "geometry", "weight columns"),
    "render": ("wall_s", "geometry", "weight columns verify"),
    "verify": ("wall_s error_rate", "verify", "weight columns geometry"),
    "patterns": ("wall_s", "verify", "weight columns"),
    "cli": ("wall_s setup_s", "weight columns geometry verify", ""),
    "trace": ("none", "weight columns geometry verify", ""),
}


class _Layer:
    __slots__ = ("calls", "s", "self_s", "open", "hits", "nodes", "exact", "results", "edges",
                 "bytes", "claims", "claims_failed")

    def __init__(self):
        self.calls = self.hits = self.nodes = self.exact = self.results = 0
        self.edges = self.bytes = self.claims = self.claims_failed = self.open = 0
        self.s = self.self_s = 0.0


def _count(kind, agg, res):
    if kind == "search":
        agg.results += 1
        agg.nodes += res.nodes_explored
        agg.exact += bool(res.exact)
    elif kind == "edges":
        agg.edges += len(res)
    elif kind == "bytes":
        agg.bytes += len(res.encode())
    elif kind == "claims":
        agg.claims += len(res)
        agg.claims_failed += sum(not r.passed for r in res)


class Tracer:
    def __init__(self):
        self.layers = {name: _Layer() for name in LAYERS}
        self.stack = []  # open kept spans: [time covered by children, span id]
        self.spans = []  # (layer, start, end, parent span id, job)
        self.job = None
        self.absent = []
        self._saved = []

    def begin_job(self, job_id):
        self.job = job_id
        self.stack.clear()

    def _wrap(self, layer, fn, keep, kind):
        agg = self.layers[layer]
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(spans)
            spans.append(None)  # reserve the id; filled when the span ends
            frame = [0.0, sid]  # [time covered by child spans, span id]
            stack.append(frame)
            agg.open += 1
            start = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                agg.open -= 1
                dur = end - start
                agg.calls += 1
                agg.self_s += dur - frame[0]
                if not agg.open:
                    agg.s += dur
                if parent is not None:
                    parent[0] += dur
                spans[sid] = (layer, start, end, parent[1] if parent else None, self.job)
            if kind is not None:
                _count(kind, agg, res)
            return res

        def traced_leaf(*args, **kwargs):
            start = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                agg.calls += 1
                agg.s += dur
                if stack:
                    stack[-1][0] += dur
            if kind is not None:
                agg.hits += bool(res)
            return res

        wrapper = traced if keep else traced_leaf
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for layer, (bindings, keep, kind) in LAYERS.items():
            for binding in bindings:
                mod_name, attr = binding.split(":")
                try:
                    mod = importlib.import_module(mod_name)
                    fn = getattr(mod, attr)
                except (ImportError, AttributeError):
                    self.absent.append(binding)
                    continue
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(layer, fn, keep, kind))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def report(self) -> dict:
        layers = {name: {k: getattr(agg, k) for k in _Layer.__slots__ if k != "open"}
                  for name, agg in self.layers.items()}
        for name, (_, keep, _) in LAYERS.items():
            if not keep:
                layers[name]["self_s"] = layers[name]["s"]
        absent = set(self.absent)
        return {
            "layers": layers,
            "absent": sorted(absent),
            "absent_layers": sorted(
                name for name, (bindings, _, _) in LAYERS.items()
                if all(b in absent for b in bindings)),
            "spans": self.spans,
        }


def metrics(layers: dict, traced_wall: float, absent: int) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, from one pass's layer table.
    trace.overhead needs the untraced passes and is added by the caller."""
    L = layers
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def share(num, den):
        return num / den if den else 0.0

    for name in ("cell_check", "col_check"):
        agg = L[f"matrix.{name}"]
        put(f"matrix.{name}.calls", agg["calls"], "count")
        put(f"matrix.{name}.s", agg["s"], "s")
        put(f"matrix.{name}.hit_share", share(agg["hits"], agg["calls"]), "ratio")
    for name in ("contains", "oracle"):
        put(f"matrix.{name}.calls", L[f"matrix.{name}"]["calls"], "count")
        put(f"matrix.{name}.s", L[f"matrix.{name}"]["s"], "s")
    for name in ("ex_weight", "ex_columns"):
        agg = L[f"search.{name}"]
        put(f"search.{name}.s", agg["s"], "s")
        put(f"search.{name}.self_s", agg["self_s"], "s")
        put(f"search.{name}.nodes", agg["nodes"], "count")
        put(f"search.{name}.nodes_per_s", share(agg["nodes"], agg["s"]), "1/s")
    put("search.oracle.s", L["search.oracle"]["s"], "s")
    results = L["search.ex_weight"]["results"] + L["search.ex_columns"]["results"]
    exact = L["search.ex_weight"]["exact"] + L["search.ex_columns"]["exact"]
    put("search.exact_share", share(exact, results), "ratio")
    put("visibility.sweep.calls", L["visibility.sweep"]["calls"], "count")
    put("visibility.sweep.s", L["visibility.sweep"]["s"], "s")
    put("visibility.sweep.edges", L["visibility.sweep"]["edges"], "count")
    for name in ("oracle", "reduce", "parse"):
        put(f"visibility.{name}.s", L[f"visibility.{name}"]["s"], "s")
    put("constructions.s", L["constructions"]["s"], "s")
    put("constructions.column_graph.s", L["constructions.column_graph"]["s"], "s")
    put("render.s", L["render"]["s"], "s")
    put("render.bytes", L["render"]["bytes"], "B")
    put("verify.self_s", L["verify"]["self_s"], "s")
    put("verify.claims", L["verify"]["claims"], "count")
    put("verify.claims_failed", L["verify"]["claims_failed"], "count")
    put("patterns.s", L["patterns"]["s"], "s")
    put("cli.self_s", L["cli"]["self_s"], "s")
    put("trace.self_share", share(sum(agg["self_s"] for agg in L.values()), traced_wall), "ratio")
    put("trace.absent", absent, "count")
    return out
