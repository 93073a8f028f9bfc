"""Outside-in tracing of canonfn: wrappers installed from the benchmark's own
files, so no line of the package changes.

Every wrapped call opens a frame on one stack.  On exit its duration is
added to the parent frame's child time, and its self time is the duration
minus that child time.  Ordinary calls are kept as spans (id, name, start,
end, parent span, query); hot leaf calls are folded into one record per
(query, name, parent name), so memory stays bounded.  A recursive call adds
to its name's total time only when it is the outermost active call of that
name.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.query = None
        self.paused = False
        self.spans: list[tuple] = []   # (id, name, start, end, parent id, query, self_s, total_s)
        self.hot: dict = {}            # (query, name, parent name) -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.per_query: Counter = Counter()  # (query, counter name) -> count
        self._stack: list[list] = []   # [name, start, child_s, span id]
        self._active: Counter = Counter()
        self._next_id = 0

    # -- the span arithmetic ------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0, self._next_id])
        self._next_id += 1
        self._active[name] += 1

    def exit(self, hot: bool = False) -> None:
        name, start, child, span_id = self._stack.pop()
        end = self.clock()
        duration = end - start
        self._active[name] -= 1
        total = duration if self._active[name] == 0 else 0.0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if hot:
            key = (self.query, name, parent[0] if parent else None)
            rec = self.hot.get(key)
            if rec is None:
                rec = self.hot[key] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += total
            rec[2] += duration - child
        else:
            self.spans.append((span_id, name, start, end, parent[3] if parent else None,
                               self.query, duration - child, total))

    def context(self, names) -> str | None:
        """Name of the innermost active frame among the given names."""
        for frame in reversed(self._stack):
            if frame[0] in names:
                return frame[0]
        return None

    def layer_stats(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over spans and hot records."""
        stats: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for _, name, _, _, _, _, self_s, total in self.spans:
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += total
            s["self_s"] += self_s
        for (_, name, _), (calls, total, self_s) in self.hot.items():
            s = stats[name]
            s["calls"] += calls
            s["total_s"] += total
            s["self_s"] += self_s
        return dict(stats)

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn, name: str, hot: bool = False, observe=None):
        """fn with a frame around each call; observe(args, result) runs after."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(hot)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counting(self, fn, counter: str):
        tracer = self

        def counted(*args, **kwargs):
            if not tracer.paused:
                tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted


# ---------------------------------------------------------------------------
# installation into canonfn


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "canonfn" or name.startswith("canonfn."))]


def _replace_everywhere(original, replacement) -> None:
    """Rebind a function in every canonfn namespace that imported it by name."""
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


# (module, function, layer name, hot)
FUNCTIONS = [
    ("canonfn.groups", "orbit_label", "groups.orbit_label", True),
    ("canonfn.groups", "reindex_label", "groups.reindex_label", True),
    ("canonfn.groups", "format_label", "groups.format_label", True),
    ("canonfn.groups", "orbit_labels", "groups.orbit_labels", False),
    ("canonfn.fraisse", "enumerate_types", "fraisse.enumerate_types", False),
    ("canonfn.fraisse", "verify_amalgamation", "fraisse.verify_amalgamation", False),
    ("canonfn.canonicity", "check_canonical", "canonicity.check_canonical", False),
    ("canonfn.canonicity", "proposition_harness", "canonicity.proposition_harness", False),
    ("canonfn.canonize", "_run_search", "canonize.search", False),
    ("canonfn.behaviors", "enumerate_behaviors", "behaviors.enumerate_behaviors", False),
    ("canonfn.behaviors", "coherence_check", "behaviors.coherence_check", False),
    ("canonfn.behaviors", "realize_behavior", "behaviors.realize_behavior", False),
    ("canonfn.cli", "run", "cli.run", False),
    ("canonfn.formats", "parse_group_spec", "formats.parse_spec", False),
    ("canonfn.formats", "parse_oracle_spec", "formats.parse_spec", False),
    ("canonfn.symbolic", "forced_cut", "symbolic.forced_cut", False),
    ("canonfn.symbolic", "pham_refute", "symbolic.pham_refute", False),
    ("canonfn.rationals", "least_enum_in_interval", "rationals.least_enum_in_interval", True),
    ("canonfn.rationals", "rational_of_index", "rationals.rational_of_index", True),
]

# (module, class, method, layer name)
METHODS = [
    ("canonfn.fraisse", "LimitStructure", "qf_type", "fraisse.qf_type"),
    ("canonfn.fraisse", "TupleTypeRecord", "reindexed", "fraisse.reindexed"),
    ("canonfn.fraisse", "GenericLimit", "ensure_size", "fraisse.ensure_size"),
    ("canonfn.groups", "PartialAutomorphism", "extend", "groups.extend"),
    ("canonfn.symbolic", "BackAndForthMap", "_stage", "symbolic.stage"),
]

ORACLE_CONTEXTS = ("canonicity.check_canonical", "canonize.search")


class Installation:
    """The tracer wired into canonfn, plus the observers behind the derived
    metrics (distinct inputs, tuples scanned, search nodes, limit growth)."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.distinct = {"fraisse.qf_type": set(), "fraisse.reindexed": set()}
        self._limits: list = []          # GenericLimit instances, with snapshots
        self._setup_limits: set = set()
        self._snap: dict = {}
        self._oracle_depth = 0
        mods = {name: importlib.import_module(name) for name in
                {m for m, *_ in FUNCTIONS + METHODS} | {"canonfn.canonicity"}}
        self._groups = mods["canonfn.groups"]
        observers = {
            "canonicity.check_canonical": self._observe_check,
            "canonize.search": self._observe_search,
            "behaviors.enumerate_behaviors": self._observe_tables,
        }
        for module, attr, name, hot in FUNCTIONS:
            original = getattr(mods[module], attr)
            _replace_everywhere(original, tracer.wrap(original, name, hot, observers.get(name)))
        method_observers = {
            "fraisse.qf_type": lambda a, kw, r: self.distinct["fraisse.qf_type"].add(
                (id(a[0]), tuple(a[1]))),
            "fraisse.reindexed": lambda a, kw, r: self.distinct["fraisse.reindexed"].add(
                (a[0], tuple(a[1]))),
        }
        for module, cls_name, meth, name in METHODS:
            cls = getattr(mods[module], cls_name)
            setattr(cls, meth, tracer.wrap(cls.__dict__[meth], name, True,
                                           method_observers.get(name)))
        fraisse, symbolic = mods["canonfn.fraisse"], mods["canonfn.symbolic"]
        for cls in _subclasses(fraisse.LimitStructure):
            if "eval_relation" in cls.__dict__:
                cls.eval_relation = tracer.counting(cls.__dict__["eval_relation"],
                                                    "fraisse.eval_relation")
        symbolic.BackAndForthMap.eval = tracer.counting(symbolic.BackAndForthMap.eval,
                                                        "symbolic.eval")
        for cls in _subclasses(mods["canonfn.canonicity"].FunctionOracle):
            if "__call__" in cls.__dict__:
                cls.__call__ = self._oracle_counter(cls.__dict__["__call__"])
        init = fraisse.GenericLimit.__init__

        def register(limit, *args, **kwargs):
            init(limit, *args, **kwargs)
            self._limits.append(limit)
            if tracer.query is None:
                self._setup_limits.add(id(limit))

        fraisse.GenericLimit.__init__ = register

    def _oracle_counter(self, call):
        inst, tracer = self, self.tracer

        def counted(oracle, p):
            if inst._oracle_depth or tracer.paused:
                return call(oracle, p)
            inst._oracle_depth += 1
            try:
                return call(oracle, p)
            finally:
                inst._oracle_depth -= 1
                where = tracer.context(ORACLE_CONTEXTS)
                tracer.counts[f"oracle@{where}"] += 1
                tracer.per_query[(tracer.query, f"oracle@{where}")] += 1

        return counted

    # -- observers ------------------------------------------------------------

    def _observe_check(self, args, kwargs, result):
        f, g, h, horizon, arity = args[:5]
        points = kwargs.get("points", args[5] if len(args) > 5 else None)
        n = len(points) if points is not None else horizon
        if bool(result):
            scanned = sum(n ** k for k in range(1, arity + 1))
        else:
            self.tracer.paused = True
            try:
                pts = list(points) if points is not None else [
                    self._groups.point(g, i) for i in range(n)]
            finally:
                self.tracer.paused = False
            index = {p: i for i, p in reversed(list(enumerate(pts)))}
            k = result.arity
            position = 0
            for p in result.witness_t:
                position = position * n + index[p]
            scanned = sum(n ** j for j in range(1, k)) + position + 1
        self.tracer.counts["canonicity.tuples_scanned"] += scanned

    def _observe_search(self, args, kwargs, result):
        seeds = len(args[6])
        tracer = self.tracer
        tracer.counts["search.seed_calls"] += seeds
        tracer.per_query[(tracer.query, "search.seed_calls")] += seeds
        levels = result.tower.depth if bool(result) else result.depth_reached
        tracer.counts["canonize.committed_levels"] += levels

    def _observe_tables(self, args, kwargs, result):
        self.tracer.counts["behaviors.tables_found"] += len(result)

    # -- per query ------------------------------------------------------------

    def begin_query(self, qid) -> None:
        self.tracer.query = qid
        self._snap = {id(lim): (lim.size, len(lim.demand_log)) for lim in self._limits}

    def end_query(self) -> None:
        counts = self.tracer.counts
        for lim in self._limits:
            size, logged = self._snap.get(id(lim), (0, 0))
            counts["fraisse.elements_adjoined"] += lim.size - size
            for entry in lim.demand_log[logged:]:
                counts["fraisse.demands_created" if entry.created
                       else "fraisse.demands_witnessed"] += 1
        self._limits = [lim for lim in self._limits if id(lim) in self._setup_limits]
        self.tracer.query = None

    def search_nodes(self, qid) -> int:
        pq = self.tracer.per_query
        return pq[(qid, "oracle@canonize.search")] - pq[(qid, "search.seed_calls")]


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


# ---------------------------------------------------------------------------
# per-layer metrics

PER_LAYER = [  # (metric, unit)
    ("fraisse.qf_type.calls", "count"), ("fraisse.qf_type.self_s", "s"),
    ("fraisse.qf_type.distinct_ratio", "ratio"),
    ("groups.orbit_label.calls", "count"), ("groups.orbit_label.self_s", "s"),
    ("canonicity.check_canonical.calls", "count"), ("canonicity.check_canonical.self_s", "s"),
    ("canonicity.tuples_scanned", "count"), ("canonicity.tuples_per_s", "1/s"),
    ("canonicity.oracle_calls", "count"), ("canonicity.proposition_harness.total_s", "s"),
    ("groups.extend.calls", "count"), ("groups.extend.total_s", "s"),
    ("fraisse.reindexed.calls", "count"), ("fraisse.reindexed.self_s", "s"),
    ("fraisse.reindexed.distinct_ratio", "ratio"),
    ("groups.reindex_label.calls", "count"), ("groups.reindex_label.self_s", "s"),
    ("groups.orbit_labels.total_s", "s"), ("fraisse.enumerate_types.total_s", "s"),
    ("behaviors.enumerate_behaviors.self_s", "s"), ("behaviors.tables_found", "count"),
    ("behaviors.coherence_check.total_s", "s"), ("behaviors.realize_behavior.total_s", "s"),
    ("groups.format_label.total_s", "s"), ("cli.run.self_s", "s"),
    ("canonize.search.total_s", "s"), ("canonize.search.self_s", "s"),
    ("canonize.nodes", "count"), ("canonize.useful_ratio", "ratio"),
    ("fraisse.ensure_size.total_s", "s"), ("fraisse.elements_adjoined", "count"),
    ("fraisse.demand_witness_ratio", "ratio"), ("fraisse.eval_relation.calls", "count"),
    ("fraisse.verify_amalgamation.total_s", "s"),
    ("symbolic.stages", "count"), ("symbolic.stages_per_s", "1/s"),
    ("symbolic.eval.calls", "count"), ("symbolic.forced_cut.total_s", "s"),
    ("symbolic.pham_refute.total_s", "s"),
    ("rationals.least_enum_in_interval.calls", "count"),
    ("rationals.least_enum_in_interval.self_s", "s"),
    ("rationals.rational_of_index.calls", "count"),
    ("rationals.rational_of_index.self_s", "s"),
    ("formats.parse_spec.total_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(inst: Installation) -> dict:
    """Every per-layer metric of one traced pass except trace.overhead_ratio,
    which compares passes."""
    stats = inst.tracer.layer_stats()
    counts = inst.tracer.counts
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for metric, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat in zero:
            out[metric] = stats.get(layer, zero)[stat]
    for layer in ("fraisse.qf_type", "fraisse.reindexed"):
        out[f"{layer}.distinct_ratio"] = _ratio(len(inst.distinct[layer]),
                                                stats.get(layer, zero)["calls"])
    scanned = counts["canonicity.tuples_scanned"]
    nodes = counts["oracle@canonize.search"] - counts["search.seed_calls"]
    created, witnessed = counts["fraisse.demands_created"], counts["fraisse.demands_witnessed"]
    stage = stats.get("symbolic.stage", zero)
    out.update({
        "canonicity.tuples_scanned": scanned,
        "canonicity.tuples_per_s": _ratio(
            scanned, stats.get("canonicity.check_canonical", zero)["total_s"]),
        "canonicity.oracle_calls": counts["oracle@canonicity.check_canonical"],
        "behaviors.tables_found": counts["behaviors.tables_found"],
        "canonize.nodes": nodes,
        "canonize.useful_ratio": _ratio(counts["canonize.committed_levels"], nodes),
        "fraisse.elements_adjoined": counts["fraisse.elements_adjoined"],
        "fraisse.demand_witness_ratio": _ratio(witnessed, created + witnessed),
        "fraisse.eval_relation.calls": counts["fraisse.eval_relation"],
        "symbolic.stages": stage["calls"],
        "symbolic.stages_per_s": _ratio(stage["calls"], stage["total_s"]),
        "symbolic.eval.calls": counts["symbolic.eval"],
    })
    return out
