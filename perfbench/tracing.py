"""Spans at tropfan's layer boundaries, installed at run time from the
benchmark's own files; nothing under src/ is edited.

``Tracer.install`` replaces every public function of the layer modules, at
each module namespace that binds it, and every public method of the classes
the layers define, with a wrapper that records a span: name, start, end,
parent span and query id.  A function is wrapped under the name its callers
use, so ``homsearch.extreme_rays`` is the cones layer as homsearch calls it
and ``tropoly.in_convex_hull`` is exactlp as tropoly calls it.  Spans are
kept in flat arrays and written out when the run ends.

Counters that need an argument or a result are taken in hooks at the same
boundaries.  Three of them are computed from the inputs, not observed
inside the code: ``homsearch.assignments`` is (classes + 1) ** m per
enumeration, ``homsearch.expand_candidates`` is the product of each cone
record's per-position limits (entry_bound // max |direction entry| + 1), and
``exactlp.tableau_cells`` is m * (n + m + 1) per simplex call.

maxplus is not wrapped: TropVector is a value type used by every layer, so
its cost falls into its callers' self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from array import array
from collections import Counter
from time import perf_counter
from types import FunctionType

from pools import primitive

LAYERS = ("tropoly", "exactlp", "cones", "lattice", "fan", "homsearch", "witness", "cli")
COMPUTED = ("homsearch.assignments", "homsearch.expand_candidates", "exactlp.tableau_cells")
CLI_EXITS = (0, 1, 2, 3)


def _classes(source) -> dict[int, tuple[int, ...]]:
    """Lowest label -> primitive direction, per distinct nonzero column."""
    out = {}
    for a, col in enumerate(zip(*(r.entries for r in source.rows))):
        if any(col) and primitive(col) not in out.values():
            out[a] = primitive(col)
    return out


def _extreme_rays(t, args, result):
    t.counts["cones.rays_out"] += len(result)


def _enumerate_homs(t, args, result):
    t.counts["homsearch.assignments"] += (len(_classes(result.source)) + 1) ** result.target_size
    t.counts["homsearch.families"] += len(result.families)
    t.counts["homsearch.cone_records"] += len(result.cone_records)


def _expand_cones(t, args, result):
    enum, bound = args[0], args[1]
    dirs = _classes(enum.source)
    for rec in enum.cone_records:
        cand = 1
        for a in rec.assignment:
            if a is not None:
                cand *= bound // max(map(abs, dirs[a])) + 1
        t.counts["homsearch.expand_candidates"] += cand
    t.counts["homsearch.expand_members"] += len(result)


def _member(t, args, result):
    t.counts["lattice.member_calls"] += 1


def _hnf(t, args, result):
    bits = max((abs(e).bit_length() for M in result for row in M for e in row), default=0)
    t.maxima["lattice.hnf_max_bits"] = max(t.maxima["lattice.hnf_max_bits"], bits)


def _solve_eq_nonneg(t, args, result):
    A = args[0]
    m = len(A)
    n = len(A[0]) if m else 0
    t.counts["exactlp.tableau_cells"] += m * (n + m + 1)
    t.counts["exactlp.solves"] += 1
    t.counts["exactlp.infeasible"] += result is None


def _canonical(t, args, result):
    t.counts["tropoly.monomials_in"] += len(args[0].monomials)
    t.counts["tropoly.vertices_kept"] += len(result.monomials)


def _separating_pair(t, args, result):
    t.maxima["witness.K_max_bits"] = max(t.maxima["witness.K_max_bits"], result.K.bit_length())


def _cli_main(t, args, result):
    t.counts[f"cli.exit_{result}"] += 1


HOOKS = {
    "cones.extreme_rays": _extreme_rays,
    "homsearch.enumerate_homs": _enumerate_homs,
    "homsearch.HomEnumeration.expand_cones": _expand_cones,
    "lattice.Lattice.member": _member,
    "lattice.hnf": _hnf,
    "exactlp.solve_eq_nonneg": _solve_eq_nonneg,
    "tropoly.TropPoly.canonical": _canonical,
    "witness.separating_pair": _separating_pair,
    "cli.main": _cli_main,
}


class Tracer:
    """Span store and per-layer accounting for one traced phase."""

    def __init__(self):
        self.active = False
        self.qid = -1
        self.names: list[str] = []
        self.name_layers: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_query = array("q")
        self.stack: list[list] = []  # [span index, layer, seconds in child spans]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()

    # -- spans

    def _open(self, nid: int, layer: str) -> list:
        stack = self.stack
        parent = stack[-1] if stack else None
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(parent[0] if parent else -1)
        self.span_query.append(self.qid)
        self.span_end.append(0.0)
        if parent is None or parent[1] != layer:
            self.calls[layer] += 1
        frame = [idx, layer, 0.0]
        stack.append(frame)
        self.span_start.append(perf_counter())
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        idx, layer, inner = frame
        self.stack.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self.self_s[layer] += duration - inner
        if self.stack:
            self.stack[-1][2] += duration

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.name_layers.append(layer)
        return len(self.names) - 1

    def begin_query(self, qid: int) -> None:
        """Open the root span of one query."""
        self.qid = qid
        self._open(self._query_nid, "bench")

    def end_query(self) -> None:
        self._close(self.stack[-1])

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        nid = self._name_id(name, layer)
        hook = HOOKS.get(f"{layer}.{fn.__qualname__}")

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(nid, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame)
                stack = tracer.stack
                if not stack or stack[-1][1] != layer:
                    tracer.counts[f"{layer}.raised.{type(exc).__name__}"] += 1
                raise
            tracer._close(frame)
            if hook is not None:
                try:
                    hook(tracer, args, result)
                except Exception:  # a counter must never fail the query it counts
                    tracer.counts["trace.hook_errors"] += 1
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self, tf) -> None:
        self._query_nid = self._name_id("query", "bench")
        mods = {name: importlib.import_module(f"{tf.__name__}.{name}") for name in LAYERS}
        prefix = tf.__name__ + "."
        for ns_name, mod in [*mods.items(), (tf.__name__, tf)]:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(val, FunctionType):
                    continue
                layer = val.__module__.removeprefix(prefix)
                if layer in LAYERS:
                    setattr(mod, attr, self._wrap(val, f"{ns_name}.{attr}", layer))
        for layer, mod in mods.items():
            for cls in list(vars(mod).values()):
                if (not isinstance(cls, type) or cls.__module__ != mod.__name__
                        or issubclass(cls, BaseException)):
                    continue
                for attr, val in list(vars(cls).items()):
                    name = f"{layer}.{cls.__name__}.{attr}"
                    if attr.startswith("_"):
                        continue
                    if isinstance(val, FunctionType):
                        setattr(cls, attr, self._wrap(val, name, layer))
                    elif isinstance(val, (classmethod, staticmethod)):
                        setattr(cls, attr, type(val)(self._wrap(val.__func__, name, layer)))

    # -- results

    def metrics(self, queries: int) -> dict[str, float]:
        """Per-layer metrics over the traced phase; counts are per query."""
        q = max(queries, 1)
        c, mx = self.counts, self.maxima

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer] / q
            out[f"{layer}.self_s"] = self.self_s[layer] / q
        out["cones.rays_out"] = c["cones.rays_out"] / q
        for key in ("assignments", "families", "cone_records", "expand_candidates"):
            out[f"homsearch.{key}"] = c[f"homsearch.{key}"] / q
        out["homsearch.scan_yield"] = ratio(c["homsearch.families"] + c["homsearch.cone_records"],
                                            c["homsearch.assignments"])
        out["homsearch.expand_yield"] = ratio(c["homsearch.expand_members"],
                                              c["homsearch.expand_candidates"])
        out["lattice.member_calls"] = c["lattice.member_calls"] / q
        out["lattice.span_errors"] = c["lattice.raised.LatticeSpanError"] / q
        out["lattice.hnf_max_bits"] = float(mx["lattice.hnf_max_bits"])
        out["exactlp.tableau_cells"] = c["exactlp.tableau_cells"] / q
        out["exactlp.infeasible_ratio"] = ratio(c["exactlp.infeasible"], c["exactlp.solves"])
        out["tropoly.vertex_yield"] = ratio(c["tropoly.vertices_kept"], c["tropoly.monomials_in"])
        out["witness.K_max_bits"] = float(mx["witness.K_max_bits"])
        for code in CLI_EXITS:
            out[f"cli.exit_{code}"] = c[f"cli.exit_{code}"] / q
        out["trace.spans"] = len(self.span_start) / q
        return out

    def write(self, path) -> None:
        """All spans as gzipped CSV: id, name, layer, start, end, parent, query."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,name,layer,start_s,end_s,parent,query\n")
            names, layers = self.names, self.name_layers
            for i, (nid, start, end, parent, qid) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_query)):
                fh.write(f"{i},{names[nid]},{layers[nid]},{start:.9f},{end:.9f},{parent},{qid}\n")
