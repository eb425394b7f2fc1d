"""Span tracing around the library's public functions, from outside.

:class:`Tracer` rebinds each traced function in every loaded
``tropquiver`` module that holds it, so calls made inside the library are
caught too (``tropquiver.puiseux.det`` sees the calls from
``rank_via_minors``).  Spans (id, parent id, op id, name, start, end) are
kept in memory and written out when the run ends; self time is a span's
duration minus that of its direct children.  No file under ``src/`` is
touched, and the original bindings come back on ``restore()``.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module -> traced public functions; each metric is <module>.<function>.*
FUNCTIONS = {
    "trop": ["trop_matvec", "trop_span_membership", "trop_poly_vanishes", "min_attained_twice"],
    "puiseux": ["det", "rank_via_minors", "pluecker_valuations", "classical_containment"],
    "matroid": ["is_valuated_matroid", "quotient_check", "circuits", "cocircuits", "tls_membership"],
    "morphism": ["affine_induced", "is_affine_morphism", "associated_map"],
    "quiver": [
        "qdr_membership", "qdr_membership_via_containment", "containment_check",
        "quiver_pluecker_relations", "all_relations", "is_subrepresentation",
        "trop_qgr_witness_check", "flag_mode_check",
    ],
    "cli": ["main"],
}
# jsonio is traced as two aggregates over every *_from_json / *_to_json
AGGREGATES = {"decode": "_from_json", "encode": "_to_json"}
EXTRA = {
    "quiver.quiver_pluecker_relations.relations": "count/op",
    "quiver.all_relations.kept_ratio": "ratio",
    "puiseux.rank_via_minors.dets_per_call": "dets/call",
    "cli.output_bytes": "B/op",
    "trace.overhead_ratio": "ratio",
}
# printed by a traced run but not per-layer metrics: the exit counts are
# fixed by the cli_mixed cycle (and gated as correctness), and trace.ops is
# how many ops fit in the traced half, so no change to the library moves
# them in a meaningful direction
INFO = {
    "cli.exit_0": "count/op",
    "cli.exit_1": "count/op",
    "cli.exit_2": "count/op",
    "trace.ops": "count",
}


def span_names():
    names = ["%s.%s" % (mod, fn) for mod, fns in FUNCTIONS.items() for fn in fns]
    return names + ["jsonio.%s" % agg for agg in AGGREGATES]


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in span_names():
        units[name + ".calls"] = "calls/op"
        units[name + ".self_s"] = "s/op"
    units.update(EXTRA)
    return units


class Tracer:
    def __init__(self):
        self.spans = []   # (id, parent, op, name, start, end)
        self.stack = []   # (id, name) of the open spans
        self.calls = Counter()
        self.counts = Counter()
        self.op = None    # id of the op being traced, set by the caller
        self._patched = []  # (module, attribute, original)

    # -- recording --

    def _enter(self, name):
        sid = len(self.spans) + len(self.stack)
        self.stack.append((sid, name))
        return sid, perf_counter()

    def _leave(self, name, sid, start):
        end = perf_counter()
        self.stack.pop()
        parent = self.stack[-1][0] if self.stack else None
        self.spans.append((sid, parent, self.op, name, start, end))

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][1] == name:  # nested aggregate call: one span
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            sid, start = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(name, sid, start)

        return traced

    def _wrap_generator(self, name, fn):
        """One span per next(), so consumer work between items is not
        charged to the generator."""
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                sid, start = tracer._enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._leave(name, sid, start)
                tracer.counts[name + ".relations"] += 1
                if tracer.inside("quiver.all_relations"):
                    tracer.counts["all_relations.generated"] += 1
                yield item

        return traced

    def _count_yields(self, fn):
        """Counts relations generated under all_relations, without a span."""
        tracer = self

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if tracer.inside("quiver.all_relations"):
                    tracer.counts["all_relations.generated"] += 1
                yield item

        return counted

    def _count_kept(self, fn):
        """Counts the relations all_relations returns."""
        tracer = self

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer.counts["all_relations.kept"] += len(out)
            return out

        return counted

    def inside(self, name):
        return any(n == name for _, n in self.stack)

    # -- installing --

    def _rebind(self, original, replacement):
        """Point every loaded tropquiver module's binding of ``original``
        at ``replacement``."""
        for modname, module in list(sys.modules.items()):
            if modname != "tropquiver" and not modname.startswith("tropquiver."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        import tropquiver.cli  # noqa: F401  (loads every traced module)
        from tropquiver import jsonio, quiver

        missing = []
        for modname, fns in FUNCTIONS.items():
            module = sys.modules["tropquiver." + modname]
            for fn_name in fns:
                fn = getattr(module, fn_name, None)
                if fn is None:
                    missing.append("%s.%s" % (modname, fn_name))
                    continue
                name = "%s.%s" % (modname, fn_name)
                if inspect.isgeneratorfunction(fn):
                    self._rebind(fn, self._wrap_generator(name, fn))
                elif name == "quiver.all_relations":
                    self._rebind(fn, self._wrap(name, self._count_kept(fn)))
                else:
                    self._rebind(fn, self._wrap(name, fn))
        for agg, suffix in AGGREGATES.items():
            for attr, fn in list(vars(jsonio).items()):
                if attr.endswith(suffix) and inspect.isfunction(fn):
                    self._rebind(fn, self._wrap("jsonio." + agg, fn))
        gpr = getattr(quiver, "grassmann_pluecker_relations", None)
        if gpr is not None and inspect.isgeneratorfunction(gpr):
            self._rebind(gpr, self._count_yields(gpr))
        return missing

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results --

    def self_times(self):
        duration = {}
        child = defaultdict(float)
        for sid, parent, _, name, start, end in self.spans:
            duration[sid] = (name, end - start)
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, (name, dur) in duration.items():
            out[name] += dur - child[sid]
        return out

    def dets_under_rank(self):
        names = {sid: name for sid, _, _, name, _, _ in self.spans}
        return sum(1 for _, parent, _, name, _, _ in self.spans
                   if name == "puiseux.det" and names.get(parent) == "puiseux.rank_via_minors")

    def top_level_durations(self, name):
        """{op id: [durations of top-level spans called name]}."""
        out = defaultdict(list)
        for _, parent, op, n, start, end in self.spans:
            if n == name and parent is None:
                out[op].append(end - start)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write("%d\t%s\t%s\t%s\t%.9f\t%.9f\n" % (
                    sid, "" if parent is None else parent, op, name, start, end))
