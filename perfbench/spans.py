"""Span recorder for the traced run, installed from outside the package.

Wrappers replace the names one module imports from another (for example
`astable.stable.reduct`, the `reduct` that `stable` calls), so a function is
never patched inside its own module and recursion stays one span.  The
exceptions do not recurse: `astable.splitting.plan_split`, whose only caller
on the CLI path is `modular_solve` in the same module, and `ModelSet.lines`,
replaced on its class for the model printing of `cli`.

Each span holds its name, start, end, busy time, parent and command id.
Busy time equals end - start for a call; a generator is timed over its
consumption, so its busy time is the sum of the time spent inside `next`,
and work its consumer does between items is not charged to it.  Spans are
kept in flat arrays in memory and written out once the run ends.
"""

from __future__ import annotations

import functools
import gzip
import logging
import time
from array import array
from collections import Counter
from pathlib import Path

clock = time.perf_counter


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.parent = array("i")
        self.cmd_of = array("i")
        self.stack: list[int] = []
        self.cmd = -1
        self.counts: Counter = Counter()
        self.suites: dict[str, list[float]] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int, t: float) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.start.append(t)
        self.end.append(t)
        self.busy.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.cmd_of.append(self.cmd)
        self.stack.append(sid)
        return sid

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tbusy\tparent\tcmd\n")
            names = self.names
            for sid in range(len(self.name)):
                fh.write(f"{sid}\t{names[self.name[sid]]}\t{self.start[sid]:.9f}\t"
                         f"{self.end[sid]:.9f}\t{self.busy[sid]:.9f}\t"
                         f"{self.parent[sid]}\t{self.cmd_of[sid]}\n")


def _call_wrapper(rec: Recorder, fn, name: str, hook=None):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        t0 = clock()
        sid = rec.open(nid, t0)
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = clock()
            rec.stack.pop()
            rec.end[sid] = t1
            rec.busy[sid] = t1 - t0
        if hook is not None:
            hook(args, result, t1 - t0)
        return result

    return traced


def _count_wrapper(rec: Recorder, fn, key: str):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rec.counts[key] += 1
        return fn(*args, **kwargs)

    return counted


def _truth_chunks_wrapper(rec: Recorder, fn):
    """The candidate sweep is the call without fixed context atoms; the
    minimality check passes the extensional context as `true_atoms`."""
    sweep_id = rec.name_id("formula.sweep")
    other_id = rec.name_id("formula.truth_chunks")

    @functools.wraps(fn)
    def traced(f, var_atoms, *rest, **kwargs):
        sweep = not rest and "true_atoms" not in kwargs
        nid = sweep_id if sweep else other_id
        if sweep:
            rec.counts["formula.sweep_calls"] += 1
            rec.counts["formula.assignments"] += 1 << len(var_atoms)
        it = fn(f, var_atoms, *rest, **kwargs)
        sid = None
        try:
            while True:
                t0 = clock()
                if sid is None:
                    sid = rec.open(nid, t0)
                else:
                    rec.stack.append(sid)
                try:
                    chunk = next(it, None)  # the chunks are ints, never None
                finally:
                    t1 = clock()
                    rec.stack.pop()
                    rec.end[sid] = t1
                    rec.busy[sid] += t1 - t0
                if chunk is None:
                    return
                if sweep:
                    rec.counts["stable.candidates"] += chunk.bit_count()
                yield chunk
        finally:
            it.close()

    return traced


class _FallbackCounter(logging.Handler):
    def __init__(self, rec: Recorder):
        super().__init__(logging.WARNING)
        self.rec = rec

    def emit(self, record: logging.LogRecord) -> None:
        if "falling back" in record.getMessage():
            self.rec.counts["splitting.fallbacks"] += 1


class _ModuleProxy:
    """Stands in for a module imported whole (`from . import fo`), so that
    only the importer's view of it is wrapped."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(rec: Recorder):
    """Install every wrapper; returns a function that removes them."""
    import astable.cli as cli
    import astable.definitions as definitions
    import astable.fo as fo
    import astable.splitting as splitting
    import astable.stable as stable
    import astable.verifier as verifier

    c = rec.counts
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, make):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def span(name, hook=None):
        return lambda fn: _call_wrapper(rec, fn, name, hook)

    def on_models(args, result, dt):
        c["stable.enumerate_calls"] += 1
        c["stable.models"] += len(result)

    def on_pair(args, result, dt):
        c["splitting.pair_checks"] += 1
        c["splitting.pair_accepts"] += bool(result)

    def on_graph(args, result, dt):
        c["depgraph.vertices"] += len(result.vertices)
        c["depgraph.edges"] += len(result.edges)

    def on_plan(args, result, dt):
        c["splitting.blocks"] += len(result.blocks)
        widest = max((len(atoms) for atoms, _ in result.blocks), default=0)
        c["splitting.widest_block"] = max(c["splitting.widest_block"], widest)

    def on_ground(args, result, dt):
        c["fo.ground_conjuncts"] += len(result)

    def on_check(args, result, dt):
        c["definitions.pairs"] += len(result.pairs or ())

    def on_suite(args, result, dt):
        stats = rec.suites.setdefault(args[0], [0, 0, 0.0])
        stats[0] += result.passes + result.fails
        stats[1] += result.passes + result.fails + result.skipped_draws
        stats[2] += dt

    parse = span("syntax.parse")
    patch(cli, "parse_program", parse)
    patch(cli, "parse_atom_list", parse)
    patch(cli, "format_program", span("syntax.format"))
    patch(stable.ModelSet, "lines", span("syntax.format"))
    ground = span("fo.ground")
    patch(cli, "fo", lambda mod: _ModuleProxy(
        mod,
        parse_fo_program=ground(mod.parse_fo_program),
        ground_program=span("fo.ground", on_ground)(mod.ground_program),
    ))
    for owner in (cli, splitting, definitions, verifier):
        patch(owner, "enumerate_a_stable", span("stable.enumerate", on_models))
    patch(stable, "truth_chunks", lambda fn: _truth_chunks_wrapper(rec, fn))
    patch(stable, "reduct", span("formula.reduct"))
    for owner in (stable, splitting, definitions):
        patch(owner, "satisfies", lambda fn: _count_wrapper(rec, fn, "formula.satisfies_calls"))
    patch(splitting, "is_a_stable", span("stable.is_a_stable", on_pair))
    patch(splitting, "dep_graph", span("depgraph.graph", on_graph))
    patch(splitting, "sccs", span("depgraph.scc"))
    patch(splitting, "plan_split", span("splitting.plan", on_plan))
    patch(cli, "modular_solve", span("splitting.modular"))
    patch(cli, "split_models_lemma", span("splitting.lemma"))
    patch(cli, "recognize_definition", span("definitions.recognize"))
    patch(cli, "check_conservativity", span("definitions.check", on_check))
    patch(cli, "run_suite", span("verifier.run_suite", on_suite))

    handler = _FallbackCounter(rec)
    split_log = logging.getLogger("astable.splitting")
    split_log.addHandler(handler)

    def uninstall():
        split_log.removeHandler(handler)
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


# Time metrics: (metric, span name, "busy" for inclusive time or "self").
TIME_METRICS = (
    ("syntax.parse_s", "syntax.parse", "busy"),
    ("syntax.format_s", "syntax.format", "busy"),
    ("fo.ground_s", "fo.ground", "busy"),
    ("formula.sweep_s", "formula.sweep", "busy"),
    ("formula.reduct_s", "formula.reduct", "busy"),
    ("stable.enumerate_s", "stable.enumerate", "busy"),
    ("stable.is_a_stable_s", "stable.is_a_stable", "busy"),
    ("depgraph.graph_s", "depgraph.graph", "busy"),
    ("depgraph.scc_s", "depgraph.scc", "busy"),
    ("splitting.plan_s", "splitting.plan", "busy"),
    ("splitting.modular_s", "splitting.modular", "self"),
    ("splitting.lemma_s", "splitting.lemma", "busy"),
    ("definitions.recognize_s", "definitions.recognize", "busy"),
    ("definitions.check_s", "definitions.check", "self"),
)


def derive(rec: Recorder, cmd_wall_s: float) -> dict[str, float]:
    """Per-layer sums over the traced run, from the spans and counters."""
    n = len(rec.name)
    names = rec.names
    child_busy = array("d", bytes(8 * n))
    enum_sweep = array("d", bytes(8 * n))
    root_busy = 0.0
    sweep_id = rec._ids.get("formula.sweep", -1)
    enum_id = rec._ids.get("stable.enumerate", -1)
    for sid in range(n):
        p = rec.parent[sid]
        b = rec.busy[sid]
        if p < 0:
            root_busy += b
            continue
        child_busy[p] += b
        if rec.name[sid] == sweep_id and rec.name[p] == enum_id:
            enum_sweep[p] += b
    busy: Counter = Counter()
    self_time: Counter = Counter()
    minimality = 0.0
    for sid in range(n):
        name = names[rec.name[sid]]
        busy[name] += rec.busy[sid]
        self_time[name] += rec.busy[sid] - child_busy[sid]
        if rec.name[sid] == enum_id:
            minimality += rec.busy[sid] - enum_sweep[sid]

    out: dict[str, float] = {}
    for metric, span_name, kind in TIME_METRICS:
        out[metric] = (busy if kind == "busy" else self_time)[span_name]
    out["stable.minimality_s"] = minimality
    out["cli.overhead_s"] = cmd_wall_s - root_busy
    for metric in [m for m in out if m.endswith("_s")]:
        out[metric[:-2] + "_share"] = out[metric] / cmd_wall_s if cmd_wall_s else 0.0

    c = rec.counts
    for key in ("fo.ground_conjuncts", "formula.assignments", "formula.sweep_calls",
                "formula.satisfies_calls", "stable.candidates", "stable.models",
                "stable.enumerate_calls", "depgraph.vertices", "depgraph.edges",
                "splitting.blocks", "splitting.widest_block", "splitting.pair_checks",
                "splitting.fallbacks", "definitions.pairs"):
        out[key] = c[key]
    counts = Counter(rec.name)
    out["formula.reduct_calls"] = counts[rec._ids.get("formula.reduct", -1)]
    out["stable.is_a_stable_calls"] = counts[rec._ids.get("stable.is_a_stable", -1)]
    out["stable.yield"] = _ratio(c["stable.models"], c["stable.candidates"])
    out["splitting.pair_yield"] = _ratio(c["splitting.pair_accepts"], c["splitting.pair_checks"])

    cases = sum(s[0] for s in rec.suites.values())
    draws = sum(s[1] for s in rec.suites.values())
    secs = sum(s[2] for s in rec.suites.values())
    out["verifier.cases"] = cases
    out["verifier.draws"] = draws
    out["verifier.cases_per_s"] = _ratio(cases, secs)
    out["verifier.skip_ratio"] = _ratio(draws - cases, draws)
    return out


def suite_metrics(rec: Recorder, suites) -> dict[str, float]:
    out = {}
    for suite in suites:
        cases, draws, secs = rec.suites.get(suite, (0, 0, 0.0))
        out[f"verifier.{suite}.cases_per_s"] = _ratio(cases, secs)
        out[f"verifier.{suite}.skip_ratio"] = _ratio(draws - cases, draws)
    return out


def _ratio(num: float, den: float) -> float:
    """num / den, reported as 0 when the base is 0 (the layer did no work)."""
    return num / den if den else 0.0
