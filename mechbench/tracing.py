"""Span recorder for the traced run, and the per-layer metrics derived from it.

A span is one call across a layer boundary: ``[id, parent, op, name,
start_ns, end_ns, info]``.  Spans are recorded only while an op is open,
so the output checks, which call the same library functions, leave no
trace.  The recorder wraps two kinds of target:

* the algorithm, pivot and appeal objects a workload passes in
  (:class:`TracingHooks`);
* the module-level functions the mechanisms look up by name at call time
  (:func:`patch_modules`), in the traced process only.

A span's self time is its duration minus its children's; the op's own self
time is the part of the op no layer span covers, reported as unattributed.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from typing import Any, Callable

from mechlab import cmap, core, payments, second_chance, wd

from workloads import Hooks

SOLVERS = ("wd.optimal", "wd.greedy", "wd.affine_pref", "wd.affine_nopref")


class Recorder:
    """In-memory span store for one traced process (single thread)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None

    def begin_op(self, op: int) -> None:
        self.op = op
        self._open("op")

    def end_op(self) -> None:
        self._close(self.stack[-1])
        self.op = None

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        span = [len(self.spans), parent, self.op, name, 0, 0, None]
        self.spans.append(span)
        self.stack.append(span[0])
        span[4] = time.perf_counter_ns()
        return span

    def _close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        """``fn`` recorded as span ``name``; ``info(args, result)`` is stored on return."""

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span[0])
            if info is not None:
                span[6] = info(args, result)
            return result

        return traced

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start_ns", "end_ns", "info")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class TracedAppeal(second_chance.Appeal):
    """Records each top-level appeal evaluation with its steps and outcome."""

    def __init__(self, recorder: Recorder, inner: second_chance.Appeal):
        self.recorder = recorder
        self.inner = inner

    def transform(self, profile, meter):
        rec = self.recorder
        if rec.op is None:
            return self.inner.transform(profile, meter)
        before = meter.consumed
        span = rec._open("second_chance.appeal")
        result = None
        try:
            result = self.inner.transform(profile, meter)
        finally:
            rec._close(span[0])
            span[6] = {"steps": meter.consumed - before, "suggested": int(result is not None)}
        return result

    def step_bound(self, num_agents: int) -> int:
        return self.inner.step_bound(num_agents)


class TracingHooks(Hooks):
    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._atoms: dict[int, tuple[Any, int]] = {}

    def _atom_count(self, args, result) -> dict:
        total = 0
        for v in args[0].valuations:
            entry = self._atoms.get(id(v))
            if entry is None or entry[0] is not v:
                entry = self._atoms[id(v)] = (v, len(v.atoms()))
            total += entry[1]
        return {"atoms": total}

    def algorithm(self, alg, name):
        info = self._atom_count if name == "greedy" else None
        return wd.AllocationAlgorithm(alg.name, alg.kind,
                                      self.recorder.wrap(f"wd.{name}", alg.fn, info))

    def pivot(self, pivot):
        return payments.PivotRule(pivot.name, self.recorder.wrap("payments.pivot", pivot.fn))

    def appeal(self, appeal):
        return TracedAppeal(self.recorder, appeal)

    def cmap_algorithm(self, alg, name):
        return cmap.CmapAlgorithm(alg.name, alg.kind, self.recorder.wrap(f"cmap.{name}", alg.fn))

    def run(self, fn, layer):
        return self.recorder.wrap(f"{layer}.run", fn)


def patch_modules(recorder: Recorder, hooks: TracingHooks) -> None:
    """Wrap the functions mechanisms look up by name, for the rest of the process."""
    wd.solve_optimal = recorder.wrap("wd.optimal", wd.solve_optimal)
    welfare = recorder.wrap("core.welfare", core.welfare)
    for module in (wd, payments, second_chance):
        module.welfare = welfare

    closure, clarke = second_chance.lowest_type_closure, second_chance.clarke_pivot

    def traced_closure(alg):
        inner = closure(alg)
        return wd.AllocationAlgorithm(
            inner.name, inner.kind, recorder.wrap("second_chance.closure", inner.fn))

    second_chance.lowest_type_closure = traced_closure
    second_chance.clarke_pivot = lambda alg, **kw: hooks.pivot(clarke(alg, **kw))

    cmap.solve_cmap_optimal = recorder.wrap("cmap.solve_optimal", cmap.solve_cmap_optimal)
    cmap._dijkstra_path = recorder.wrap("cmap.label_setting", cmap._dijkstra_path)
    cmap.cmap_welfare = recorder.wrap("cmap.welfare", cmap.cmap_welfare)
    cmap.GraphCmap.outputs = recorder.wrap(
        "cmap.outputs", cmap.GraphCmap.outputs,
        lambda args, result: {"allowable": len(result), "masks": 1 << len(args[0].edges)})


def summarize(spans: list[list], op_cal_ns: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of the traced ops ``0 .. len(op_cal_ns)-1``.

    Returns ``(counts, times)``: counts are exact functions of the inputs
    and must repeat between runs of one seed.  Times are in calibrated
    milliseconds: each span of op ``k`` is divided by that op's calibration
    kernel time ``op_cal_ns[k]`` (see ``worker.py``).
    """
    ops = len(op_cal_ns)
    calls: dict[str, int] = defaultdict(int)
    total_ms: dict[str, float] = defaultdict(float)
    self_ms: dict[str, float] = defaultdict(float)
    info: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    by_id = {s[0]: s for s in spans}
    for s in spans:
        duration = (s[5] - s[4]) / op_cal_ns[s[2]]
        calls[s[3]] += 1
        total_ms[s[3]] += duration
        self_ms[s[3]] += duration
        if s[1] is not None:
            self_ms[by_id[s[1]][3]] -= duration
        for key, value in (s[6] or {}).items():
            info[s[3]][key] += value
    solves_under_pivot = 0
    for s in spans:
        if s[3] in SOLVERS:
            parent = s[1]
            while parent is not None and by_id[parent][3] != "payments.pivot":
                parent = by_id[parent][1]
            solves_under_pivot += parent is not None

    if calls["op"] != ops:
        raise AssertionError(f"{calls['op']} op spans for {ops} ops")
    if not math.isclose(sum(self_ms.values()), total_ms["op"], rel_tol=1e-9):
        raise AssertionError("self times do not add up to the traced op time")

    def per_op(name):
        return calls[name] / ops

    def ratio(num, den):
        return num / den if den else 0.0

    appeal = info["second_chance.appeal"]
    outputs = info["cmap.outputs"]
    counts = {
        "wd.optimal.calls_per_op": per_op("wd.optimal"),
        "wd.greedy.calls_per_op": per_op("wd.greedy"),
        "wd.greedy.atoms_per_call": ratio(info["wd.greedy"]["atoms"], calls["wd.greedy"]),
        "wd.affine.calls_per_op": per_op("wd.affine_pref") + per_op("wd.affine_nopref"),
        "payments.pivot.calls_per_op": per_op("payments.pivot"),
        "payments.pivot.solves_per_pivot": ratio(solves_under_pivot, calls["payments.pivot"]),
        "second_chance.appeal.calls_per_op": per_op("second_chance.appeal"),
        "second_chance.appeal.steps_per_call": ratio(appeal["steps"], calls["second_chance.appeal"]),
        "second_chance.appeal.suggest_ratio": ratio(appeal["suggested"], calls["second_chance.appeal"]),
        "second_chance.closure.calls_per_op": per_op("second_chance.closure"),
        "second_chance.candidates_per_op": (
            ratio(calls["payments.run"] + appeal["suggested"], ops)
            if calls["second_chance.appeal"] else 0.0),
        "core.welfare.calls_per_op": per_op("core.welfare"),
        "cmap.outputs.calls_per_op": per_op("cmap.outputs"),
        "cmap.outputs.allowable_ratio": ratio(outputs["allowable"], outputs["masks"]),
        "cmap.solve_optimal.calls_per_op": per_op("cmap.solve_optimal"),
        "cmap.welfare.calls_per_op": per_op("cmap.welfare"),
    }

    op_ms = total_ms["op"]

    def ms_per_call(*names):
        return ratio(sum(total_ms[n] for n in names), sum(calls[n] for n in names))

    times = {
        "wd.optimal.ms_per_call": ms_per_call("wd.optimal"),
        "wd.optimal.busy_frac": total_ms["wd.optimal"] / op_ms,
        "wd.greedy.ms_per_call": ms_per_call("wd.greedy"),
        "wd.greedy.busy_frac": total_ms["wd.greedy"] / op_ms,
        "wd.affine.ms_per_call": ms_per_call("wd.affine_pref", "wd.affine_nopref"),
        "wd.affine_pref.ms_per_call": ms_per_call("wd.affine_pref"),
        "wd.affine_nopref.ms_per_call": ms_per_call("wd.affine_nopref"),
        "payments.pivot.self_ms_per_op": self_ms["payments.pivot"] / ops,
        "payments.run.self_frac": ratio(self_ms["payments.run"], total_ms["payments.run"]),
        "second_chance.appeal.self_ms_per_call": (
            ratio(self_ms["second_chance.appeal"], calls["second_chance.appeal"])),
        "core.welfare.busy_frac": total_ms["core.welfare"] / op_ms,
        "cmap.outputs.ms_per_call": ms_per_call("cmap.outputs"),
        "cmap.label_setting.ms_per_call": ms_per_call("cmap.label_setting"),
        "cmap.heuristic.ms_per_call": ms_per_call("cmap.heuristic"),
        "trace.unattributed_frac": self_ms["op"] / op_ms,
        "trace.op_ms": op_ms / ops,
    }
    return counts, times
