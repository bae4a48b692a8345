"""Instrumentation for the traced run, applied from outside the program.

`Tracer` wraps the public functions of each layer, wherever a `dualpcf`
module binds them, with spans (name, start, end, parent span, op id) kept
in memory.  `RepeatCounter` wraps `Machine.evalc` to measure how much
application work repeats within one evaluation.  `profile_split` groups a
cProfile run by source module.  Every wrapper is removed by `restore`.
"""
from __future__ import annotations

import json
import pstats
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from dualpcf import analysis, cli, lang, machine
from workloads import typecheck

# Span name -> (owner, attribute).  Functions are patched in every dualpcf
# module that imported them by name; methods on their class.
SPAN_POINTS = {
    "lang.parse": (lang, "parse"),
    "typecheck.elaborate": (typecheck, "elaborate"),
    "machine.eval_at_cost": (machine.Machine, "eval_at_cost"),
    "machine.eval_refine": (machine, "eval_refine"),
    "analysis.check_L_soundness": (analysis, "check_L_soundness"),
    "analysis.finite_diff_oracle": (analysis, "finite_diff_oracle"),
    "cli.main": (cli, "main"),
}
NAME, START, END, PARENT, OP, STEPS = range(6)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace_everywhere(self, owner, attr, make_wrapper):
        orig = getattr(owner, attr)
        wrapper = make_wrapper(orig)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").split(".")[0] == "dualpcf"
                    and getattr(mod, attr, None) is orig):
                self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer(Patches):
    """Spans around the layer calls made while `op` is set."""

    def __init__(self):
        super().__init__()
        self.spans = []  # [name, start, end, parent index, op id, steps]
        self._stack = []
        self.op = None  # current op id; None: record nothing
        for name, (owner, attr) in SPAN_POINTS.items():
            self.replace_everywhere(owner, attr,
                                    lambda fn, name=name: self._wrap(name, fn))

    def _wrap(self, name, fn):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = [name, clock(), None, self._stack[-1] if self._stack else -1,
                   self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if isinstance(out, machine.Outcome):
                    rec[STEPS] = out.steps
                return out
            finally:
                rec[END] = clock()
                self._stack.pop()
        return wrapper

    @contextmanager
    def span(self, name, op):
        """A root span around one op, recorded by the benchmark itself."""
        rec = [name, time.perf_counter(), None, -1, op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self.op = op
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
            self.op = None

    def self_times(self):
        """Span duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self):
        own = self.self_times()
        by_name = defaultdict(float)
        for s, t in zip(self.spans, own):
            by_name[s[NAME]] += t
        evals = [s for s in self.spans if s[NAME] == "machine.eval_at_cost"]
        steps = sum(s[STEPS] for s in evals)
        eval_s = sum(s[END] - s[START] for s in evals)
        # An evaluation inside eval_refine is wasted unless it is the last
        # one of its refinement chain, whose value is returned.
        chains = defaultdict(list)
        for s in evals:
            if s[PARENT] >= 0 and self.spans[s[PARENT]][NAME] == "machine.eval_refine":
                chains[s[PARENT]].append(s[STEPS])
        refine_steps = sum(sum(c) for c in chains.values())
        wasted = sum(sum(c[:-1]) for c in chains.values())
        verdicts = sum(1 for s in self.spans
                       if s[NAME] == "analysis.check_L_soundness")
        verdict_evals = sum(1 for s in evals if self._under(s, "analysis.check_L_soundness"))
        return {
            "lang.parse_ms": 1e3 * by_name["lang.parse"],
            "typecheck.elaborate_ms": 1e3 * by_name["typecheck.elaborate"],
            "machine.evals": len(evals),
            "machine.steps": steps,
            "machine.eval_ms": 1e3 * eval_s,
            "machine.us_per_step": 1e6 * eval_s / steps if steps else 0.0,
            "machine.refine_waste_frac": wasted / refine_steps if refine_steps else 0.0,
            "analysis.self_s": (by_name["analysis.check_L_soundness"]
                                + by_name["analysis.finite_diff_oracle"]),
            "analysis.evals_per_verdict": verdict_evals / verdicts if verdicts else 0.0,
        }

    def _under(self, span, name):
        while span[PARENT] >= 0:
            span = self.spans[span[PARENT]]
            if span[NAME] == name:
                return True
        return False

    def dump(self, path):
        """Write the spans as JSON lines, times relative to the first."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "parent": s[PARENT], "op": s[OP],
                    "start_us": round(1e6 * (s[START] - t0), 1),
                    "end_us": round(1e6 * (s[END] - t0), 1),
                    "steps": s[STEPS]}) + "\n")


class RepeatCounter(Patches):
    """Share of `Machine.evalc` calls on an application whose (term, tag)
    pair is structurally equal to one already evaluated in the same
    `eval_at_cost`: the work that memoizing by (term, tag) would skip."""

    def __init__(self):
        super().__init__()
        self.apps = 0
        self.repeats = 0
        self._seen = set()
        self.active = False  # count only inside the benchmark's ops
        self.replace_everywhere(machine.Machine, "evalc", self._wrap_evalc)
        self.replace_everywhere(machine.Machine, "eval_at_cost",
                                self._wrap_eval_at_cost)

    def _wrap_evalc(self, fn):
        def evalc(machine_self, e, tag):
            if not self.active:
                return fn(machine_self, e, tag)
            term, t = e, tag
            while isinstance(term, lang.CostTagged):
                t = term.n
                term = term.expr
            if isinstance(term, lang.App):
                self.apps += 1
                key = (term, t)
                if key in self._seen:
                    self.repeats += 1
                else:
                    self._seen.add(key)
            return fn(machine_self, e, tag)
        return evalc

    def _wrap_eval_at_cost(self, fn):
        def eval_at_cost(machine_self, e, n):
            self._seen = set()
            return fn(machine_self, e, n)
        return eval_at_cost

    @contextmanager
    def counting(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    @property
    def share(self):
        return self.repeats / self.apps if self.apps else 0.0


SUBST_FUNCS = {"subst", "_subst", "free_vars", "fresh_var"}


def profile_split(profile):
    """Self time and call counts of a cProfile run, grouped by layer."""
    stats = pstats.Stats(profile).stats
    out = defaultdict(float)
    for (path, _line, func), (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        if path == "~":
            group = "builtins"
        elif path.endswith("/fractions.py"):
            group = "fractions"
            if func == "__new__":
                out["fractions.new"] += ncalls
        elif "/dualpcf/" in path:
            group = path.rsplit("/", 1)[1][:-3]
            if group == "lang" and func in SUBST_FUNCS:
                group = "subst"
        else:
            group = "other"
        out[f"{group}.self_s"] += tottime
        out[f"{group}.calls"] += ncalls
    return dict(out)
