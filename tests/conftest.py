"""Helpers shared by the test modules."""
import importlib.util
import sys
from pathlib import Path

from dualpcf.lang import App, If, Lam, Var
from dualpcf.machine import GROUND_RULES, Machine, _lit, _unlit


def bench_workloads():
    """The benchmark's `bench/workloads.py`, loaded once."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules.get(spec.name)
    if workloads is None:
        workloads = sys.modules[spec.name] = \
            importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    return workloads


class _Forgetful(dict):
    """A sharing table that stores nothing, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


def unshared(patch):
    """Give every run of `Machine` a sharing table that stores nothing:
    every marked application runs.  A range run's miss on a key holding
    its own cell runs as the ticking loop's cell would, and any other miss
    hands the range back, so those cells tick.  This is the unshared
    reference, whose values, steps and budget stops a shared run must
    repeat with no step replayed.  `patch` is a `MonkeyPatch`."""
    table = _Forgetful()
    patch.setattr(Machine, "_memo",
                  property(lambda m: table, lambda m, value: None))


def _own_rule(name):
    """An `overrides` entry that fires the constant's own rule."""
    return lambda carrier, vals: _lit(
        GROUND_RULES[name, carrier](*map(_unlit, vals)))


# `+` and `/` overridden by their own rules: an int then keeps the literal
# combining tree of `l/2 + r/2` instead of one running sum of its cells
TREE = {"+": _own_rule("+"), "/": _own_rule("/")}


def ticking(patch):
    """Run every cell of a bisection through the ticking loop: no range
    runs and no closed form.  `patch` is a `MonkeyPatch`."""
    patch.setattr(Machine, "_pieces",
                  lambda m, fv, total, lo, hi, n: (lo, hi))


def marks(e):
    """The `App.free` of each application in e, in pre-order."""
    if isinstance(e, App):
        return [e.free] + marks(e.fn) + marks(e.arg)
    if isinstance(e, Lam):
        return marks(e.body)
    if isinstance(e, If):
        return marks(e.cond) + marks(e.then) + marks(e.els)
    return []


def reference_marks(e, x=None):
    """The reference for the elaborator's sharing marks, made by a second
    walk over the finished term: e's free variables, and what `marks`
    should read on e when the nearest lambda above e binds x.  An
    application under a lambda that does not mention that lambda's
    variable is marked with its free variables, sorted."""
    if isinstance(e, Var):
        return {e.name}, []
    if isinstance(e, App):
        fv_fn, fn_marks = reference_marks(e.fn, x)
        fv_arg, arg_marks = reference_marks(e.arg, x)
        fv = fv_fn | fv_arg
        mark = tuple(sorted(fv)) if x is not None and x not in fv else None
        return fv, [mark] + fn_marks + arg_marks
    if isinstance(e, Lam):
        fv, body_marks = reference_marks(e.body, e.var)
        return fv - {e.var}, body_marks
    if isinstance(e, If):
        parts = [reference_marks(p, x) for p in (e.cond, e.then, e.els)]
        return (set().union(*(fv for fv, _ in parts)),
                [m for _, ms in parts for m in ms])
    return set(), []
