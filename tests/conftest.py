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


def alpha_eq(a, b, env=None) -> bool:
    """Alpha-equivalence on surface terms."""
    env = env or {}
    if isinstance(a, Var) and isinstance(b, Var):
        return env.get(a.name, a.name) == b.name
    if isinstance(a, Lam) and isinstance(b, Lam):
        return a.ty == b.ty and alpha_eq(a.body, b.body, {**env, a.var: b.var})
    if isinstance(a, App) and isinstance(b, App):
        return alpha_eq(a.fn, b.fn, env) and alpha_eq(a.arg, b.arg, env)
    if isinstance(a, If) and isinstance(b, If):
        return (alpha_eq(a.cond, b.cond, env) and alpha_eq(a.then, b.then, env)
                and alpha_eq(a.els, b.els, env))
    return a == b
