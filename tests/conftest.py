"""Helpers shared by the test modules."""
import importlib.util
import sys
from pathlib import Path

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
