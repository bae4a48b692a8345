"""Interpreter and conformance tools for a typed functional language whose
evaluator computes directional derivatives with interval-valued dual numbers."""

from .numeric import DualInterval, Interval
from .lang import ParseError, parse, print_expr
from .typecheck import TypeCheckError, typecheck, elaborate
from .machine import (
    BudgetExhausted, CeilingReached, Machine, Outcome, Undetermined, Value,
    eval_at_cost, eval_dual, eval_refine,
)

__all__ = [
    "DualInterval", "Interval", "ParseError", "parse", "print_expr",
    "TypeCheckError", "typecheck", "elaborate", "Machine", "Outcome",
    "Value", "Undetermined", "BudgetExhausted", "CeilingReached",
    "eval_at_cost", "eval_dual", "eval_refine", "run_steps", "step",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # the literal reducer loads on first use, so start-up does not compile it
    if name in ("step", "run_steps"):
        from . import reducer
        return getattr(reducer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
