"""Interpreter and conformance tools for a typed functional language whose
evaluator computes directional derivatives with interval-valued dual numbers."""

from .numeric import DualInterval, Interval
from .lang import ParseError, parse, print_expr
from .typecheck import TypeCheckError, elaborate
from .machine import (
    BudgetExhausted, CeilingReached, Machine, Outcome, Undetermined, Value,
    eval_at_cost, eval_refine,
)

__all__ = [
    "DualInterval", "Interval", "ParseError", "parse", "print_expr",
    "TypeCheckError", "elaborate", "Machine", "Outcome", "Value",
    "Undetermined", "BudgetExhausted", "CeilingReached", "eval_at_cost",
    "eval_refine",
]

__version__ = "0.1.0"
