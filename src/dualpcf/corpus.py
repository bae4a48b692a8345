"""The bundled example corpus and a registry of first-order functions.

Each corpus entry names a `.dpcf` source shipped with the package, a
human description, and the expected limit value when one is known in
closed form.  `heavy` marks programs whose cost scales exponentially in
the nesting depth of integration, so refinement sweeps cap their cost.
"""
from __future__ import annotations

from fractions import Fraction
from importlib import resources
from typing import Dict, Optional, Tuple

from .lang import Expr, parse
from .typecheck import elaborate


class CorpusEntry:
    __slots__ = ("name", "description", "expected", "heavy", "advanced")

    def __init__(self, name: str, description: str,
                 expected: Optional[Fraction], heavy: bool = False,
                 advanced: bool = False):
        self.name = name
        self.description = description
        self.expected = expected  # known limit point, if any
        self.heavy = heavy  # nested integration: cost grows as 2^(k*n)
        self.advanced = advanced  # excluded from default sweeps


CORPUS: Dict[str, CorpusEntry] = {e.name: e for e in [
    CorpusEntry("abs_deriv",
                "subgradient interval of |x| at 0", None),
    CorpusEntry("chebyshev_functional",
                "derivative of the squaring functional at g(u)=u^2, y=1/2",
                Fraction(1, 4)),
    CorpusEntry("linear_functional",
                "derivative of int along g=id equals int g = 1/2",
                Fraction(1, 2)),
    CorpusEntry("lagrangian_action",
                "action functional with a nested inner integral",
                Fraction(1, 2), heavy=True),
    CorpusEntry("ivp_const_field",
                "Picard iteration for x'=1, x(0)=0 at t=1/2",
                Fraction(1, 2)),
    CorpusEntry("legendre_fenchel_halfsq",
                "Legendre-Fenchel transform of x^2/2 at p=1/2",
                Fraction(1, 8)),
    CorpusEntry("nested_int_xyz",
                "triple integral of xyz over the unit cube",
                Fraction(1, 8), heavy=True),
    CorpusEntry("int_id",
                "integral of the identity over [0,1]", Fraction(1, 2)),
    CorpusEntry("sup_id",
                "supremum of the identity over [0,1]", Fraction(1)),
    CorpusEntry("cbrt_sup",
                "cube root of 1/2 by penalized maximization",
                None, advanced=True),
]}


def corpus_source(name: str) -> str:
    if name not in CORPUS:
        raise KeyError(f"unknown corpus program {name!r}")
    return (resources.files("dualpcf") / "corpus"
            / f"{name}.dpcf").read_text(encoding="utf-8")


def load_corpus(name: str) -> Tuple[Expr, "Type"]:
    """Parse and elaborate a corpus program; returns (term, type)."""
    return elaborate(parse(corpus_source(name)), {})


# Closed first-order functions of type delta -> delta, used by the
# derivative-soundness and logical-relation suites.
FIRST_ORDER_FUNCTIONS: Dict[str, str] = {
    "identity": "fun x: delta. x",
    "negate": "fun x: delta. 0 - x",
    "const_two": "fun x: delta. in_delta 2",
    "square": "fun x: delta. x * x",
    "cube": "fun x: delta. x * x * x",
    "abs": "fun x: delta. max(x, 0 - x)",
    "relu": "fun x: delta. max(x, 0)",
    "neg_relu": "fun x: delta. min(x, 0)",
    "clamp": "fun x: delta. pr x",
    "clamp_shift": "fun x: delta. pr (x - 1)",
    "abs_shift": "fun x: delta. max(x - 1, 1 - x)",
    "poly_cubic": "fun x: delta. x * x * x - 2 * x + 1",
    "half": "fun x: delta. x / 2",
    "double": "fun x: delta. x + x",
    "max_quad_lin": "fun x: delta. max(x * x, x)",
    "min_quad_lin": "fun x: delta. min(x * x, x)",
    "wedge": "fun x: delta. max(0 - x, x - 1)",
    "double_kink": "fun x: delta. max(max(x, 0 - x) - 1, 1 - max(x, 0 - x))",
    "relu_quad": "fun x: delta. max(x * x - 1, 0)",
    "tent": "fun x: delta. min(x + 1, 1 - x)",
}


def load_first_order(name: str) -> Expr:
    e, _ = elaborate(parse(FIRST_ORDER_FUNCTIONS[name]), {})
    return e
