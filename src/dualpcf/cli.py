"""Command-line driver: check, eval, verify, examples.

`check` and `eval` load only the front end and the machine; `verify` and
`examples` import the analysis and corpus modules when they run.

Exit codes: 0 success, 1 parse or type error (or an unreadable FILE,
`eval` of a program of function type, or a failed `verify` case), 2 budget
or refinement ceiling exhausted, or a malformed option or `DUALPCF_BUDGET`
(argparse's usage error), 3 result undetermined.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from .lang import Arrow, ParseError, parse
from .machine import (
    BudgetExhausted, CeilingReached, DEFAULT_BUDGET, Undetermined,
    eval_at_cost, eval_refine,
)
from .numeric import DualInterval, Interval, in_dual
from .typecheck import TypeCheckError, elaborate

EXIT_OK = 0
EXIT_FRONTEND = 1
EXIT_BUDGET = 2
EXIT_UNDETERMINED = 3


def _integer_from(least: int, what: str):
    """The type of an option whose value is an integer of at least
    `least`, named `what` in the usage error."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or n < least:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return n
    return parse


_natural = _integer_from(0, "a natural number")
_positive = _integer_from(1, "a positive integer")


def _width(text: str) -> Fraction:
    """A target width: a non-negative rational (0 asks for exactness)."""
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError):
        q = None
    if q is None or q < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative rational such as 1/256, got {text!r}")
    return q


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            # skip a byte-order mark (`utf-8-sig` would import a codec)
            src = fh.read().removeprefix("\ufeff")
    except OSError as ex:
        raise ParseError(f"cannot read {path}: {ex.strerror or ex}") from None
    except UnicodeDecodeError as ex:
        raise ParseError(f"cannot read {path}: {ex}") from None
    try:
        return elaborate(parse(src), {})
    except RecursionError:
        raise ParseError("program nested too deeply") from None


def _iv_json(iv: Interval) -> dict:
    return {"lo": str(iv.lo), "hi": str(iv.hi)}


def _render(out, cost: int, fmt: str) -> str:
    value = out.value
    if value.__class__ is bool:  # as the language spells it
        value = "tt" if value else "ff"
    if fmt != "json":
        return f"{value}"
    import json

    dv = in_dual(value) if isinstance(value, Interval) else value
    counts = {"cost": cost, "steps": out.steps}
    if isinstance(dv, DualInterval):
        return json.dumps({"std": _iv_json(dv.std), "inf": _iv_json(dv.inf),
                           **counts})
    return json.dumps({"value": str(value), **counts})


def cmd_check(args) -> int:
    try:
        _, ty = _load(args.file)
    except (ParseError, TypeCheckError) as ex:
        print(ex, file=sys.stderr)
        return EXIT_FRONTEND
    print(ty)
    return EXIT_OK


def _eval_term(e, args) -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # a result prints in full, past the limit on an int's digits
        sys.set_int_max_str_digits(0)
    try:
        t0 = time.monotonic()
        if args.width is None:
            cost, out = args.cost, eval_at_cost(e, args.cost, args.budget)
        else:
            try:
                out, cost = eval_refine(e, args.width, budget=args.budget,
                                        cost_ceiling=args.ceiling)
            except CeilingReached as c:
                print(f"ceiling reached at cost {c.cost}; best: {c.best}",
                      file=sys.stderr)
                return EXIT_BUDGET
        if isinstance(out, Undetermined):
            print("undetermined:", out.reason, file=sys.stderr)
            print("undetermined")
            return EXIT_UNDETERMINED
        if isinstance(out, BudgetExhausted):
            print(f"{out.reason} exhausted after {out.steps} steps",
                  file=sys.stderr)
            return EXIT_BUDGET
        print(_render(out, cost, args.format))
        if args.width is not None and args.format == "text":
            print(f"# cost {cost}, {time.monotonic() - t0:.2f}s", file=sys.stderr)
        return EXIT_OK
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def cmd_eval(args) -> int:
    try:
        e, ty = _load(args.file)
    except (ParseError, TypeCheckError) as ex:
        print(ex, file=sys.stderr)
        return EXIT_FRONTEND
    if isinstance(ty, Arrow):
        print(f"cannot evaluate a program of non-ground type {ty}",
              file=sys.stderr)
        return EXIT_FRONTEND
    return _eval_term(e, args)


def cmd_examples(args) -> int:
    from .corpus import CORPUS, load_corpus

    if args.action == "list":
        for name, entry in CORPUS.items():
            flags = " ".join(f for f in
                             (["heavy"] if entry.heavy else []) +
                             (["advanced"] if entry.advanced else []))
            suffix = f"  [{flags}]" if flags else ""
            print(f"{name:28} {entry.description}{suffix}")
        return EXIT_OK
    names = [args.name] if args.name else [
        n for n, e in CORPUS.items() if not e.advanced]
    rc = EXIT_OK
    for name in names:
        if name not in CORPUS:
            print(f"unknown corpus program {name!r}", file=sys.stderr)
            return EXIT_FRONTEND
        e, _ = load_corpus(name)
        print(f"== {name}")
        code = _eval_term(e, args)
        rc = rc or code
    return rc


def cmd_verify(args) -> int:
    import json

    from .analysis import (
        check_L_soundness, check_monotone_refinement, relation_holds,
    )
    from .corpus import (
        CORPUS, FIRST_ORDER_FUNCTIONS, load_corpus, load_first_order,
    )

    ok = True
    seed = args.seed
    if args.suite in ("relations", "all"):
        for name, src in _RELATION_CASES:
            f, ty = elaborate(parse(src), {})
            v = relation_holds(Fraction(1, 8), ty, f, f, f,
                               fuel=args.fuel, seed=seed)
            print(json.dumps({"suite": "relations", "case": name,
                              "verdict": v.holds, "witness": v.detail}))
            ok = ok and v.holds
    if args.suite in ("soundness", "all"):
        pairs = [(0, 1), (1, 1), (Fraction(-1, 2), 1), (Fraction(1, 2), -1),
                 (2, Fraction(1, 2))]
        for name in FIRST_ORDER_FUNCTIONS:
            f = load_first_order(name)
            for x, xp in pairs:
                v = check_L_soundness(f, x, xp)
                print(json.dumps({
                    "suite": "soundness", "case": f"{name}@({x},{xp})",
                    "verdict": v.holds, "witness": v.detail}))
                ok = ok and v.holds
    if args.suite in ("refinement", "all"):
        for name, entry in CORPUS.items():
            e, _ = load_corpus(name)
            top = 4 if entry.heavy else 10
            v = check_monotone_refinement(e, range(top + 1))
            print(json.dumps({"suite": "refinement", "case": name,
                              "verdict": v.holds, "witness": v.detail}))
            ok = ok and v.holds
    print("all suites passed" if ok else "FAILURES detected", file=sys.stderr)
    return EXIT_OK if ok else EXIT_FRONTEND


_RELATION_CASES = [
    ("add", "fun x: delta. fun y: delta. x + y"),
    ("sub", "fun x: delta. fun y: delta. x - y"),
    ("mul", "fun x: delta. fun y: delta. x * y"),
    ("div2", "fun x: delta. x / 2"),
    ("max", "fun x: delta. fun y: delta. max(x, y)"),
    ("min", "fun x: delta. fun y: delta. min(x, y)"),
    ("pr", "fun x: delta. pr x"),
    ("in_delta", "fun x: real. in_delta x"),
    ("int", "fun f: real -> delta. int f"),
    ("sup", "fun f: real -> delta. sup f"),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="dualpcf",
        description="Interpreter for a language computing directional "
                    "derivatives with interval-valued dual numbers")
    sub = ap.add_subparsers(dest="command", required=True)

    def eval_flags(p):
        g = p.add_mutually_exclusive_group()
        g.add_argument("--cost", type=_natural, default=4,
                       help="cost index for a single evaluation")
        g.add_argument("--width", type=_width,
                       help="refine until widths reach this rational target")
        p.add_argument("--ceiling", type=_natural, default=4096,
                       help="cost ceiling for refinement")
        p.add_argument("--budget", type=_natural, default=None,
                       help="global step budget (default from "
                            "DUALPCF_BUDGET or 10^7)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="parse and type-check a program")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("eval", help="evaluate a program")
    p.add_argument("file")
    eval_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("examples", help="list or run the bundled corpus")
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("name", nargs="?",
                   help="program name (default: all non-advanced)")
    eval_flags(p)
    p.set_defaults(fn=cmd_examples)

    p = sub.add_parser("verify", help="run the conformance suites")
    p.add_argument("--suite", default="all",
                   choices=("relations", "soundness", "refinement", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fuel", type=_positive, default=100,
                   help="samples per relation case")
    p.set_defaults(fn=cmd_verify)

    args = ap.parse_args(argv)
    if "budget" in vars(args) and args.budget is None:
        env = os.environ.get("DUALPCF_BUDGET")
        try:
            args.budget = _natural(env) if env else DEFAULT_BUDGET
        except argparse.ArgumentTypeError as ex:
            ap.error(f"DUALPCF_BUDGET: {ex}")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
