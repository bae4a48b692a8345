"""The four benchmark workloads.

Each workload builds its inputs from a seed (its set-up), lists its ops,
runs one op at a time (`run`, the timed call) and checks one op's output
(`check`, untimed).  `check` returns None for a correct op or a one-line
reason; it compares the printed enclosure with the golden file recorded
by `record_golden.py` and, where one is known, with an exact value
computed here independently of the interpreter.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in README.md next to this file.
"""
from __future__ import annotations

import importlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"

from dualpcf import analysis, cli, lang, machine  # noqa: E402
from dualpcf.corpus import CORPUS, FIRST_ORDER_FUNCTIONS  # noqa: E402
from dualpcf.numeric import DualInterval, Interval  # noqa: E402

# The package binds the name `typecheck` to the function of that name.
typecheck = importlib.import_module("dualpcf.typecheck")
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Op:
    key: str  # golden-file key, unique within the workload
    args: tuple


def load_golden(name: str) -> dict:
    """Golden enclosures by op key; empty before any are recorded, so that
    every op then fails its check."""
    path = GOLDEN_DIR / f"{name}.json"
    if not path.exists():
        return {}
    with open(path) as fh:
        return json.load(fh)


def std_part(v):
    return v.std if isinstance(v, DualInterval) else v


def contains(iv: Interval, q: Fraction) -> bool:
    return iv.lo <= q <= iv.hi


def golden_mismatch(golden: dict, key: str, printed: str):
    if key not in golden:
        return f"{key}: no golden entry"
    if golden[key] != printed:
        return f"{key}: printed {printed!r}, golden {golden[key]!r}"
    return None


def _int_id_closed_form(m: int) -> Interval:
    err = Fraction(1, 2 ** (m + 1))
    return Interval(Fraction(1, 2) - err, Fraction(1, 2) + err)


def _sup_id_closed_form(m: int) -> Interval:
    return Interval(1 - Fraction(1, 2 ** m), Fraction(1))


def exact_std_mismatch(program: str, cost: int, std: Interval):
    """Compare a corpus program's standard part with its known value."""
    if program == "int_id" and std != _int_id_closed_form(cost):
        return f"int_id@{cost}: {std} is not the closed form"
    if program == "sup_id" and std != _sup_id_closed_form(cost):
        return f"sup_id@{cost}: {std} is not the closed form"
    expected = CORPUS[program].expected
    if expected is not None and not contains(std, expected):
        return f"{program}@{cost}: {std} misses {expected}"
    return None


def load_term(src: str):
    """Parse and elaborate through the module attributes, so that the
    traced run's wrappers see these calls."""
    return typecheck.elaborate(lang.parse(src), {})[0]


def corpus_path(name: str) -> Path:
    return SRC / "dualpcf" / "corpus" / f"{name}.dpcf"


class Workload:
    """Defaults for the in-process workloads, whose ops return an Outcome."""

    def steps(self, out):
        return out.steps

    def printed(self, op, out):
        return str(out.value)

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- corpus -----------------------------------------------------------------

# The `verify --suite refinement` ladder, plus the heavy programs past
# their cap, where nested integration dominates.
HEAVY_EXTRA = {"lagrangian_action": (5, 6), "nested_int_xyz": (5,)}


class Corpus(Workload):
    name = "corpus"

    def __init__(self, seed):
        self.overrides = None  # the self-test passes a broken constant here
        self.golden = load_golden(self.name)
        self.terms = {name: load_term(corpus_path(name).read_text())
                      for name in CORPUS}
        self.ops = []
        for name, entry in CORPUS.items():
            top = 4 if entry.heavy else 10
            for cost in list(range(top + 1)) + list(HEAVY_EXTRA.get(name, ())):
                self.ops.append(Op(f"{name}@{cost}", (name, cost)))

    def run(self, op):
        name, cost = op.args
        return machine.eval_at_cost(self.terms[name], cost,
                                    overrides=self.overrides)

    def check(self, op, out):
        name, cost = op.args
        if not isinstance(out, machine.Value):
            return f"{op.key}: {type(out).__name__}"
        return (golden_mismatch(self.golden, op.key, self.printed(op, out))
                or exact_std_mismatch(name, cost, std_part(out.value)))


# -- polys ------------------------------------------------------------------

# Criterion-06 shape: for random cubics f and g, `L[real -> delta] int f g`
# and `int g` both enclose the integral of g.  Denominators are fixed per
# slot and mix powers of two with 3, 5 and 7; the seed draws the numerators
# by picking one of POLY_REPLICAS pre-drawn pairs per slot, so every seed
# runs the same denominator mix (and so about the same work) and every
# pair has a golden entry.
POLY_DENOMS = [(8, 8, 8, 8), (3, 4, 5, 2), (16, 7, 2, 4), (5, 5, 8, 1),
               (2, 3, 4, 7), (1, 16, 3, 8), (7, 2, 5, 16), (4, 4, 3, 3)]
POLY_REPLICAS = 8
POLY_COSTS = (0, 2, 4, 6, 8)


def _frac_src(q: Fraction) -> str:
    if q < 0:
        return f"((0 - {-q.numerator}) / {q.denominator})"
    return f"({q.numerator} / {q.denominator})"


def poly_src(coeffs) -> str:
    terms = [_frac_src(c) + " * t" * i for i, c in enumerate(coeffs)]
    return "fun t: real. in_delta (" + " + ".join(terms) + ")"


def poly_pair(slot: int, replica: int):
    rng = random.Random(f"polys-{slot}-{replica}")
    nslots = len(POLY_DENOMS)

    def cubic(denoms):
        return [Fraction(rng.randint(-4 * d, 4 * d), d) for d in denoms]

    return cubic(POLY_DENOMS[slot]), cubic(POLY_DENOMS[(slot + 3) % nslots])


class Polys(Workload):
    name = "polys"

    def __init__(self, seed):
        """seed None: every pre-drawn pair (used to record the golden file)."""
        self.golden = load_golden(self.name)
        pairs = []
        rng = random.Random(seed)
        for slot in range(len(POLY_DENOMS)):
            replicas = (range(POLY_REPLICAS) if seed is None
                        else [rng.randrange(POLY_REPLICAS)])
            pairs += [(slot, r) for r in replicas]
        self.ops = []
        for slot, r in pairs:
            f, g = poly_pair(slot, r)
            exact = sum(c / (i + 1) for i, c in enumerate(g))
            lsrc = f"L[real -> delta] int ({poly_src(f)}) ({poly_src(g)})"
            isrc = f"int ({poly_src(g)})"
            for cost in POLY_COSTS:
                self.ops.append(Op(f"{slot}.{r}/L@{cost}", (lsrc, cost, exact)))
                self.ops.append(Op(f"{slot}.{r}/int@{cost}", (isrc, cost, exact)))

    def run(self, op):
        src, cost, _ = op.args
        return machine.eval_at_cost(load_term(src), cost)

    def check(self, op, out):
        _, _, exact = op.args
        if not isinstance(out, machine.Value):
            return f"{op.key}: {type(out).__name__}"
        std = std_part(out.value)
        if not contains(std, exact):
            return f"{op.key}: {std} misses the integral {exact}"
        return golden_mismatch(self.golden, op.key, self.printed(op, out))


# -- oracle -----------------------------------------------------------------

# The (point, direction) pairs of `verify --suite soundness`, plus one
# seeded dyadic pair per function drawn from ORACLE_REPLICAS pre-drawn ones.
ORACLE_PAIRS = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)),
                (Fraction(-1, 2), Fraction(1)), (Fraction(1, 2), Fraction(-1)),
                (Fraction(2), Fraction(1, 2))]
ORACLE_REPLICAS = 8
ORACLE_GOLDEN_COST = 2


def oracle_pair(name: str, replica: int):
    """A dyadic point in [-1,1] and a direction with 1/4 <= |xp| <= 1.

    Wider pairs make false verdicts: the oracle pads the machine's
    enclosure by a fixed 1/256, but its quotient hull also spans the
    change of the derivative across its sampling grid, which for `cube`
    at (-15/8, 3/2) already exceeds that padding (see README.md)."""
    rng = random.Random(f"oracle-{name}-{replica}")
    x = Fraction(rng.randint(-8, 8), 8)
    xp = Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), 4)
    return x, xp


class Oracle(Workload):
    name = "oracle"

    def __init__(self, seed):
        """seed None: every pre-drawn pair (used to record the golden file)."""
        self.golden = load_golden(self.name)
        self.funcs = {name: load_term(src)
                      for name, src in FIRST_ORDER_FUNCTIONS.items()}
        rng = random.Random(seed)
        self.ops = []
        for name in FIRST_ORDER_FUNCTIONS:
            for x, xp in ORACLE_PAIRS:
                self.ops.append(Op(f"{name}@({x},{xp})", (name, x, xp)))
            replicas = (range(ORACLE_REPLICAS) if seed is None
                        else [rng.randrange(ORACLE_REPLICAS)])
            for r in replicas:
                x, xp = oracle_pair(name, r)
                self.ops.append(Op(f"{name}@({x},{xp})#{r}", (name, x, xp)))

    def run(self, op):
        name, x, xp = op.args
        return analysis.check_L_soundness(self.funcs[name], x, xp)

    def steps(self, out):
        return None

    def printed(self, op, verdict):
        """The verdict with the derivative enclosure it was checked on."""
        name, x, xp = op.args
        arg = lang.DualLit(DualInterval(Interval.point(x), Interval.point(xp)))
        out = machine.eval_at_cost(lang.App(self.funcs[name], arg),
                                   ORACLE_GOLDEN_COST)
        value = out.value if isinstance(out, machine.Value) else type(out).__name__
        return f"checked={verdict.checked} L@{ORACLE_GOLDEN_COST}={value}"

    def check(self, op, verdict):
        if not verdict.holds:
            return f"{op.key}: {verdict.detail}"
        return golden_mismatch(self.golden, op.key, self.printed(op, verdict))


# -- cli --------------------------------------------------------------------

# Programs whose `--width 1/256` refinement ends within cost 8, and the
# exit code each gives: abs_deriv's derivative enclosure stays [-1,1],
# so its refinement hits the ceiling (exit 2).
CLI_WIDTH = {"chebyshev_functional": 0, "int_id": 0, "ivp_const_field": 0,
             "legendre_fenchel_halfsq": 0, "linear_functional": 0,
             "sup_id": 0, "abs_deriv": 2}
_IV_RE = re.compile(r"\[([^,\]]+),([^\]]+)\]")


def _parse_std(stdout: str, fmt: str) -> Interval:
    """The standard part of a printed result, parsed without dualpcf."""
    if fmt == "json":
        std = json.loads(stdout)["std"]
        lo, hi = std["lo"], std["hi"]
    else:
        lo, hi = _IV_RE.search(stdout).groups()
    if "inf" in lo:
        return None  # bottom: contains everything
    return Interval(Fraction(lo), Fraction(hi))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv):
    """Run one child process to its end; returns (exit code, stdout,
    peak RSS in KiB).  A child that overruns CHILD_TIMEOUT_S is killed."""
    p = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    try:
        # wait4 rather than wait: it gives this child's own peak RSS.
        # Outputs are a few lines, far below the pipe buffer.
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    with p.stdout, p.stderr:
        out = p.stdout.read().decode()
        p.stderr.read()
    return p.returncode, out, usage.ru_maxrss


class Cli(Workload):
    name = "cli"

    def __init__(self, seed):
        self.golden = load_golden(self.name)
        self.child_rss_kb = 0
        # Parsing and elaborating the files is the input check of set-up;
        # the children load them again, as a user's run does.
        for name in CORPUS:
            load_term(corpus_path(name).read_text())
        self.ops = []
        for name, entry in CORPUS.items():
            path = str(corpus_path(name).relative_to(ROOT))
            cost = 2 if entry.heavy else 4
            for fmt, flags in (("text", []), ("json", ["--format", "json"])):
                argv = ["eval", path, "--cost", str(cost)] + flags
                self.ops.append(Op(f"{name} {' '.join(argv[2:])}",
                                   (argv, name, cost, fmt, 0)))
            if name in CLI_WIDTH:
                argv = ["eval", path, "--width", "1/256"]
                self.ops.append(Op(f"{name} --width 1/256",
                                   (argv, name, None, "text", CLI_WIDTH[name])))

    def run(self, op):
        argv = op.args[0]
        rc, out, rss_kb = run_child([sys.executable, "-m", "dualpcf.cli"] + argv)
        self.child_rss_kb = max(self.child_rss_kb, rss_kb)
        return rc, out, rss_kb

    def run_inproc(self, op):
        """The same command through `cli.main` in this process (traced runs)."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(op.args[0])
        return rc, out.getvalue(), None

    def steps(self, out):
        return None

    def peak_rss_kb(self):
        """Of the largest child process: the peak that users see."""
        return self.child_rss_kb

    def printed(self, op, out):
        """Stdout, but of a JSON result only the enclosure and its cost:
        step counts may change while enclosures stay bit-identical."""
        rc, stdout, _ = out
        if op.args[3] == "json" and rc == 0:
            result = json.loads(stdout)
            return json.dumps({k: result[k] for k in ("std", "inf", "cost")})
        return stdout

    def check(self, op, out):
        rc, stdout, _ = out
        _, name, cost, fmt, want_rc = op.args
        if rc != want_rc:
            return f"{op.key}: exit {rc}, expected {want_rc}"
        bad = golden_mismatch(self.golden, op.key, self.printed(op, out))
        if bad or rc != 0:
            return bad
        std = _parse_std(stdout, fmt)
        if std is None:
            return None
        if cost is None:  # refined to width 1/256: only the known limit
            expected = CORPUS[name].expected
            if expected is not None and not contains(std, expected):
                return f"{op.key}: {std} misses {expected}"
            return None
        return exact_std_mismatch(name, cost, std)


WORKLOADS = {w.name: w for w in (Corpus, Polys, Oracle, Cli)}
