"""Self-test of the benchmark's correctness gate and of its exact counters.

    python3 bench/selftest.py [WORKLOAD ...]

Checks, in order:
  1. a corpus sweep with one golden entry perturbed has failed ops;
  2. a corpus sweep with a broken `max`, passed through the `overrides`
     hook of `eval_at_cost`, has failed ops;
  3. the same sweep unmodified has none;
  4. the step counts stated in ROADMAP.md are reproduced;
  5. two traced runs of each named workload (default: all four) give
     identical values for every counter marked exact.
Exits 0 when every check passes.
"""
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from dualpcf.lang import DualLit  # noqa: E402
from dualpcf.machine import _as_dual  # noqa: E402
from dualpcf.numeric import DualInterval, Interval, IV_BOTTOM  # noqa: E402

ROADMAP_STEPS = {"linear_functional@10": 13_315, "nested_int_xyz@4": 25_120,
                 "ivp_const_field@10": 6_147}
LIGHT_COST = 4  # gate checks sweep the corpus ops up to this cost


def broken_max(carrier, vals):
    """max that keeps the first argument's infinitesimal part."""
    a, b = _as_dual(vals[0]), _as_dual(vals[1])
    if a.std.lo > b.std.hi:
        return DualLit(a)
    if b.std.lo > a.std.hi:
        return DualLit(b)
    std = IV_BOTTOM if (a.std.is_bottom or b.std.is_bottom) else \
        Interval(max(a.std.lo, b.std.lo), max(a.std.hi, b.std.hi))
    return DualLit(DualInterval(std, a.inf))


def failed_frac(wl):
    tally = run.Tally()
    light = [op for op in wl.ops if op.args[1] <= LIGHT_COST]
    run.sweep(wl, light, wl.run, tally)
    return tally.failed / tally.attempted


def traced_exact(workload):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: metrics[k]["value"] for k in run.EXACT}


def main(names):
    problems = []

    wl = workloads.Corpus(seed=0)
    key = next(iter(wl.golden))
    wl.golden[key] += " perturbed"
    if not failed_frac(wl) > 0:
        problems.append(f"perturbed golden entry {key} did not fail")

    wl = workloads.Corpus(seed=0)
    wl.overrides = {"max": broken_max}
    if not failed_frac(wl) > 0:
        problems.append("broken max did not fail any op")

    wl = workloads.Corpus(seed=0)
    frac = failed_frac(wl)
    if frac != 0:
        problems.append(f"unmodified corpus sweep: failed_frac {frac}")

    ops = [op for op in wl.ops if op.key in ROADMAP_STEPS]
    tally = run.Tally()
    run.sweep(wl, ops, wl.run, tally)
    for k, want in ROADMAP_STEPS.items():
        if tally.steps.get(k) != want:
            problems.append(f"{k}: {tally.steps.get(k)} steps, ROADMAP {want}")

    for name in names:
        first, second = traced_exact(name), traced_exact(name)
        for k in run.EXACT:
            if first[k] != second[k]:
                problems.append(f"{name} {k}: {first[k]} then {second[k]}")
        print(f"{name}: exact counters {first}")

    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(workloads.WORKLOADS)))
