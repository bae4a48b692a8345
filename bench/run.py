"""dualpcf benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload {corpus,polys,oracle,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the interpreter is imported from `src/`.
One op runs at a time, and `cli` runs at most one child process at a
time.  With `--trace 0` the workload's ops are swept, each sweep in a
seeded order, until S seconds of sweeps have passed, and the end-to-end
metrics are printed, their times scaled to the reference machine speed
of speed.py.  With `--trace 1` single sweeps (plain, with spans,
plain again, counting repeated work, under cProfile) give the per-layer
metrics; spans and the profile split go to `.bench_out/`.
Every op's output is checked (see workloads.py).  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import cProfile
import json
import math
import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 15  # fresh processes timed per run for setup_s
CLI_PROBES = 5  # fresh processes per start-up measurement in a traced run
# op_tail_ms: the highest percentile of TAIL_GRID over the per-op medians
# with at least TAIL_OPS ops beyond it, which hold TAIL_BEYOND samples.
TAIL_GRID = (95, 90, 80)
TAIL_OPS = 4
TAIL_BEYOND = 10

UNITS = {
    "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "op_geomean_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
    "cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.modules": "count",
    "lang.parse_ms": "ms", "typecheck.elaborate_ms": "ms",
    "machine.evals": "count", "machine.steps": "count",
    "machine.eval_ms": "ms", "machine.us_per_step": "us",
    "machine.refine_waste_frac": "fraction",
    "machine.repeat_share": "fraction", "machine.self_s": "s",
    "machine.calls": "count", "lang.subst_calls": "count",
    "lang.subst_self_s": "s", "numeric.calls": "count",
    "numeric.self_s": "s", "fractions.new": "count",
    "fractions.self_s": "s", "builtins.self_s": "s",
    "analysis.self_s": "s", "analysis.evals_per_verdict": "count",
    "trace.overhead_frac": "fraction", "failed_frac": "fraction",
}
# Counters that must repeat exactly from run to run.
EXACT = ("cli.modules", "machine.evals", "machine.steps",
         "machine.repeat_share", "machine.calls", "lang.subst_calls",
         "numeric.calls", "fractions.new", "analysis.evals_per_verdict")


class Tally:
    """Per-op latencies, steps and failures across sweeps."""

    def __init__(self):
        self.latency = {}  # op key -> [seconds per sweep]
        self.steps = {}
        self.sweeps = []  # summed op latency of each sweep
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)


def sweep(wl, ops, execute, tally, around=None, between=None):
    """Run every op once, in order, checking each output; `between` is
    called after each op, outside its timing."""
    total = 0.0
    for op in ops:
        with (around(op.key) if around else nullcontext()):
            t0 = time.perf_counter()
            try:
                out, err = execute(op), None
            except Exception as ex:  # an op that raises is a failed op
                out, err = None, f"{op.key}: {type(ex).__name__}: {ex}"
            dt = time.perf_counter() - t0
        total += dt
        tally.attempted += 1
        tally.latency.setdefault(op.key, []).append(dt)
        reason = err or wl.check(op, out)
        if reason:
            tally.failures.append(reason)
        elif wl.steps(out) is not None:
            tally.steps[op.key] = wl.steps(out)
        if between:
            between()
    tally.sweeps.append(total)


def seeded_orders(ops, seed):
    rng = random.Random(seed)
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield order


def setup_probe_s(workload, seed):
    """Time from spawning a fresh process until its inputs are ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            workload, "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE) as p:
        line = p.stdout.readline()
        dt = time.perf_counter() - t0
        p.stdout.read()
    if p.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit {p.returncode}")
    return dt


def tail_pct(n_ops):
    """Fixed by the op count, so that it does not move between runs.  At
    least TAIL_OPS ops beyond it keep it inside the group of heaviest
    ops instead of on the edge of that group."""
    return next((p for p in TAIL_GRID if n_ops * (100 - p) // 100 >= TAIL_OPS),
                TAIL_GRID[-1])


def harrell_davis(values, q):
    """The Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics, weighted by the mass that a Beta((n+1)q, (n+1)(1-q))
    density puts on each one's share of [0, 1] (Simpson's rule within
    each share).  The ops of a workload come in groups of about equal
    cost with gaps between them, and the median of `polys` falls on
    such a gap: a plain quantile there jumps between the groups with the
    seed, this one moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x)
                        + (b - 1) * math.log1p(-x))

    k = 16  # Simpson intervals per order statistic
    weights = []
    for i in range(n):
        h = 1 / (n * k)
        ys = [density(i / n + j * h) for j in range(k + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2])
                                + 2 * sum(ys[2:-1:2])))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def latency_metrics(tally, pct):
    """Latency statistics over the ops, each op at its median latency over
    the run's sweeps, so that a sweep or a sample slowed by the machine
    does not count.  `wall_s` sums them.  The median and the `pct` tail
    are Harrell-Davis estimates over them.  A percentile of the pooled
    samples can fall between two ops of very different cost and read the
    slowest sample of one of them; on `corpus` it spread twice as much
    between runs as `wall_s`."""
    per_op = {k: statistics.median(v) for k, v in tally.latency.items()}
    tail = harrell_davis(per_op.values(), pct / 100)
    beyond = sum(len(tally.latency[k]) for k, m in per_op.items() if m > tail)
    return {
        "wall_s": sum(per_op.values()),
        "op_p50_ms": 1e3 * harrell_davis(per_op.values(), 0.5),
        "op_tail_ms": 1e3 * tail,
        "op_geomean_ms": 1e3 * statistics.geometric_mean(per_op.values()),
    }, (f"p{pct} of {len(per_op)} per-op medians; the ops beyond it hold "
        f"{beyond} of {tally.attempted} samples")


def run_untraced(workloads, args):
    import speed

    calibration = speed.Speed()
    calibration.sample()
    setup = [setup_probe_s(args.workload, args.seed)
             for _ in range(SETUP_PROBES)]
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tally = Tally()
    # Enough sweeps that the ops beyond the tail hold TAIL_BEYOND samples.
    pct = tail_pct(len(wl.ops))
    ops_beyond = len(wl.ops) * (100 - pct) // 100
    min_sweeps = math.ceil(TAIL_BEYOND / ops_beyond)
    deadline = time.perf_counter() + args.seconds
    for order in seeded_orders(wl.ops, args.seed):
        sweep(wl, order, wl.run, tally, between=calibration.maybe_sample)
        if (time.perf_counter() >= deadline
                and len(tally.sweeps) >= min_sweeps):
            break
    metrics, tail_note = latency_metrics(tally, pct)
    metrics["setup_s"] = statistics.median(setup)
    # Every time at the reference speed of bench/speed.py.
    factor = calibration.factor()
    raw = dict(metrics)
    metrics = {k: v * factor for k, v in metrics.items()}
    metrics["peak_rss_mb"] = wl.peak_rss_kb() / 1024
    print(f"# speed factor {factor:.4f} (reference over measured, median of "
          f"{calibration.samples} calibration samples); raw times: "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    notes = {
        "wall_s": f"summed per-op medians over {len(tally.sweeps)} sweeps",
        "op_tail_ms": tail_note,
        "setup_s": f"median of {SETUP_PROBES} fresh processes",
        "peak_rss_mb": ("largest child process" if args.workload == "cli"
                        else "this process"),
    }
    return wl, tally, metrics, notes


def cli_startup_metrics(workloads):
    """Fresh-process start-up: bare interpreter, then `import dualpcf.cli`."""
    def median_ms(code):
        times = []
        for _ in range(CLI_PROBES):
            t0 = time.perf_counter()
            rc, out, _ = workloads.run_child([sys.executable, "-c", code])
            times.append(time.perf_counter() - t0)
            if rc != 0:
                raise RuntimeError(f"start-up probe {code!r} exited {rc}")
        return 1e3 * statistics.median(times), out
    interp_ms, _ = median_ms("pass")
    import_ms, _ = median_ms("import dualpcf.cli")
    _, out = median_ms("import sys, dualpcf.cli; print(sum("
                       "m.split('.')[0] == 'dualpcf' for m in sys.modules))")
    return {"cli.interp_ms": interp_ms, "cli.import_ms": import_ms - interp_ms,
            "cli.modules": int(out)}


@contextmanager
def profiled(profile):
    profile.enable()
    try:
        yield
    finally:
        profile.disable()


def run_traced(workloads, args):
    import spans

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed)
    execute = wl.run_inproc if args.workload == "cli" else wl.run
    order = next(seeded_orders(wl.ops, args.seed))
    tally = Tally()

    # Plain sweeps before and after the span sweep, so that first-call
    # costs and drift do not show as tracing overhead.
    sweep(wl, order, execute, tally)
    plain_s = [tally.sweeps[-1]]

    tracer = spans.Tracer()
    try:
        with tracer.span("setup", "setup"):
            traced_wl = cls(args.seed)
        traced_exec = (traced_wl.run_inproc if args.workload == "cli"
                       else traced_wl.run)
        sweep(traced_wl, order, traced_exec, tally,
              around=lambda key: tracer.span("op", key))
    finally:
        tracer.restore()
    traced_s = tally.sweeps[-1]
    metrics = tracer.layer_metrics()
    sweep(wl, order, execute, tally)
    plain_s = statistics.fmean(plain_s + [tally.sweeps[-1]])

    counter = spans.RepeatCounter()
    try:
        sweep(wl, order, execute, tally,
              around=lambda key: counter.counting())
    finally:
        counter.restore()
    metrics["machine.repeat_share"] = counter.share

    profile = cProfile.Profile()
    sweep(wl, order, execute, tally, around=lambda key: profiled(profile))
    split = spans.profile_split(profile)
    metrics.update({
        "machine.self_s": split.get("machine.self_s", 0.0),
        "machine.calls": int(split.get("machine.calls", 0)),
        "lang.subst_calls": int(split.get("subst.calls", 0)),
        "lang.subst_self_s": split.get("subst.self_s", 0.0),
        "numeric.calls": int(split.get("numeric.calls", 0)),
        "numeric.self_s": split.get("numeric.self_s", 0.0),
        "fractions.new": int(split.get("fractions.new", 0)),
        "fractions.self_s": split.get("fractions.self_s", 0.0),
        "builtins.self_s": split.get("builtins.self_s", 0.0),
    })
    metrics.update(cli_startup_metrics(workloads))
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
    tracer.dump(f"{stem}-spans.jsonl")
    with open(f"{stem}-profile.json", "w") as fh:
        json.dump(split, fh, indent=1, sort_keys=True)

    total = sum(v for k, v in split.items() if k.endswith(".self_s"))
    shares = sorted(((v / total, k[:-7]) for k, v in split.items()
                     if k.endswith(".self_s")), reverse=True)
    notes = {"machine.repeat_share": "structurally equal (App, tag) per eval",
             "trace.overhead_frac": f"span sweep {traced_s:.3f} s over mean "
                                    f"plain sweep {plain_s:.3f} s"}
    profile_line = "cProfile self time: " + ", ".join(
        f"{k} {100 * s:.0f}%" for s, k in shares if s >= 0.005)
    return wl, tally, metrics, notes, profile_line


def print_rows(wl, tally):
    """One row per op: median latency over sweeps, steps, us per step."""
    for op in wl.ops:
        ms = 1e3 * statistics.median(tally.latency[op.key])
        steps = tally.steps.get(op.key)
        extra = (f"  steps {steps:>8}  {1e3 * ms / steps:7.2f} us/step"
                 if steps else "")
        print(f"  {op.key:44} {ms:10.3f} ms{extra}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("corpus", "polys", "oracle", "cli"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)  # internal: see setup_probe_s
    args = ap.parse_args(argv)

    if not (SRC / "dualpcf" / "__init__.py").is_file():
        print(f"dualpcf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    print(f"# workload {args.workload}, seed {args.seed}, closed loop, "
          f"1 client, trace {args.trace}")
    if args.trace:
        wl, tally, metrics, notes, profile_line = run_traced(workloads, args)
        metrics["failed_frac"] = tally.failed / tally.attempted
        print(profile_line)
    else:
        wl, tally, metrics, notes = run_untraced(workloads, args)
        print_rows(wl, tally)
    for reason in tally.failures[:20]:
        print(f"FAILED {reason}")
    for name, value in metrics.items():
        tag = " (exact)" if name in EXACT else ""
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"{name:28} {value:16.6f} {UNITS[name]}{tag}{note}")
    if "failed_frac" not in metrics:
        print(f"{'failed_frac':28} {tally.failed / tally.attempted:16.6f} "
              f"fraction")
    print(f"# {tally.failed} of {tally.attempted} ops failed")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
