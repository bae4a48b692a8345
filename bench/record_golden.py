"""Record the golden enclosures of every workload's ops.

    python3 bench/record_golden.py [WORKLOAD ...]

Runs each op once (for `polys` and `oracle`, every pre-drawn input that
any seed can pick) and writes golden/<workload>.json.  Only run this at a
commit whose enclosures are known good: later runs fail any op whose
printed enclosure differs from the file.
"""
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def record(name):
    wl = workloads.WORKLOADS[name](None)
    golden = {}
    for op in wl.ops:
        out = wl.run(op)
        golden[op.key] = wl.printed(op, out)
        wl.golden = {op.key: golden[op.key]}
        bad = wl.check(op, out)
        if bad:
            raise SystemExit(f"{name}: not recording a failing op: {bad}")
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    path = workloads.GOLDEN_DIR / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{path.name}: {len(golden)} entries")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(workloads.WORKLOADS):
        record(name)
