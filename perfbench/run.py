"""Run one benchmark workload on one seed and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload rmat-17 --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Each metric is printed on its own line with its unit and the
base of every ratio; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program under test is imported from ``src/`` next to this directory
and runs in this process on the serial backend.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("rmat-17", "sbm-100k", "stream-drift")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({src / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import Outcome, make_workloads

    scratch_root = ROOT / ".perfbench-work"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        workload = make_workloads(workdir)[args.workload]
        out = Outcome()
        run = workload.traced if args.trace else workload.timed
        run(args.seed, args.seconds, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:  # another run is still using it
            pass

    for line in out.notes:
        print(line)
    print(f"failed_share = {out.failed / out.attempted:.6g} fraction  "
          f"({out.failed} failed / {out.attempted} attempted)")
    for problem in out.problems:
        print(f"check failed: {problem}")
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in out.metrics.items()
        if math.isfinite(value)
    }
    correct = out.failed == 0 and not out.problems and len(metrics) == len(out.metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
