"""Layered benchmark of the qdiff CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or "all" to run each in
turn.  With --trace 0 the last line of output is a JSON object carrying the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run.  The lines before it give quartiles, sample counts, fail_ratio,
the seeded inputs and an environment fingerprint.  Exits 2 when the
checkout holds no qdiff sources.
"""

import argparse
import json
import sys

import bench
import workloads


def main(argv=None, profile="full"):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not bench.program_present():
        sys.stderr.write(f"perfbench: no qdiff sources under {bench.SRC}\n")
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            lines[name] = bench.run(name, args.seed, args.seconds, args.trace, profile)
    except bench.BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{w}.{k}": m for w, v in lines.items() for k, m in v["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
