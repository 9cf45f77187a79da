"""Benchmark of the prudentbanker simulator; run from the root of a checkout.

    python3 bench/run.py --workload desk-negent --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all            # every workload, one table each

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced pass. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the full
record, with run metadata, goes to ``bench/out/``. The program is imported
from ``src/`` of the same checkout, never from an installed copy.

    python3 bench/run.py --write-reference     # store default-seed summaries
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def import_program() -> None:
    """Put the checkout's src/ first on the path; fail if the program is not there."""
    package = SRC / "prudentbanker"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: the program source {package} is missing")
    sys.path.insert(0, str(SRC))
    import prudentbanker
    if Path(prudentbanker.__file__).resolve().parent != package:
        raise SystemExit(f"error: prudentbanker was imported from {prudentbanker.__file__}")


def report(workload: str, seed: int, result: dict) -> None:
    print(f"workload {workload}  seed {seed}  trace {result['trace']}  "
          f"commit {result['metadata']['commit'][:12]}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    n = result["round_us_samples"]
    high = result["round_us_high_percentile"]
    extra = "" if high is None else f", p{high['p']} {high['value']:.6g}"
    print(f"  round_us: median of {n} samples{extra}")
    measured = ", ".join(f"{k} {v:.6g}" for k, v in result["measured"].items())
    print(f"  as measured, before scaling to the nominal machine: {measured}")
    print(f"  {'failed_frac':<40} {result['failed_frac']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} runs)")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    print(json.dumps(line), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="run every workload on the default seed and store its summaries")
    args = parser.parse_args(argv)

    import_program()
    import checks
    import measure
    from workloads import WORKLOADS

    if args.write_reference:
        from prudentbanker import harness
        seed = measure.DEFAULT_SEED
        summaries = {}
        for name, workload in WORKLOADS.items():
            table, delays = harness.build_environment(workload.environment(seed))
            summaries[name] = [t.summary for t in measure.run_pass(workload, seed, table, delays)]
        checks.write_reference(summaries)
        print(f"wrote {checks.REFERENCE_PATH}")
        return 0

    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from all, {', '.join(WORKLOADS)}")
    seed = measure.DEFAULT_SEED if args.seed is None else args.seed
    for name in names:
        result = measure.measure(WORKLOADS[name], seed, args.seconds, bool(args.trace),
                                 ROOT, OUT_DIR)
        path = OUT_DIR / f"{name}-s{seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        report(name, seed, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
