"""One NL-turn benchmark: replay a seeded workload through the default
production stack, check the answers, print every metric by name and unit.

Run from the root of a checkout::

    python3 turnbench/run.py --workload cold_corpus --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
separate traced passes and prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report.  Spans and run details are written under
``.bench_out/turnbench/``.  The exit code is 0 for a correct run, 1 when
the correctness gate found a violation, and 2 when the program under
test is missing.

``python3 turnbench/run.py --write-manifest`` regenerates
``BENCHMARK.json`` and ``turnbench/design.json`` from ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out" / "turnbench"


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="turnbench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-manifest",
        action="store_true",
        help="write BENCHMARK.json and turnbench/design.json, then exit",
    )
    return parser.parse_args(argv)


def _write_manifest() -> int:
    import spec

    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(spec.benchmark_manifest(), indent=2) + "\n"
    )
    (HERE / "design.json").write_text(
        json.dumps(spec.design_record(), indent=2) + "\n"
    )
    return 0


def _report(workload: str, trace: int, outcome: dict, units: dict) -> None:
    print(f"turnbench {workload} trace={trace}")
    for name, value in outcome["metrics"].items():
        print(f"  {name:32s} {value:14.6f} {units[name]}")
    print(f"  attempted={outcome['attempted']} failed={outcome['failed']}")
    for violation in outcome["violations"][:20]:
        print(f"  VIOLATION {violation}", file=sys.stderr)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.write_manifest:
        return _write_manifest()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"turnbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import spec
    import workloads

    if args.workload not in spec.WORKLOAD_NAMES:
        print(f"turnbench: --workload must be one of {spec.WORKLOAD_NAMES}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    run = workloads.run_closed_traced if args.trace else workloads.run_closed
    outcome = run(args.workload, args.seed, seconds)

    declared = spec.PER_LAYER if args.trace else spec.END_TO_END
    units = {entry[0]: entry[1] for entry in declared}
    if set(outcome["metrics"]) != set(units):
        raise RuntimeError("metric names differ from spec.py")
    metrics = {
        name: {"value": float(outcome["metrics"][name]), "unit": units[name]}
        for name in units
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    recorder = outcome.pop("recorder", None)
    if recorder is not None:
        recorder.write(OUT_DIR / f"{stem}.spans.jsonl")
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(
            {"metrics": metrics, "detail": outcome["detail"],
             "violations": outcome["violations"]},
            indent=2,
        ) + "\n"
    )
    _report(args.workload, args.trace, outcome, units)
    print(json.dumps(outcome["detail"], sort_keys=True))
    correct = not outcome["violations"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
