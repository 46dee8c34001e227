"""Resilience overhead: fault tolerance must be near-free when idle.

Times full pipeline turns (preprocess → translate → lint → execute /
render → present) three ways over the same question mix:

1. ``baseline`` — a plain :class:`repro.core.Pipeline` with no
   resilience policy: exactly the pre-resilience serving path;
2. ``resilient`` — the same pipeline under the default
   :class:`repro.resilience.ResiliencePolicy` with **no faults
   installed**: what every caller pays in production for deadline
   scopes, breaker bookkeeping, and the retry wrapper;
3. ``chaos`` — the resilient pipeline inside a seeded 20% error+latency
   storm, reported for context (recovery work is allowed to cost real
   money; there is no bound on this row).

The contract (DESIGN.md, "Resilience"): the idle *resilient* path stays
within 5% of baseline.
The turn memo and the result cache are cleared before every turn so each
iteration pays the full translate + execute cost of a cold serving turn
(an all-caches-warm turn is a dictionary hit on both sides and measures
nothing but the memo).  Results print as a table and are written to
``BENCH_resilience.json`` at the repository root; ``--smoke`` (alias ``--quick``) shrinks sizes for
CI, where timing noise on a loaded runner makes the 5% bound
unenforceable — the smoke bound is correspondingly loose and the full
run is the authoritative check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _harness import print_table

from repro.core.pipeline import Pipeline
from repro.data.domains import domain_by_name
from repro.data.generator import DatabaseGenerator
from repro.parsers.semantic import GrammarSemanticParser
from repro.parsers.vis.rule import DataToneVisParser
from repro.resilience import ResiliencePolicy, clear_faults, install_faults
from repro.sql import rescache

#: allowed idle-resilience slowdown vs baseline, percent
FULL_BUDGET_PCT = 5.0
SMOKE_BUDGET_PCT = 25.0

STORM = (
    "translate:error:p=0.2;execute:error:p=0.2;render:error:p=0.2;"
    "execute:latency:p=0.2:delay=0.0002"
)

#: the production question mix: a trivial count (the worst case for a
#: fixed per-turn tax), an aggregate, a filter, a group-by, and a chart
#: turn, so the timed path covers both the execute and render sides of
#: the stage wrapping at realistic per-turn costs
QUESTIONS = [
    "how many products are there",
    "what is the average price of products",
    "show the name of products whose price is above 500",
    "what is the total quantity of orders per product",
    "draw a bar chart of the number of products per category",
]


def _bench_db(rows_per_table: int):
    return DatabaseGenerator(seed=3).populate(
        domain_by_name("sales"), rows_per_table=rows_per_table
    )


def _pipeline(resilience=None) -> Pipeline:
    # the stack NaturalLanguageInterface serves by default — the
    # overhead bound is about the production path, not a micro-parser
    return Pipeline(
        GrammarSemanticParser(use_history=True, use_knowledge=True),
        DataToneVisParser(),
        resilience=resilience,
    )


def _round_tps(pipeline: Pipeline, db, iters: int) -> float:
    """Turns-per-second for one round of *iters* cold turns."""
    start = time.perf_counter()
    for i in range(iters):
        pipeline.turn_cache.clear()
        rescache.clear_result_cache()
        pipeline.run(QUESTIONS[i % len(QUESTIONS)], db)
    return iters / (time.perf_counter() - start)


def _overhead_pct(baseline_qps: float, other_qps: float) -> float:
    """How much slower *other* is than *baseline*, in percent."""
    return (baseline_qps - other_qps) / baseline_qps * 100.0


def _measure(db, iters: int, rounds: int) -> dict[str, float]:
    plain = _pipeline()
    resilient = _pipeline(ResiliencePolicy.default())
    for pipeline in (plain, resilient):  # warm parsers + result cache
        for question in QUESTIONS:
            pipeline.turn_cache.clear()
            pipeline.run(question, db)

    # run the two modes as adjacent pairs in alternating order and gate
    # on the *median of per-pair overheads*: the two rounds of a pair are
    # seconds apart and see the same background load, CPU frequency, and
    # cache state, so each pair's ratio is drift-free even when absolute
    # throughput swings 30% over the run; the order flip cancels any
    # first-mover bias and the median rejects pairs hit by a load spike
    baseline_rounds: list[float] = []
    idle_rounds: list[float] = []
    pair_overheads: list[float] = []
    for index in range(rounds):
        if index % 2 == 0:
            base_tps = _round_tps(plain, db, iters)
            idle_tps = _round_tps(resilient, db, iters)
        else:
            idle_tps = _round_tps(resilient, db, iters)
            base_tps = _round_tps(plain, db, iters)
        baseline_rounds.append(base_tps)
        idle_rounds.append(idle_tps)
        pair_overheads.append(_overhead_pct(base_tps, idle_tps))
    baseline = statistics.median(baseline_rounds)
    idle = statistics.median(idle_rounds)
    idle_overhead = statistics.median(pair_overheads)
    install_faults(STORM, seed=3)
    try:
        chaos = _round_tps(resilient, db, iters)
    finally:
        clear_faults()
    return {
        "baseline_tps": round(baseline, 2),
        "resilient_tps": round(idle, 2),
        "chaos_tps": round(chaos, 2),
        "idle_overhead_pct": round(idle_overhead, 2),
        "chaos_overhead_pct": round(_overhead_pct(baseline, chaos), 2),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", "--quick", action="store_true", dest="smoke",
        help="small sizes (and a loose overhead bound) for a CI smoke run",
    )
    args = parser.parse_args(argv)

    # many short rounds beat few long ones: the gate is a median over
    # per-pair overheads, so more pairs tighten it, and a short round
    # keeps the two halves of a pair close in time
    if args.smoke:
        db, iters, rounds = _bench_db(rows_per_table=60), 100, 10
    else:
        db, iters, rounds = _bench_db(rows_per_table=200), 200, 24

    stats = _measure(db, iters, rounds)

    print_table(
        "Resilience overhead: plain turns vs idle-resilient vs chaos storm"
        + (" [smoke]" if args.smoke else ""),
        ["mode", "turns/s", "overhead vs baseline"],
        [
            ("baseline (no policy)", f"{stats['baseline_tps']:,.1f}", "—"),
            (
                "resilient, no faults",
                f"{stats['resilient_tps']:,.1f}",
                f"{stats['idle_overhead_pct']:+.1f}%",
            ),
            (
                "resilient, 20% storm",
                f"{stats['chaos_tps']:,.1f}",
                f"{stats['chaos_overhead_pct']:+.1f}% (unbounded)",
            ),
        ],
    )

    budget = SMOKE_BUDGET_PCT if args.smoke else FULL_BUDGET_PCT
    worst = stats["idle_overhead_pct"]
    print(
        f"\nidle resilience overhead: {worst:+.1f}% "
        f"(budget {budget:.0f}%{' smoke' if args.smoke else ''})"
    )
    assert worst < budget, (
        f"idle resilience overhead {worst:.1f}% exceeds the "
        f"{budget:.0f}% budget"
    )

    out_path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "..",
        "BENCH_resilience.json",
    )
    payload = {
        "smoke": args.smoke,
        "budget_pct": budget,
        "idle_overhead_pct": worst,
        "storm_spec": STORM,
        "stats": stats,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.normpath(out_path)}")
    return stats


if __name__ == "__main__":
    main()
