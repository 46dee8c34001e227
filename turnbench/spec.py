"""What the turn benchmark measures: workloads, metrics, bounds, layer map.

This module is the single source of truth for the benchmark's design.
``python3 turnbench/run.py --write-manifest`` renders it into
``BENCHMARK.json`` (the contract the benchmark runner reads) and
``turnbench/design.json`` (the full record: input sizes, the serving rate
ladder and latency limit, and which end-to-end metric each per-layer
metric should move, on which workload).  ``run.py`` refuses to print a
result whose metric names differ from the ones declared here.
"""

from __future__ import annotations

#: Corpora replayed by ``cold_corpus``, at the evaluation scales of
#: ``benchmarks/_harness.SCALES`` (pinned here so the benchmark's inputs
#: cannot drift with the table/figure harness).
COLD_CORPORA = (
    ("spider_like", 0.06),
    ("wikisql_like", 0.03),
    ("nvbench_like", 0.06),
)

#: corpus seed of every workload (``benchmarks/_harness.SEED``): corpora,
#: databases and popularity rankings are fixed, --seed draws the traffic
CORPUS_SEED = 11

#: Dialogue corpora replayed by ``serve_dialogues`` (one session = one
#: dialogue, replayed turn by turn).
DIALOGUE_CORPORA = (
    ("sparc_like", 0.06),
    ("cosql_like", 0.06),
    ("chartdialogs_like", 0.06),
)
#: Zipf exponent for choosing which dialogue a new session replays
DIALOGUE_ZIPF = 1.1
#: client threads of the closed loop, each replaying one session at a time
SERVE_CLIENTS = 4
#: sessions per closed-loop pass (~2.8 turns each)
SERVE_SESSIONS = 1000

#: The open-loop rate ladder, climbed in traced runs only (its result is
#: the per-layer ``serve.open_loop.slo_rate_rps``).  Offered rates are
#: LADDER_BASE * LADDER_STEP ** k requests per second, climbed
#: LADDER_STRIDE points at a time, then refined point by point below the
#: first failure.
LADDER_BASE = 400
LADDER_STEP = 1.06
LADDER_POINTS = 40
LADDER_STRIDE = 4
#: sessions open at once; each arrival sends the next turn of one of them
OPEN_SESSIONS = 8
#: seconds of arrivals per ladder rung (but never under MIN_RUNG_REQUESTS)
SEARCH_RUNG_S = 1.0
#: requests per rung: at least this many, so p99 has >= 10 samples beyond
MIN_RUNG_REQUESTS = 1000
#: latency limit on an open-loop rung's p99 (due time to response), ms
LATENCY_LIMIT_MS = 250.0


def rate_grid() -> list[int]:
    """The fixed ladder of offered rates, requests per second."""
    return [round(LADDER_BASE * LADDER_STEP ** k) for k in range(LADDER_POINTS)]


#: ``write_mix``: a Spider-like cross-domain corpus on larger tables
WRITE_MIX_ROWS_PER_TABLE = 300
WRITE_MIX_EXAMPLES = 400
#: share of operations that insert a row instead of asking a question
WRITE_SHARE = 0.2
#: Zipf exponent over the distinct questions (and the tables writes hit)
WRITE_MIX_ZIPF = 1.0
#: operations per pass (questions plus inserts), fixed so that every pass
#: grows the tables by the same amount
WRITE_MIX_OPS = 1500

#: closed-loop passes per run: at least this many, so medians exist
MIN_PASSES = 3
#: turns per measurement window of a pass (see ClosedPass.timings)
WINDOW_TURNS = 1000
#: the direct loops sample the machine's speed (speed.kernel) before
#: every this many operations; the served pass serves its sessions in
#: chunks and, while no client runs, samples it (speed.handoff_kernel)
#: this many times before each chunk and after the last
SPEED_SAMPLE_EVERY = 50
SERVE_CHUNK_SESSIONS = 100
SERVE_SPEED_SAMPLES = 2

WORKLOADS = (
    {
        "name": "cold_corpus",
        "why": (
            "each distinct spider/wikisql/nvbench question once, fresh "
            "system and caches: translate, lint gates, plan compile and "
            "render do the work; no repeats"
        ),
        "loop": "closed, one client, direct PipelineSystem.answer",
        "seed": (
            f"the three corpora are fixed (corpus seed {CORPUS_SEED}); "
            "--seed shuffles the replay order"
        ),
        "sizes": {
            "corpora": {name: scale for name, scale in COLD_CORPORA},
            "turns_per_pass": "~4.5k distinct questions",
            "rows_per_table": "<= 25",
        },
    },
    {
        "name": "serve_dialogues",
        "why": (
            f"{SERVE_CLIENTS} clients replay Zipf-skewed sparc/cosql/"
            "chartdialogs sessions through repro.serve.Server: admission, "
            "scheduler, coalescer and turn memos do the work"
        ),
        "loop": (
            f"closed, {SERVE_CLIENTS} client threads, each replaying one "
            "session at a time (submit all its turns, wait for them in "
            "order, close the session), so the server orders each "
            f"session's turns; sessions run in chunks of "
            f"{SERVE_CHUNK_SESSIONS}, the clients finishing each chunk "
            "before the next; Server with min(nproc, 4) workers and "
            "default coalescing.  Traced runs also climb the open-loop "
            "rate ladder with one generator thread"
        ),
        "seed": (
            f"the dialogue corpora and their popularity ranking are fixed "
            f"(corpus seed {CORPUS_SEED}); --seed draws which dialogue each "
            "session replays and, open-loop, the interleaving of sessions"
        ),
        "sizes": {
            "corpora": {name: scale for name, scale in DIALOGUE_CORPORA},
            "dialogue_zipf": DIALOGUE_ZIPF,
            "clients": SERVE_CLIENTS,
            "sessions_per_pass": SERVE_SESSIONS,
            "open_loop": {
                "open_sessions": OPEN_SESSIONS,
                "rate_ladder_rps": rate_grid(),
                "ladder_search": (
                    f"climb every {LADDER_STRIDE}th rate until a rate "
                    "fails, then try the rates between the last pass and "
                    "it in order"
                ),
                "latency_limit_ms": LATENCY_LIMIT_MS,
                "requests_per_rung": (
                    f"max({MIN_RUNG_REQUESTS}, rate * {SEARCH_RUNG_S})"
                ),
                "rung_passes_when": (
                    "p99 from due time <= latency limit, no failed turn, "
                    "and the backlog when sending ends <= rate * limit (no "
                    "growing backlog); a rate fails when two rungs at it "
                    "fail in a row"
                ),
            },
        },
    },
    {
        "name": "write_mix",
        "why": (
            "Zipf-repeated questions on 300-row tables interleaved with "
            "inserts into the tables they read: each write retires caches, "
            "so execute dominates"
        ),
        "loop": "closed, one client, direct PipelineSystem.answer",
        "seed": (
            f"the corpus, its databases and the popularity ranking are "
            f"fixed (corpus seed {CORPUS_SEED}); --seed draws the question "
            "sequence, the phase of the writes and every inserted row"
        ),
        "sizes": {
            "corpus": "build_cross_domain",
            "examples": WRITE_MIX_EXAMPLES,
            "rows_per_table": WRITE_MIX_ROWS_PER_TABLE,
            "write_share": WRITE_SHARE,
            "zipf": WRITE_MIX_ZIPF,
            "ops_per_pass": WRITE_MIX_OPS,
        },
    },
)
WORKLOAD_NAMES = tuple(w["name"] for w in WORKLOADS)

#: (name, unit, better, bound, definition).  Every time is scaled to the
#: reference speed of the calibration kernels (see speed.py); raw values
#: are in the run detail.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "median time to build the corpora and databases and construct the "
     "system or server; set up once per pass, scaled by the pass's speed"),
    ("turns_per_s", "1/s", "higher", 0.25,
     "completed turns per wall second (speed sampling excluded); median "
     f"over windows of >= {WINDOW_TURNS} consecutive completions of every "
     "pass, each scaled by the speed sampled during it"),
    ("turn_p50_ms", "ms", "lower", 0.25,
     "median turn latency, call to return (served: submit to response); "
     "median over the same windows, scaled the same way"),
    ("turn_p99_ms", "ms", "lower", 0.25,
     "99th-percentile turn latency (>= 10 samples beyond it in every "
     "window); median over the same windows, scaled the same way"),
    ("exec_accuracy", "share", "higher", 0.05,
     "attempted turns whose answer matches the gold answer "
     "(execution_match for SQL, vis_component_match for charts)"),
    ("answer_rate", "share", "higher", 0.05,
     "1 - fail_rate: turns that got an answer (not an error, "
     "clarification, shed or timeout) over turns attempted"),
    ("rss_mb", "MB", "lower", 0.1,
     "peak resident memory of the benchmark process"),
)

#: (name, unit, better, source, [(end-to-end metric, workload), ...])
PER_LAYER = (
    ("serve.queue_ms.p50", "ms", "lower",
     "Response.queue_seconds",
     [("turn_p99_ms", "serve_dialogues"),
      ("serve.open_loop.slo_rate_rps", "serve_dialogues")]),
    ("serve.queue_ms.p99", "ms", "lower",
     "Response.queue_seconds",
     [("turn_p99_ms", "serve_dialogues"),
      ("serve.open_loop.slo_rate_rps", "serve_dialogues")]),
    ("serve.tax_ms.p50", "ms", "lower",
     "Response.service_seconds minus the InteractiveSession.ask span",
     [("turn_p50_ms", "serve_dialogues")]),
    ("serve.coalesced_share", "share", "higher",
     "coalesced responses over responses",
     [("turns_per_s", "serve_dialogues"), ("answer_rate", "serve_dialogues"),
      ("serve.open_loop.slo_rate_rps", "serve_dialogues")]),
    ("serve.shed_share", "share", "lower",
     "repro.serve.sheds over sheds + admitted",
     [("turns_per_s", "serve_dialogues"), ("answer_rate", "serve_dialogues"),
      ("serve.open_loop.slo_rate_rps", "serve_dialogues")]),
    ("serve.open_loop.slo_rate_rps", "1/s", "higher",
     "open loop: the highest ladder rate whose p99 from due time is "
     "within the latency limit with no growing backlog",
     [("turns_per_s", "serve_dialogues")]),
    ("serve.open_loop.late_ms.p99", "ms", "lower",
     "how late the open-loop generator submitted, on that highest rung",
     [("serve.open_loop.slo_rate_rps", "serve_dialogues")]),
    ("session.ask_ms.p50", "ms", "lower",
     "InteractiveSession.ask span",
     [("turn_p50_ms", "serve_dialogues")]),
    ("session.turn_cache.hit_rate", "share", "higher",
     "repro.session.turn_cache.hits over repro.session.turns",
     [("turn_p50_ms", "serve_dialogues")]),
    ("pipeline.run_ms.p50", "ms", "lower",
     "Pipeline.run span",
     [("turn_p50_ms", "serve_dialogues")]),
    ("pipeline.turn_cache.hit_rate", "share", "higher",
     "repro.pipeline.turn_cache hits over hits + misses",
     [("turn_p50_ms", "serve_dialogues")]),
    ("pipeline.self_ms.p50", "ms", "lower",
     "Pipeline.run self time (memo key, replay copies, stage records)",
     [("turn_p50_ms", "cold_corpus"), ("turn_p50_ms", "serve_dialogues")]),
    ("parsers.translate_ms.p50", "ms", "lower",
     "Parser.parse / VisParser.parse_vis span",
     [("turn_p50_ms", "cold_corpus")]),
    ("parsers.candidates.mean", "count", "lower",
     "candidates returned per translate call",
     [("turn_p50_ms", "cold_corpus")]),
    ("sql.lint.gate_ms.p50", "ms", "lower",
     "LintGate.decide span",
     [("turn_p50_ms", "cold_corpus")]),
    ("sql.lint.pruned_share", "share", "lower",
     "pruned over examined candidates, LintGate.decide",
     [("turn_p50_ms", "cold_corpus")]),
    ("vis.lint.gate_ms.p50", "ms", "lower",
     "VisLintGate.decide span",
     [("turn_p50_ms", "cold_corpus")]),
    ("vis.lint.pruned_share", "share", "lower",
     "pruned over examined candidates, VisLintGate.decide",
     [("turn_p50_ms", "cold_corpus")]),
    ("sql.plan.compile_ms.total", "ms", "lower",
     "compile_query spans, summed over one pass",
     [("turn_p50_ms", "cold_corpus")]),
    ("sql.plan.cache.hit_rate", "share", "higher",
     "plan_cache_stats() hits over hits + misses",
     [("turn_p50_ms", "cold_corpus")]),
    ("sql.execute_ms.p50", "ms", "lower",
     "execute self time (compile, stats, index and batch builds excluded)",
     [("turn_p99_ms", "write_mix"), ("turns_per_s", "write_mix")]),
    ("sql.execute_ms.p99", "ms", "lower",
     "execute self time, 99th percentile",
     [("turn_p99_ms", "write_mix"), ("turns_per_s", "write_mix")]),
    ("sql.rescache.hit_rate", "share", "higher",
     "repro.sql.rescache hits over hits + misses",
     [("turns_per_s", "write_mix"), ("turns_per_s", "serve_dialogues")]),
    ("sql.rescache.evictions", "count", "lower",
     "repro.sql.rescache.evictions over one pass",
     [("turns_per_s", "write_mix"), ("rss_mb", "serve_dialogues")]),
    ("sql.rescache.bytes", "bytes", "lower",
     "repro.sql.rescache.bytes at the end of a pass",
     [("rss_mb", "serve_dialogues")]),
    ("sql.vector.fallback_share", "share", "lower",
     "repro.sql.vector.fallbacks over fallbacks + vectorized operators "
     "compiled",
     [("turn_p99_ms", "write_mix")]),
    ("sql.vector.batch_builds", "count", "lower",
     "distinct ColumnBatch objects column_batch returned in one pass",
     [("turn_p99_ms", "write_mix")]),
    ("sql.stats.builds", "count", "lower",
     "stats_cache_stats() collections over one pass",
     [("turn_p99_ms", "write_mix")]),
    ("sql.index.builds", "count", "lower",
     "index_cache_stats() hash + sorted builds over one pass",
     [("turn_p99_ms", "write_mix")]),
    ("sql.rebuild_ms.total", "ms", "lower",
     "table_stats, collect_column_stats, hash_index, sorted_index and "
     "column_batch self time, summed over one pass",
     [("turn_p99_ms", "write_mix")]),
    ("vis.render_ms.p50", "ms", "lower",
     "render_chart self time (its SQL execution counts as sql.execute)",
     [("turn_p50_ms", "cold_corpus")]),
    ("resilience.degrades", "count", "lower",
     "repro.resilience.degrades over one pass (0 with no faults)",
     [("answer_rate", w) for w in WORKLOAD_NAMES]),
    ("resilience.retries", "count", "lower",
     "repro.resilience.retry.retries over one pass (0 with no faults)",
     [("answer_rate", w) for w in WORKLOAD_NAMES]),
    ("obs.tracing_cost_pct", "%", "lower",
     "turns_per_s lost with repro.obs.trace enabled",
     [("turns_per_s", "cold_corpus")]),
    ("trace.attributed_share", "share", "higher",
     "layer self times over turn wall time (served turns: over service "
     "time, the queue being the serve layer's)",
     [("turns_per_s", w) for w in ("cold_corpus", "write_mix")]),
    ("trace.overhead_pct", "%", "lower",
     "turns_per_s lost with the benchmark's own spans",
     [("turns_per_s", w) for w in WORKLOAD_NAMES]),
)

#: per-layer metrics whose layer a workload never calls, with the reason;
#: they are still printed (as the 0 the layer did), so every run lists
#: every metric
_DIRECT = [m[0] for m in PER_LAYER if m[0].startswith(("serve.", "session."))]
NOT_ON_PATH = {
    workload: (
        _DIRECT,
        "no server and no InteractiveSession: the client calls "
        "PipelineSystem.answer directly",
    )
    for workload in ("cold_corpus", "write_mix")
}

RUN_SECONDS = 25
COMMAND = ["python3", "turnbench/run.py"]
PATHS = ["turnbench"]


def benchmark_manifest() -> dict:
    """The ``BENCHMARK.json`` contract, exactly its six keys."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER
        ],
    }


def design_record() -> dict:
    """The full design: workloads with seeds and sizes, metric
    definitions, and the layer -> metric -> workload map."""
    return {
        "command": COMMAND + [
            "--workload", "<name>", "--seed", "<n>", "--seconds", "<s>",
            "--trace", "<0|1>",
        ],
        "workloads": list(WORKLOADS),
        "end_to_end": {
            n: {"unit": u, "better": b, "bound": bound, "definition": d}
            for n, u, b, bound, d in END_TO_END
        },
        "per_layer": {
            n: {
                "unit": u,
                "better": b,
                "source": src,
                "moves": [{"metric": m, "workload": w} for m, w in moves],
            }
            for n, u, b, src, moves in PER_LAYER
        },
        "not_on_path": {
            w: {"metrics": names, "why": why}
            for w, (names, why) in NOT_ON_PATH.items()
        },
        "timing_scale": (
            "times are scaled to a reference speed of the benchmark's own "
            "calibration kernels (speed.py): measured time * reference / "
            "median kernel time sampled during the window, or the pass for "
            "setup_s.  Direct loops time speed.kernel before every "
            f"{SPEED_SAMPLE_EVERY} operations; a served pass runs its "
            f"sessions in chunks of {SERVE_CHUNK_SESSIONS} and times "
            f"speed.handoff_kernel {SERVE_SPEED_SAMPLES} times between "
            "chunks, while no client runs.  Sampling is off the pass "
            "clock; raw values are in the run detail"
        ),
        "failed": (
            "turns that got no response from the system: an exception, a "
            "shed or a timeout; an error answer (untranslatable question) "
            "counts against answer_rate and exec_accuracy, not as failed"
        ),
        "correct": (
            "checked after timing and counters: every answered SQL turn "
            "equals a from-scratch run of its SQL on the database state it "
            "ran against (execute_reference on the last state a query met "
            "on a database; on write_mix's earlier states, a plan compiled "
            "without plan cache, optimizer or vector kernels on a fresh "
            "copy); every pass answers like the first; "
            "no per-session FIFO violation; Server.unhandled_errors() empty"
        ),
    }
