"""The three workload drivers.

All three gated workloads are closed loops.  ``cold_corpus`` and
``write_mix`` have one client calling ``PipelineSystem.answer``, which
sends its next operation when the previous one returns.
``serve_dialogues`` has ``SERVE_CLIENTS`` client threads, each replaying
one session at a time through a ``repro.serve.Server``: a client submits
all of a session's turns at once and waits for them in order, so the
server, not the client, keeps each session's turns in order.  A run is a
sequence of *passes*; each pass sets up from scratch (inputs, databases,
a fresh system or server, cleared plan and result caches) and replays
the same seeded operations, so passes are repeats of one experiment and
the run reports medians over them.  Every timing is scaled by the
machine's speed during its pass (``speed.py``).

The traced run of ``serve_dialogues`` also drives the server open-loop:
one generator thread submits on a fixed schedule, whether or not earlier
requests have completed, and climbs a ladder of offered rates.  Each
*rung* sets up from scratch like a pass.  Latency runs from a request's
due time to its response, so generator stalls count against the server.
"""

from __future__ import annotations

import gc
import os
import resource
import threading
import traceback
from contextlib import contextmanager
from statistics import median
from time import perf_counter, sleep

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve import ServeConfig, Server
from repro.sql.index import index_cache_stats
from repro.sql.plan import clear_plan_caches, plan_cache_stats
from repro.sql.rescache import clear_result_cache
from repro.sql.stats import stats_cache_stats
from repro.systems import PipelineSystem

import check
import inputs
import spec
from spans import REBUILD_LAYERS, SpanRecorder
from speed import Speed

#: how long to wait for any one served response before calling it a
#: timeout
RESPONSE_TIMEOUT_S = 60.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (*q* in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _rate(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serve_workers() -> int:
    """Server workers: the default pool size, capped at the CPU count."""
    return max(1, min(os.cpu_count() or 1, ServeConfig().workers))


def failed_response(response) -> bool:
    """A served request with no response from the system: shed, timed
    out (None), or a worker exception (an error with no answer kind)."""
    return response is None or response.shed or (
        response.status == "error" and response.kind is None
    )


def fifo_violations(responses) -> list[str]:
    """Sessions whose turns completed out of submission order."""
    by_session: dict = {}
    for response in responses:
        if response is not None and not response.shed:
            by_session.setdefault(response.session_id, []).append(
                (response.session_seq, response.completion_index)
            )
    bad = []
    for session_id, pairs in by_session.items():
        order = [completion for _, completion in sorted(pairs)]
        if order != sorted(order):
            bad.append(f"session {session_id} completed out of order")
    return bad


# ----------------------------------------------------------------------
# counters read from the program's own registry and cache statistics
# ----------------------------------------------------------------------
def counter_snapshot() -> dict:
    snap = obs_metrics.get_registry().snapshot()
    plans = plan_cache_stats()
    index = index_cache_stats()
    snap["plan.hits"] = plans["hits"]
    snap["plan.misses"] = plans["misses"]
    snap["stats.builds"] = stats_cache_stats()["collections"]
    snap["index.builds"] = index["hash_builds"] + index["sorted_builds"]
    return snap


def counter_deltas(before: dict, after: dict) -> dict:
    """Numeric instruments as after - before; each also keeps its end
    value under a ``.end`` suffix (for gauges such as cache bytes)."""
    out = {}
    for name, value in after.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            base = before.get(name, 0)
            out[name] = value - (base if isinstance(base, (int, float)) else 0)
            out[name + ".end"] = value
    return out


def registry_layer_metrics(delta: dict) -> dict:
    """Per-layer metrics that come from counters alone."""
    pipe_hits = delta.get("repro.pipeline.turn_cache.hits", 0)
    pipe_misses = delta.get("repro.pipeline.turn_cache.misses", 0)
    res_hits = delta.get("repro.sql.rescache.hits", 0)
    res_misses = delta.get("repro.sql.rescache.misses", 0)
    responses = delta.get("repro.serve.responses", 0)
    return {
        "serve.coalesced_share": _rate(
            delta.get("repro.serve.coalesce.followers", 0), responses
        ),
        "serve.shed_share": _rate(
            delta.get("repro.serve.sheds", 0),
            delta.get("repro.serve.sheds", 0)
            + delta.get("repro.serve.admitted", 0),
        ),
        "session.turn_cache.hit_rate": _rate(
            delta.get("repro.session.turn_cache.hits", 0),
            delta.get("repro.session.turns", 0),
        ),
        "pipeline.turn_cache.hit_rate": _rate(
            pipe_hits, pipe_hits + pipe_misses
        ),
        "sql.plan.cache.hit_rate": _rate(
            delta["plan.hits"], delta["plan.hits"] + delta["plan.misses"]
        ),
        "sql.rescache.hit_rate": _rate(res_hits, res_hits + res_misses),
        "sql.rescache.evictions": delta.get("repro.sql.rescache.evictions", 0),
        "sql.rescache.bytes": delta.get("repro.sql.rescache.bytes.end", 0),
        "sql.stats.builds": delta["stats.builds"],
        "sql.index.builds": delta["index.builds"],
        "resilience.degrades": delta.get("repro.resilience.degrades", 0),
        "resilience.retries": delta.get("repro.resilience.retry.retries", 0),
    }


def span_layer_metrics(recorder: SpanRecorder, counts: dict) -> dict:
    """Per-layer times from one span-recorded pass.

    *counts* are the registry deltas of the same pass (for the vector
    fallback count, taken where the program counts it).
    """
    inclusive: dict = {}
    self_times: dict = {}
    for _, _, _, _, layer, start, end, own in recorder.spans():
        inclusive.setdefault(layer, []).append(end - start)
        self_times.setdefault(layer, []).append(own)
    ms = 1e3
    c = recorder.counts
    fallbacks = counts.get("repro.sql.vector.fallbacks", 0)

    def p(times: dict, layer: str, q: float = 50) -> float:
        return percentile(times.get(layer), q) * ms

    return {
        "session.ask_ms.p50": p(inclusive, "session"),
        "pipeline.run_ms.p50": p(inclusive, "pipeline"),
        "pipeline.self_ms.p50": p(self_times, "pipeline"),
        "parsers.translate_ms.p50": p(inclusive, "parsers"),
        "parsers.candidates.mean": _rate(
            c.get("parsers.candidates", 0), c.get("parsers.calls", 0)
        ),
        "sql.lint.gate_ms.p50": p(inclusive, "sql.lint"),
        "sql.lint.pruned_share": _rate(
            c.get("sql.lint.pruned", 0), c.get("sql.lint.examined", 0)
        ),
        "vis.lint.gate_ms.p50": p(inclusive, "vis.lint"),
        "vis.lint.pruned_share": _rate(
            c.get("vis.lint.pruned", 0), c.get("vis.lint.examined", 0)
        ),
        "sql.plan.compile_ms.total": sum(inclusive.get("sql.plan", ())) * ms,
        "sql.execute_ms.p50": p(self_times, "sql.execute"),
        "sql.execute_ms.p99": p(self_times, "sql.execute", 99),
        "sql.vector.fallback_share": _rate(
            fallbacks, fallbacks + c.get("sql.vector.ops", 0)
        ),
        "sql.vector.batch_builds": c.get("sql.vector.batch_builds", 0),
        "sql.rebuild_ms.total": sum(
            sum(self_times.get(layer, ())) for layer in REBUILD_LAYERS
        ) * ms,
        "vis.render_ms.p50": p(self_times, "vis.charts"),
    }


def _fresh_caches() -> None:
    clear_plan_caches()
    clear_result_cache()


@contextmanager
def quiet_heap():
    """Collect, then freeze the heap so far, for a timed section.

    A full collection over the corpora and databases takes 30-70 ms on
    a small machine; left to chance it lands inside one pass's p99 (or
    set-up) and not another's.  Objects created inside the section are
    still collected as usual, so set-up and replay pay for their own
    garbage, as in a fresh process, and not for earlier passes'.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


@contextmanager
def traced_as(mode: str, recorder, system, session: bool):
    """The tracing a pass runs under: none, the benchmark's own spans, or
    ``repro.obs.trace``."""
    if mode == "spans":
        with recorder.installed(system, session=session):
            yield
    elif mode == "obs":
        with obs_trace.tracing():
            yield
    else:
        yield


# ----------------------------------------------------------------------
# closed loop
# ----------------------------------------------------------------------
class ClosedPass:
    """One closed-loop pass: set up, replay, keep the answers for checks."""

    def __init__(self, workload: str, seed: int, mode: str = "plain"):
        self.workload = workload
        self.mode = mode  # "plain" | "spans" | "obs"
        with quiet_heap():
            start = perf_counter()
            self._set_up(workload, seed)
            self.setup_s = perf_counter() - start
        self.recorder = SpanRecorder() if mode == "spans" else None
        self.speed = Speed(threaded=self.server is not None)
        self.latencies: list[float] = []
        #: when each turn returned, parallel to ``latencies``, on the
        #: pass clock (wall time less the time spent sampling the speed)
        self.ends: list[float] = []
        self.started = 0.0
        #: (turn, response or None, db key, state or None), in input order
        self.answers: list[tuple] = []
        self.failed = 0
        #: tracebacks of turns that raised (reported in the run detail)
        self.errors: list[str] = []
        self.counts: dict = {}
        self.unhandled: list[str] = []

    def _set_up(self, workload: str, seed: int) -> None:
        if workload == "cold_corpus":
            self.databases, self.ops = inputs.cold_corpus(seed)
        elif workload == "write_mix":
            self.databases, self.ops = inputs.write_mix(seed)
        else:
            self.databases, dialogues = inputs.dialogue_corpus()
            self.ops = inputs.dialogue_sessions(dialogues, seed,
                                                spec.SERVE_SESSIONS)
        self.system = PipelineSystem()
        _fresh_caches()
        self.server = None
        if workload == "serve_dialogues":
            self.server = Server(
                self.databases,
                system=self.system,
                config=ServeConfig(workers=serve_workers()),
            )

    def run(self) -> "ClosedPass":
        serving = self.server is not None
        before = counter_snapshot()
        with quiet_heap(), traced_as(self.mode, self.recorder, self.system,
                                     session=serving):
            if serving:
                self._serve()
            else:
                self._replay()
        self.counts = counter_deltas(before, counter_snapshot())
        return self

    def _replay(self) -> None:
        databases = self.databases
        answer = self.system.answer
        recorder = self.recorder
        track_state = self.workload == "write_mix"
        speed = self.speed
        paused = 0.0
        self.started = perf_counter()
        for index, op in enumerate(self.ops):
            if index % spec.SPEED_SAMPLE_EVERY == 0:
                paused += speed.sample(perf_counter() - paused)
            if isinstance(op, inputs.Insert):
                databases[op.db_key].insert(op.table, op.row)
                continue
            db = databases[op.db_key]
            state = check.state_of(db) if track_state else None
            t0 = perf_counter()
            try:
                if recorder is not None:
                    with recorder.span("turn"):
                        response = answer(op.question, db,
                                          knowledge=op.knowledge)
                else:
                    response = answer(op.question, db, knowledge=op.knowledge)
            except Exception:  # a turn that raised is a failed turn
                response = None
                self.failed += 1
                self.errors.append(traceback.format_exc(limit=-3))
            end = perf_counter()
            self.latencies.append(end - t0)
            self.ends.append(end - paused)
            self.answers.append((op, response, op.db_key, state))

    def _serve(self) -> None:
        """``SERVE_CLIENTS`` threads take sessions in order; each submits
        all of its session's turns, waits for them in submission order,
        then closes the session.  A turn's latency runs from its submit
        to its resolution.  The sessions are served in chunks of
        ``SERVE_CHUNK_SESSIONS``; between chunks, while no client runs,
        the speed is sampled, off the pass clock."""
        server = self.server
        sessions = self.ops
        done: list = [None] * len(sessions)

        def resolved(slot: list):
            def record(_response) -> None:
                slot[1] = perf_counter()

            return record

        def client(claim) -> None:
            # next() on a range iterator is atomic
            while (index := next(claim, None)) is not None:
                session_id, turns = sessions[index]
                pending = []
                for turn in turns:
                    slot = [perf_counter(), None]  # submitted, resolved
                    ticket = server.submit(
                        turn.question,
                        session_id=session_id,
                        db_id=turn.db_key,
                        knowledge=turn.knowledge,
                    )
                    ticket.add_done_callback(resolved(slot))
                    pending.append((turn, ticket, slot))
                out = []
                for turn, ticket, slot in pending:
                    try:
                        response = ticket.result(timeout=RESPONSE_TIMEOUT_S)
                    except TimeoutError:
                        response = None
                    out.append((turn, response, slot[0],
                                slot[1] or perf_counter()))
                server.close_session(session_id)
                done[index] = out

        def sample(paused: float) -> float:
            for _ in range(spec.SERVE_SPEED_SAMPLES):
                paused += self.speed.sample(perf_counter() - paused)
            return paused

        paused = 0.0
        #: per session, the pass clock's offset from wall time
        offsets = [0.0] * len(sessions)
        self.started = perf_counter()
        try:
            for first in range(0, len(sessions), spec.SERVE_CHUNK_SESSIONS):
                paused = sample(paused)
                chunk = range(first, min(first + spec.SERVE_CHUNK_SESSIONS,
                                         len(sessions)))
                claim = iter(chunk)
                threads = [
                    threading.Thread(target=client, args=(claim,),
                                     name=f"turnbench-client-{i}")
                    for i in range(spec.SERVE_CLIENTS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                for index in chunk:
                    offsets[index] = paused
            sample(paused)
        finally:
            server.shutdown()
        self.unhandled = server.unhandled_errors()
        for out, offset in zip(done, offsets):
            for turn, response, begin, end in out:
                self.latencies.append(end - begin)
                self.ends.append(end - offset)
                self.answers.append((turn, response, turn.db_key, None))
                self.failed += failed_response(response)

    def timings(self) -> dict:
        """What a run keeps of a pass once its answers are checked.

        The pass is cut, in completion order, into windows of at least
        ``WINDOW_TURNS`` turns; each window gives a throughput, a p50 and
        a p99 (>= 10 samples beyond it).  A run reports medians over all
        its windows, so a few seconds of a slower machine move one
        window, not the result.  Each window's times are scaled by the
        speed sampled during it (during the pass, when served), and the
        set-up time by the speed of the whole pass; ``raw_*`` keep the
        unscaled values.
        """
        order = sorted(range(len(self.ends)), key=self.ends.__getitem__)
        count = max(1, len(order) // spec.WINDOW_TURNS)
        windows = []
        begin = self.started
        for index in range(count):
            part = order[len(order) * index // count:
                         len(order) * (index + 1) // count]
            end = self.ends[part[-1]]
            latencies = [self.latencies[i] for i in part]
            factor = self.speed.factor(begin, end)
            raw_rate = len(part) / (end - begin)
            windows.append({
                "turns_per_s": raw_rate / factor,
                "p50_s": percentile(latencies, 50) * factor,
                "p99_s": percentile(latencies, 99) * factor,
                "raw_turns_per_s": raw_rate,
                "speed_factor": factor,
            })
            begin = end
        return {
            "setup_s": self.setup_s * self.speed.factor(),
            "raw_setup_s": self.setup_s,
            "turns": len(self.latencies),
            "failed": self.failed,
            "errors": self.errors[:5],
            "windows": windows,
        }

    def records(self) -> list[tuple]:
        """``(turn, response, db)`` with db the state the turn ran on."""
        views: dict = {}
        out = []
        for turn, response, key, state in self.answers:
            db = self.databases[key]
            if state is not None:
                if (key, state) not in views:
                    views[key, state] = check.view_at(db, state)
                db = views[key, state]
            out.append((turn, response, db))
        return out

    def violations(self) -> list[str]:
        out = check.reference_violations(self.records())
        if self.server is not None:
            out.extend(fifo_violations(r for _, r, _, _ in self.answers))
            out.extend(f"unhandled worker error: {e}" for e in self.unhandled)
        return out

    def responses(self) -> list:
        return [r for _, r, _, _ in self.answers if r is not None]

    def attributed_share(self) -> float:
        """Layer self time over turn wall time.  Served turns have no
        benchmark span around them, so their wall time is the server's
        service time (queue wait is the serve layer's, not a span's)."""
        spans = self.recorder.spans()
        layer_self = sum(s[7] for s in spans if s[4] != "turn")
        if self.server is not None:
            wall = sum(r.service_seconds for r in self.responses())
        else:
            wall = sum(s[6] - s[5] for s in spans if s[4] == "turn")
        return _rate(layer_self, wall)


def _passes_fit(passes: list, seconds: float, started: float) -> bool:
    """Whether another pass (or round) of average length still fits in
    *seconds*."""
    elapsed = perf_counter() - started
    return elapsed + elapsed / len(passes) <= seconds


def _replay_checked(workload: str, seed: int, mode: str, first, passes):
    """Run one more pass, compare its answers with the first pass's, and
    keep only its timings (so memory does not grow with the pass count)."""
    current = ClosedPass(workload, seed, mode).run()
    problems = current.violations() if current.server is not None else []
    if not check.same_answers(first.records(), current.records()):
        problems.append(f"a {mode} pass answered differently from the first")
    passes.append(current.timings())
    del current
    gc.collect()
    return problems


def run_closed(workload: str, seed: int, seconds: float) -> dict:
    started = perf_counter()
    first = ClosedPass(workload, seed).run()
    passes = [first.timings()]
    violations: list[str] = []
    while len(passes) < spec.MIN_PASSES or _passes_fit(passes, seconds,
                                                       started):
        violations += _replay_checked(workload, seed, "plain", first, passes)
    rss = peak_rss_mb()
    windows = [w for p in passes for w in p["windows"]]
    records = first.records()
    violations += first.violations()
    attempted = len(first.latencies)
    answered = sum(1 for _, r, _ in records if check.answered(r))
    metrics = {
        "setup_s": median(p["setup_s"] for p in passes),
        "turns_per_s": median(w["turns_per_s"] for w in windows),
        "turn_p50_ms": median(w["p50_s"] for w in windows) * 1e3,
        "turn_p99_ms": median(w["p99_s"] for w in windows) * 1e3,
        "exec_accuracy": check.accuracy(records),
        "answer_rate": _rate(answered, attempted),
        "rss_mb": rss,
    }
    detail = {
        "passes": len(passes),
        "windows": len(windows),
        "latency_samples_per_pass": attempted,
        "by_pass": passes,
        "fail_rate": 1 - metrics["answer_rate"],
        "raw_setup_s": median(p["raw_setup_s"] for p in passes),
        "raw_turns_per_s": median(w["raw_turns_per_s"] for w in windows),
        "speed_factor": median(w["speed_factor"] for w in windows),
    }
    if workload == "serve_dialogues":
        detail.update({"nproc": os.cpu_count(), "workers": serve_workers(),
                       "clients": spec.SERVE_CLIENTS})
    return {
        "metrics": metrics,
        "attempted": sum(p["turns"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "violations": violations,
        "detail": detail,
    }


def _serve_tax(rung: ClosedPass) -> list[float]:
    """Per served request: service time minus its
    ``InteractiveSession.ask`` span, matched by worker thread and order
    (a worker serves one request at a time and calls ``ask`` once per
    request it serves)."""
    asks: dict = {}
    for _, _, _, thread, layer, start, end, _ in sorted(
        rung.recorder.spans(), key=lambda s: s[5]
    ):
        if layer == "session":
            asks.setdefault(thread, []).append(end - start)
    served: dict = {}
    for response in sorted(
        (r for r in rung.responses() if not r.shed),
        key=lambda r: r.completion_index,
    ):
        served.setdefault(f"repro-serve-{response.worker}", []).append(
            response.service_seconds
        )
    taxes = []
    for thread, services in served.items():
        durations = asks.get(thread, [])
        if len(durations) != len(services):
            raise RuntimeError(f"{thread}: ask spans do not match responses")
        taxes.extend(s - d for s, d in zip(services, durations))
    return taxes


def run_closed_traced(workload: str, seed: int, seconds: float) -> dict:
    """Rounds of (plain, span-recorded, obs-traced) passes.

    The first plain pass gives the counters and the first span-recorded
    pass the layer times; the turns_per_s of every round feed the two
    overhead percentages.  ``serve_dialogues`` then climbs the open-loop
    rate ladder.
    """
    started = perf_counter()
    plain = ClosedPass(workload, seed, "plain").run()
    spans = ClosedPass(workload, seed, "spans").run()
    recorder = spans.recorder
    rounds = {"plain": [plain.timings()], "spans": [spans.timings()],
              "obs": []}
    violations = spans.violations()
    if plain.server is not None:
        violations += plain.violations()
    if not check.same_answers(plain.records(), spans.records()):
        violations.append("the span-recorded pass answered differently")
    while True:
        violations += _replay_checked(workload, seed, "obs", plain,
                                      rounds["obs"])
        if not _passes_fit(rounds["obs"], seconds, started):
            break
        for mode in ("plain", "spans"):
            violations += _replay_checked(workload, seed, mode, plain,
                                          rounds[mode])
    tps = {
        mode: median(w["turns_per_s"] for p in timings for w in p["windows"])
        for mode, timings in rounds.items()
    }
    metrics = {name: 0.0 for name, *_ in spec.PER_LAYER}
    metrics.update(registry_layer_metrics(plain.counts))
    metrics.update(span_layer_metrics(spans.recorder, spans.counts))
    metrics["trace.attributed_share"] = spans.attributed_share()
    metrics["trace.overhead_pct"] = (1 - tps["spans"] / tps["plain"]) * 100
    metrics["obs.tracing_cost_pct"] = (1 - tps["obs"] / tps["plain"]) * 100
    detail = {
        "rounds": len(rounds["obs"]),
        "turns_per_s_by_mode": {k: round(v, 3) for k, v in tps.items()},
    }
    attempted = sum(p["turns"] for t in rounds.values() for p in t)
    failed = sum(p["failed"] for t in rounds.values() for p in t)
    if workload == "serve_dialogues":
        queue = [r.queue_seconds for r in plain.responses() if not r.shed]
        metrics["serve.queue_ms.p50"] = percentile(queue, 50) * 1e3
        metrics["serve.queue_ms.p99"] = percentile(queue, 99) * 1e3
        metrics["serve.tax_ms.p50"] = percentile(_serve_tax(spans), 50) * 1e3
        del plain, spans
        gc.collect()
        ladder: list[dict] = []
        slo = climb(seed, ladder)
        best = max((r for r in ladder if r["passed"]),
                   key=lambda r: r["rate"], default=None)
        metrics["serve.open_loop.slo_rate_rps"] = slo
        metrics["serve.open_loop.late_ms.p99"] = (
            best["summary"]["generator_late_ms_p99"] if best else 0.0
        )
        violations += [v for r in ladder for v in r["violations"]]
        attempted += sum(r["summary"]["sent"] for r in ladder)
        failed += sum(r["summary"]["failed"] for r in ladder)
        detail.update({
            "nproc": os.cpu_count(),
            "workers": serve_workers(),
            "clients": spec.SERVE_CLIENTS,
            "latency_limit_ms": spec.LATENCY_LIMIT_MS,
            "open_loop_rungs": [r["summary"] for r in ladder],
        })
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "violations": violations,
        "recorder": recorder,
        "detail": detail,
    }


# ----------------------------------------------------------------------
# open loop (traced serve_dialogues runs only)
# ----------------------------------------------------------------------
class Rung:
    """One rung of the rate ladder: fresh server, fixed schedule."""

    def __init__(self, seed: int, rate: float, requests: int):
        self.rate = rate
        start = perf_counter()
        self.databases, dialogues = inputs.dialogue_corpus()
        self.schedule = inputs.dialogue_schedule(dialogues, seed, requests)
        self.server = Server(
            self.databases,
            system=PipelineSystem(),
            config=ServeConfig(workers=serve_workers()),
        )
        _fresh_caches()
        self.setup_s = perf_counter() - start
        self.due: list[float] = []
        self.late: list[float] = []
        self.tickets: list = []
        self.done_at: dict[int, float] = {}
        self.aborted = False
        self.backlog_end = 0
        self.responses: list = []
        self.unhandled: list[str] = []

    def _on_done(self, index: int):
        done_at = self.done_at

        def record(_response) -> None:
            done_at[index] = perf_counter()

        return record

    def run(self) -> "Rung":
        with quiet_heap():
            self._drive()
        return self

    def _drive(self) -> None:
        server = self.server
        interval = 1.0 / self.rate
        # abort a rung whose backlog clearly exceeds what the latency
        # limit allows, before admission control starts shedding
        abort_backlog = min(
            2 * self.rate * spec.LATENCY_LIMIT_MS / 1e3,
            0.75 * server.config.max_pending,
        )
        closing: list[tuple] = []
        start = perf_counter()
        try:
            for index, request in enumerate(self.schedule):
                due = start + index * interval
                delay = due - perf_counter()
                if delay > 0:
                    sleep(delay)
                self.late.append(max(0.0, perf_counter() - due))
                self.due.append(due)
                turn = request.turn
                ticket = server.submit(
                    turn.question,
                    session_id=request.session_id,
                    db_id=turn.db_key,
                    knowledge=turn.knowledge,
                )
                ticket.add_done_callback(self._on_done(index))
                self.tickets.append(ticket)
                if request.last:
                    closing.append((request.session_id, ticket))
                closing = self._close_answered(closing)
                if len(self.tickets) - len(self.done_at) > abort_backlog:
                    self.aborted = True
                    break
            self.backlog_end = len(self.tickets) - len(self.done_at)
            for ticket in self.tickets:
                try:
                    self.responses.append(
                        ticket.result(timeout=RESPONSE_TIMEOUT_S)
                    )
                except TimeoutError:
                    self.responses.append(None)
            for session_id, _ in closing:
                server.close_session(session_id)
        finally:
            server.shutdown()
        self.unhandled = server.unhandled_errors()

    def _close_answered(self, closing: list) -> list:
        still_open = []
        for session_id, ticket in closing:
            if ticket.done():
                self.server.close_session(session_id)
            else:
                still_open.append((session_id, ticket))
        return still_open

    def latencies(self) -> list[float]:
        return [self.done_at[i] - self.due[i]
                for i in range(len(self.tickets)) if i in self.done_at]

    def outcome(self) -> dict:
        """Accounting, verdict and correctness of the finished rung."""
        latencies = self.latencies()
        p99_ms = percentile(latencies, 99) * 1e3
        failed = sum(failed_response(r) for r in self.responses)
        passed = (
            not self.aborted
            and failed == 0
            and self.backlog_end <= self.rate * spec.LATENCY_LIMIT_MS / 1e3
            and p99_ms <= spec.LATENCY_LIMIT_MS
        )
        records = [
            (request.turn, response, self.databases[request.turn.db_key])
            for request, response in zip(self.schedule, self.responses)
        ]
        violations = check.reference_violations(records)
        violations += fifo_violations(self.responses)
        violations += [f"unhandled worker error: {e}" for e in self.unhandled]
        served = [r for r in self.responses if r is not None]
        return {
            "rate": self.rate,
            "passed": passed,
            "violations": violations,
            "summary": {
                "rate_rps": self.rate,
                "sent": len(self.tickets),
                "succeeded": sum(1 for r in served if r.ok),
                "error_answers": sum(1 for r in served
                                     if r.status == "error"),
                "failed": failed,
                "shed": sum(1 for r in served if r.shed),
                "p50_ms": round(percentile(latencies, 50) * 1e3, 3),
                "p99_ms": round(p99_ms, 3),
                "latency_samples": len(latencies),
                "generator_late_ms_p50": round(
                    percentile(self.late, 50) * 1e3, 3),
                "generator_late_ms_p99": round(
                    percentile(self.late, 99) * 1e3, 3),
                "backlog_end": self.backlog_end,
                "aborted": self.aborted,
                "passed": passed,
                "setup_s": round(self.setup_s, 4),
            },
        }


def climb(seed: int, done: list) -> float:
    """Search the rate ladder for the highest rate within the limit.

    Coarse steps of ``LADDER_STRIDE`` ladder points climb until a rate
    fails; the points between the last pass and that failure are then
    tried in order.  A rate fails only when two rungs at it fail in a
    row, so one burst of noise cannot end the climb.  Returns the highest
    passing rate (0.0 when none passes).
    """
    grid = spec.rate_grid()

    def passes(index: int) -> bool:
        rate = grid[index]
        requests = max(spec.MIN_RUNG_REQUESTS, int(rate * spec.SEARCH_RUNG_S))
        for _ in range(2):
            outcome = Rung(seed, rate, requests).run().outcome()
            done.append(outcome)
            gc.collect()
            if outcome["passed"]:
                return True
        return False

    best = None
    failed_at = None
    for index in range(0, len(grid), spec.LADDER_STRIDE):
        if not passes(index):
            failed_at = index
            break
        best = index
    if failed_at is not None:
        for index in range((best if best is not None else -1) + 1,
                           failed_at):
            if not passes(index):
                break
            best = index
    return float(grid[best]) if best is not None else 0.0
