"""Serving-layer tests: envelopes, admission, fair scheduling, the
concurrent server (FIFO/fairness/singleflight/deadlines/lifecycle), the
pipeline turn cache, the chaos never-raise property, and the
serve/loadgen CLIs."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.pipeline import PipelineTrace
from repro.core.turn_cache import TurnCache, turn_key
from repro.obs import metrics as obs_metrics
from repro.serve import (
    Request,
    Response,
    ServeConfig,
    Server,
    ShedReason,
    Ticket,
)
from repro.serve.scheduler import FairScheduler
from repro.serve.sessions import ServeSession
from repro.sql.executor import Result
from repro.systems.base import NLISystem, SystemResponse
from repro.vis.charts import Chart


class ScriptedSystem(NLISystem):
    """Answers instantly (optionally after a delay), recording calls."""

    name = "scripted"
    architecture = "test"

    def __init__(self, delay: float = 0.0, fail_on: str | None = None):
        self.delay = delay
        self.fail_on = fail_on
        self.calls: list[str] = []  # list.append is atomic under the GIL

    def answer(self, question, db, knowledge=None, history=None):
        self.calls.append(question)
        if self.delay:
            time.sleep(self.delay)
        if self.fail_on is not None and self.fail_on in question:
            from repro.errors import SQLError

            raise SQLError(f"scripted failure for {question!r}")
        return SystemResponse(
            question=question,
            kind="data",
            sql=f"-- {question}",
            result=Result(columns=["q"], rows=[(question,)]),
        )


def slow_translate(system, delay: float) -> list[str]:
    """Make a ``PipelineSystem``'s translate stage sleep *delay* seconds
    (a remote-model call); returns the list its calls are recorded on."""
    calls: list[str] = []
    pipeline = system.pipeline
    for parser, attr in (
        (pipeline.sql_parser, "parse"),
        (pipeline.vis_parser, "parse_vis"),
    ):
        def slow(request, inner=getattr(parser, attr)):
            calls.append(request.question)
            time.sleep(delay)
            return inner(request)

        setattr(parser, attr, slow)
    return calls


def counter(name: str) -> int:
    return obs_metrics.get_registry().counter(name).value


def make_server(db, system=None, **config_kwargs) -> Server:
    defaults = dict(workers=2, session_ttl=None)
    defaults.update(config_kwargs)
    return Server(
        db, system=system or ScriptedSystem(), config=ServeConfig(**defaults)
    )


# ----------------------------------------------------------------------
# envelopes
# ----------------------------------------------------------------------
class TestEnvelope:
    def test_request_ids_are_unique_and_increasing(self):
        a, b = Request(question="x"), Request(question="y")
        assert b.request_id > a.request_id

    def test_ticket_resolves_exactly_once(self):
        ticket = Ticket(Request(question="x"))
        assert not ticket.done()
        first = Response(request_id=1, session_id="s")
        ticket._resolve(first)
        ticket._resolve(Response(request_id=1, session_id="s", status="error"))
        assert ticket.done()
        assert ticket.result(timeout=1) is first

    def test_ticket_timeout(self):
        ticket = Ticket(Request(question="x"))
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.01)

    def test_ticket_callbacks_fire_on_resolve_and_late_add(self):
        ticket = Ticket(Request(question="x"))
        seen: list[str] = []
        ticket.add_done_callback(lambda r: seen.append("early"))
        ticket._resolve(Response(request_id=1, session_id="s"))
        ticket.add_done_callback(lambda r: seen.append("late"))
        assert seen == ["early", "late"]

    def test_response_properties_and_describe(self):
        shed = Response(
            request_id=3,
            session_id="s",
            status="shed",
            shed_reason=ShedReason.QUEUE_FULL,
        )
        assert shed.shed and not shed.ok
        assert "queue-full" in shed.describe()
        ok = Response(
            request_id=4,
            session_id="s",
            kind="data",
            sql="SELECT 1",
            result=Result(columns=["a"], rows=[(1,)]),
            queue_seconds=0.25,
            service_seconds=0.5,
        )
        assert ok.rows == ((1,),) and ok.columns == ("a",)
        assert ok.total_seconds == pytest.approx(0.75)
        assert "1 row(s)" in ok.describe()


# ----------------------------------------------------------------------
# fair scheduler (pure, no threads)
# ----------------------------------------------------------------------
def _session(name: str, weight: float) -> ServeSession:
    session = ServeSession(name, "db", None, weight, now=0.0)
    return session


class TestFairScheduler:
    def _drain(self, sched, sessions, turns):
        """Pop *turns* dispatches, re-pushing sessions that stay ready."""
        order = []
        for _ in range(turns):
            session = sched.pop()
            assert session is not None
            order.append(session.session_id)
            session.queue.popleft()
            if session.queue:
                sched.push(session)
        return order

    def test_single_session_is_fifo(self):
        sched = FairScheduler()
        a = _session("a", 1.0)
        a.queue.extend(range(5))
        sched.push(a)
        assert self._drain(sched, [a], 5) == ["a"] * 5

    def test_equal_weights_interleave(self):
        sched = FairScheduler()
        a, b = _session("a", 1.0), _session("b", 1.0)
        a.queue.extend(range(4))
        b.queue.extend(range(4))
        sched.push(a)
        sched.push(b)
        order = self._drain(sched, [a, b], 8)
        # alternation: within any adjacent pair, both sessions appear
        for i in range(0, 8, 2):
            assert set(order[i : i + 2]) == {"a", "b"}

    def test_weighted_shares(self):
        sched = FairScheduler()
        a, b = _session("a", 1.0), _session("b", 3.0)
        a.queue.extend(range(8))
        b.queue.extend(range(8))
        sched.push(a)
        sched.push(b)
        order = self._drain(sched, [a, b], 8)
        assert order.count("b") >= 5  # ~3x the turns of a

    def test_stale_entries_are_skipped(self):
        sched = FairScheduler()
        a, b = _session("a", 1.0), _session("b", 1.0)
        a.queue.append(0)
        b.queue.append(0)
        sched.push(a)
        sched.push(b)
        a.queue.clear()  # a drained out from under its heap entry
        popped = sched.pop()
        assert popped is b
        b.queue.popleft()
        assert sched.pop() is None

    def test_idle_session_reenters_at_current_virtual_time(self):
        sched = FairScheduler()
        a, b = _session("a", 1.0), _session("b", 1.0)
        a.queue.extend(range(10))
        sched.push(a)
        self._drain(sched, [a], 6)
        # b arrives late: it must not get 6 catch-up turns
        b.queue.extend(range(4))
        sched.push(b)
        a_remaining = len(a.queue)
        order = self._drain(sched, [a, b], a_remaining + 4)
        head = order[:4]
        assert head.count("b") <= 2


# ----------------------------------------------------------------------
# server lifecycle and admission (deterministic: start=False)
# ----------------------------------------------------------------------
class TestAdmissionAndLifecycle:
    def test_queue_full_shed_is_immediate_and_typed(self, sales_db):
        server = Server(
            sales_db,
            system=ScriptedSystem(),
            config=ServeConfig(workers=1, max_pending=1, session_ttl=None),
            start=False,
        )
        first = server.submit("q1")
        second = server.submit("q2", session_id="other")
        assert not first.done()
        assert second.done()
        response = second.result(timeout=1)
        assert response.shed_reason is ShedReason.QUEUE_FULL
        assert response.backpressure == 1.0
        server.shutdown(drain=False)
        # the queued-but-never-served request flushes as a SHUTDOWN shed
        assert first.result(timeout=1).shed_reason is ShedReason.SHUTDOWN

    def test_session_queue_full_shed(self, sales_db):
        server = Server(
            sales_db,
            system=ScriptedSystem(),
            config=ServeConfig(
                workers=1, max_session_pending=1, session_ttl=None
            ),
            start=False,
        )
        server.submit("q1", session_id="s")
        shed = server.submit("q2", session_id="s").result(timeout=1)
        assert shed.shed_reason is ShedReason.SESSION_QUEUE_FULL
        # a different session still has room
        assert not server.submit("q3", session_id="t").done()
        server.shutdown(drain=False)

    def test_session_limit_shed_and_idle_eviction_valve(self, sales_db):
        server = Server(
            sales_db,
            system=ScriptedSystem(),
            config=ServeConfig(workers=1, max_sessions=1, session_ttl=None),
            start=False,
        )
        server.submit("q1", session_id="a")
        # "a" has queued work, so it is not evictable: "b" is refused
        shed = server.submit("q2", session_id="b").result(timeout=1)
        assert shed.shed_reason is ShedReason.SESSION_LIMIT
        server.shutdown(drain=False)

    def test_session_limit_evicts_idle_lru(self, sales_db):
        server = make_server(sales_db, workers=1, max_sessions=1)
        assert server.ask("q1", session_id="a").ok
        server.drain(timeout=5)
        server.resume()
        # "a" is now idle, so a new session evicts it instead of shedding
        assert server.ask("q2", session_id="b").ok
        stats = server.stats()
        assert [s["session_id"] for s in stats["sessions"]] == ["b"]
        server.shutdown()

    def test_draining_sheds_then_resume_admits(self, sales_db):
        server = make_server(sales_db, workers=1)
        assert server.drain(timeout=5)
        shed = server.submit("q").result(timeout=1)
        assert shed.shed_reason is ShedReason.DRAINING
        server.resume()
        assert server.ask("q").ok
        server.shutdown()

    def test_shutdown_is_idempotent_and_sheds_new_submits(self, sales_db):
        server = make_server(sales_db, workers=1)
        server.shutdown()
        server.shutdown()
        shed = server.submit("late").result(timeout=1)
        assert shed.shed_reason is ShedReason.SHUTDOWN

    def test_close_session_flushes_queue_and_allows_reopen(self, sales_db):
        server = Server(
            sales_db,
            system=ScriptedSystem(),
            config=ServeConfig(workers=1, session_ttl=None),
            start=False,
        )
        t1 = server.submit("q1", session_id="gone")
        t2 = server.submit("q2", session_id="gone")
        assert server.close_session("gone") == 2
        assert t1.result(timeout=1).shed_reason is ShedReason.SESSION_CLOSED
        assert t2.result(timeout=1).shed_reason is ShedReason.SESSION_CLOSED
        server.start()
        # same id after close = a fresh conversation
        assert server.ask("q3", session_id="gone").ok
        server.shutdown()

    def test_unknown_db_id_raises(self, sales_db):
        server = make_server(sales_db, workers=1)
        with pytest.raises(KeyError):
            server.submit("q", db_id="nope")
        server.shutdown()

    def test_idle_ttl_eviction_with_fake_clock(self, sales_db):
        now = [0.0]
        server = Server(
            sales_db,
            system=ScriptedSystem(),
            config=ServeConfig(
                workers=1, session_ttl=10.0, clock=lambda: now[0]
            ),
        )
        assert server.ask("q", session_id="old").ok
        now[0] = 5.0
        assert server.sweep_idle_sessions() == 0
        now[0] = 20.0
        assert server.sweep_idle_sessions() == 1
        assert server.stats()["sessions"] == []
        server.shutdown()


# ----------------------------------------------------------------------
# concurrent serving properties
# ----------------------------------------------------------------------
class TestConcurrentServing:
    def test_per_session_fifo_under_mixed_storm(self, sales_db):
        server = make_server(sales_db, ScriptedSystem(delay=0.001), workers=4)
        sessions = [f"s{i}" for i in range(6)]
        tickets: dict[str, list] = {sid: [] for sid in sessions}
        for i in range(180):
            sid = sessions[i % len(sessions)]
            tickets[sid].append(server.submit(f"q{i}", session_id=sid))
        for sid in sessions:
            responses = [t.result(timeout=30) for t in tickets[sid]]
            seqs = [r.session_seq for r in responses]
            assert seqs == list(range(1, len(responses) + 1))
            completions = [r.completion_index for r in responses]
            assert completions == sorted(completions)  # FIFO: no reorder
        assert server.unhandled_errors() == []
        server.shutdown()

    def test_weighted_fairness_under_contention(self, sales_db):
        server = Server(
            sales_db,
            system=ScriptedSystem(),
            config=ServeConfig(workers=1, session_ttl=None),
            start=False,
        )
        a_tickets = [
            server.submit("qa", session_id="a", weight=1.0) for _ in range(8)
        ]
        b_tickets = [
            server.submit("qb", session_id="b", weight=3.0) for _ in range(8)
        ]
        server.start()
        responses = [t.result(timeout=10) for t in a_tickets + b_tickets]
        assert all(r.ok for r in responses)
        first_eight = sorted(responses, key=lambda r: r.completion_index)[:8]
        b_share = sum(1 for r in first_eight if r.session_id == "b")
        assert b_share >= 5  # ~3x weight => ~3/4 of early turns
        server.shutdown()

    def test_identical_concurrent_requests_coalesce(self, sales_db):
        from repro.systems.architectures import PipelineSystem

        system = PipelineSystem()
        calls = slow_translate(system, 0.05)
        server = make_server(sales_db, system, workers=4)
        tickets = [
            server.submit("how many products are there", session_id=f"c{i}")
            for i in range(8)
        ]
        responses = [t.result(timeout=30) for t in tickets]
        server.shutdown()
        assert all(r.ok for r in responses)
        assert len({tuple(r.rows) for r in responses}) == 1
        assert len(calls) == 1  # one leader translated for all eight
        assert counter("repro.pipeline.turn_cache.followers") >= 1
        # one immutable result shared by the leader and its followers
        assert len({id(r.result) for r in responses}) == 1

    def test_failed_leader_does_not_poison_followers(self, sales_db):
        system = ScriptedSystem(delay=0.02, fail_on="boom")
        server = make_server(sales_db, system, workers=3)
        tickets = [
            server.submit("boom now", session_id=f"f{i}") for i in range(3)
        ]
        responses = [t.result(timeout=30) for t in tickets]
        assert all(r.status == "error" for r in responses)
        assert all("scripted failure" in r.error for r in responses)
        assert server.unhandled_errors() == []
        server.shutdown()

    def test_deadline_expired_in_queue_sheds(self, sales_db):
        server = make_server(sales_db, ScriptedSystem(delay=0.1), workers=1)
        blocker = server.submit("slow one")
        shed = server.submit(
            "too late", session_id="other", deadline=0.01
        ).result(timeout=10)
        assert shed.shed_reason is ShedReason.DEADLINE
        assert blocker.result(timeout=10).ok
        server.shutdown()

    def test_responses_match_direct_session_path(self, sales_db):
        """Zero contention => byte-identical answers vs the direct path."""
        from repro.systems.architectures import PipelineSystem
        from repro.systems.session import InteractiveSession

        questions = [
            "how many products are there",
            "show the name of products whose price is above 500",
            "how many are there",
            "draw a bar chart of the number of products per category",
        ]
        direct = InteractiveSession(system=PipelineSystem(), db=sales_db)
        expected = [direct.ask(q) for q in questions]

        server = Server(
            sales_db, config=ServeConfig(workers=1, session_ttl=None)
        )
        served = [server.ask(q, session_id="mirror") for q in questions]
        server.shutdown()

        for want, got in zip(expected, served):
            assert got.ok == want.answered
            assert got.sql == want.sql
            assert got.vql == want.vql
            if want.result is not None:
                assert got.rows == want.result.rows
                assert got.columns == want.result.columns
            if want.chart is not None:
                assert got.chart.to_ascii() == want.chart.to_ascii()

    def test_chaos_storm_never_raises_and_stays_typed(self, sales_db):
        from repro.resilience import install_faults

        install_faults(
            "translate:error:p=0.3;execute:error:p=0.3;"
            "render:error:p=0.3;execute:latency:p=0.2:delay=0.001",
            seed=13,
        )
        server = Server(
            sales_db,
            config=ServeConfig(workers=4, session_ttl=None),
        )
        questions = [
            "how many products are there",
            "draw a bar chart of the number of products per category",
            "show the name of products whose price is above 500",
        ]
        tickets = [
            server.submit(
                questions[i % len(questions)], session_id=f"s{i % 5}"
            )
            for i in range(60)
        ]
        responses = [t.result(timeout=60) for t in tickets]
        assert server.unhandled_errors() == []
        for response in responses:
            assert response.status in ("ok", "error", "shed")
            if response.shed:
                assert response.shed_reason is not None
        assert any(r.ok for r in responses)
        server.shutdown()

    def test_gauges_and_counters_registered(self, sales_db):
        from repro.obs import metrics as obs_metrics

        server = make_server(sales_db, workers=2)
        assert server.ask("q").ok
        registry = obs_metrics.get_registry()
        snap = registry.snapshot()
        assert snap["repro.serve.admitted"] >= 1
        assert snap["repro.serve.responses"] >= 1
        assert snap["repro.serve.queue.seconds"]["count"] >= 1
        assert snap["repro.serve.sessions.active"] == 1
        server.shutdown()
        assert registry.gauge("repro.serve.queue.depth").value == 0


# ----------------------------------------------------------------------
# turn cache unit behaviour
# ----------------------------------------------------------------------
def _trace(question: str = "q", degraded: tuple = ()) -> PipelineTrace:
    return PipelineTrace(
        question=question,
        result=Result(columns=["q"], rows=[(question,)]),
        chart=Chart("bar", "x", "y", [(question, 1)]),
        degraded=degraded,
    )


def _wait_for(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.001)


def _run_concurrently(cache, key, compute, threads: int) -> list:
    """*threads* callers of one key: the first leads and its compute
    blocks until every other caller is waiting on it as a follower."""
    out: list = []
    errors: list = []
    release = threading.Event()

    def leader_compute():
        release.wait(10)
        return compute()

    def call(fn):
        try:
            out.append(cache.get_or_compute(key, fn))
        except Exception as exc:
            errors.append(exc)

    leader = threading.Thread(target=call, args=(leader_compute,))
    leader.start()
    _wait_for(lambda: key in cache._inflight)
    followers = [
        threading.Thread(target=call, args=(compute,))
        for _ in range(threads - 1)
    ]
    for thread in followers:
        thread.start()
    _wait_for(
        lambda: counter("repro.pipeline.turn_cache.followers") == threads - 1
    )
    release.set()
    for thread in [leader] + followers:
        thread.join(timeout=10)
    return out + errors


class TestTurnCache:
    def test_followers_share_one_immutable_view(self):
        cache = TurnCache()
        calls: list[int] = []

        def compute():
            calls.append(1)
            return _trace()

        out = _run_concurrently(cache, ("k",), compute, threads=4)
        assert len(calls) == 1 and len(out) == 4
        followers = [t for t in out if t.cached]
        (leader,) = [t for t in out if not t.cached]
        assert len(followers) == 3
        assert all(t.result.rows == (("q",),) for t in out)
        # the followers share one cached view, and it shares the
        # leader's result and chart
        assert all(t is followers[0] for t in followers)
        assert followers[0] is not leader
        assert followers[0].result is leader.result
        assert followers[0].chart is leader.chart
        # a fresh spec dict per read: nothing shared is mutable
        assert out[0].chart.spec is not out[1].chart.spec
        for mutate in (
            lambda t: setattr(t, "result", None),
            lambda t: setattr(t.result, "rows", ()),
            lambda t: t.result.rows.clear(),
            lambda t: setattr(t.chart, "points", ()),
            lambda t: t.chart.points.clear(),
        ):
            with pytest.raises(AttributeError):
                mutate(out[0])
        out[0].chart.spec.clear()
        replay = cache.get_or_compute(("k",), compute)
        assert replay is followers[0]
        assert replay.result.rows == (("q",),)
        assert replay.chart.points == (("q", 1),) and replay.chart.spec
        assert counter("repro.pipeline.turn_cache.hits") == 1

    def test_raising_leader_frees_followers(self):
        cache = TurnCache()
        calls: list[int] = []

        def compute():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("leader failed")
            return _trace()

        out = _run_concurrently(cache, ("k",), compute, threads=3)
        assert sum(isinstance(o, RuntimeError) for o in out) == 1
        traces = [o for o in out if isinstance(o, PipelineTrace)]
        assert len(traces) == 2 and not any(t.cached for t in traces)
        assert len(calls) == 3  # each follower computed its own turn
        assert cache._inflight == {}

    def test_degraded_leader_is_neither_stored_nor_shared(self):
        cache = TurnCache()
        calls: list[int] = []

        def compute():
            calls.append(1)
            return _trace(degraded=("translate:rule-fallback",))

        out = _run_concurrently(cache, ("k",), compute, threads=3)
        assert len(calls) == 3 and not any(t.cached for t in out)
        assert len(cache) == 0
        cache.get_or_compute(("k",), compute)
        assert len(calls) == 4

    def test_turn_key_bypasses(self, sales_db):
        from repro.obs import trace as obs_trace
        from repro.resilience import clear_faults, install_faults

        assert turn_key("q", sales_db, None, [("a", 1)]) is not None
        assert turn_key("q", sales_db, None, [("a", [1])]) is None
        install_faults("execute:error:p=0.5", seed=1)
        try:
            assert turn_key("q", sales_db, None, None) is None
        finally:
            clear_faults()
        with obs_trace.tracing():
            assert turn_key("q", sales_db, None, None) is None
        assert turn_key("q", sales_db, None, None) is not None

    def test_none_key_always_computes(self):
        cache = TurnCache()
        calls: list[int] = []

        def compute():
            calls.append(1)
            return _trace()

        for _ in range(3):
            assert not cache.get_or_compute(None, compute).cached
        assert len(calls) == 3 and len(cache) == 0

    def test_lru_bound(self):
        cache = TurnCache()
        cache.maxsize = 2
        calls: list[str] = []

        def compute_for(key):
            def compute():
                calls.append(key)
                return _trace(key)

            return compute

        for key in ("a", "b", "a", "c"):  # "a" refreshed, so "b" evicts
            cache.get_or_compute((key,), compute_for(key))
        assert len(cache) == 2 and calls == ["a", "b", "c"]
        assert cache.get_or_compute(("a",), compute_for("a")).cached
        assert not cache.get_or_compute(("b",), compute_for("b")).cached
        cache.clear()
        assert len(cache) == 0

    def test_hammer_computes_each_key_once(self):
        cache = TurnCache()
        computed: dict[str, int] = {}
        lock = threading.Lock()
        keys = [f"k{i}" for i in range(6)]

        def compute_for(key):
            def compute():
                with lock:
                    computed[key] = computed.get(key, 0) + 1
                time.sleep(0.002)
                return _trace(key)

            return compute

        out: list[PipelineTrace] = []

        def worker(offset: int) -> None:
            for i in range(60):
                key = keys[(i + offset) % len(keys)]
                out.append(cache.get_or_compute((key,), compute_for(key)))

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert computed == {key: 1 for key in keys}
        assert len(out) == 8 * 60
        assert all(t.result.rows == ((t.question,),) for t in out)


# ----------------------------------------------------------------------
# loadgen + CLIs
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_percentile_nearest_rank(self):
        from repro.serve.loadgen import percentile

        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 99) == 99.0
        assert percentile([], 50) == 0.0

    def test_build_workload_is_seeded(self):
        from repro.serve.loadgen import build_workload

        _, a = build_workload("spider_like", 1, 3, 40, 4, 0.5)
        _, b = build_workload("spider_like", 1, 3, 40, 4, 0.5)
        _, c = build_workload("spider_like", 1, 4, 40, 4, 0.5)
        assert a == b
        assert a != c
        assert len(a) == 40
        # a session always stays on one database
        bindings: dict[str, str] = {}
        for session_id, db_id, _, _ in a:
            assert bindings.setdefault(session_id, db_id) == db_id

    def test_closed_loop_run_and_summary(self, sales_db):
        from repro.serve.loadgen import run_loadgen, summarize

        server = make_server(sales_db, ScriptedSystem(), workers=2)
        script = [
            (f"s{i % 3}", sales_db.db_id, f"q{i % 5}", None)
            for i in range(30)
        ]
        responses = run_loadgen(server, script, clients=3)
        report = summarize(responses, 0.5, server)
        server.shutdown()
        assert report["requests"] == 30
        assert report["ok"] == 30
        assert report["shed"] == 0
        assert report["unhandled_errors"] == []
        assert report["latency_p99_ms"] >= report["latency_p50_ms"]

    def test_open_loop_run(self, sales_db):
        from repro.serve.loadgen import run_loadgen

        server = make_server(sales_db, ScriptedSystem(), workers=2)
        script = [
            (f"s{i % 2}", sales_db.db_id, f"q{i}", None) for i in range(10)
        ]
        responses = run_loadgen(server, script, rps=500.0)
        server.shutdown()
        assert len(responses) == 10
        assert all(r.ok for r in responses)

    def test_loadgen_cli_json(self, capsys):
        import json

        from repro.serve.loadgen import main

        rc = main(
            [
                "--dataset",
                "spider_like",
                "--scale",
                "1",
                "--requests",
                "30",
                "--sessions",
                "4",
                "--workers",
                "2",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["requests"] == 30
        assert payload["unhandled_errors"] == []
        assert set(payload["config"]) >= {"dataset", "mode", "workers"}

    def test_serve_cli_demo(self, capsys):
        from repro.serve.cli import main

        rc = main(["--demo", "--workers", "2", "--seed", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "@alice" in out
        assert "row(s)" in out or "chart" in out

    def test_main_dispatches_serve_and_loadgen(self, capsys):
        from repro.__main__ import main

        rc = main(["loadgen", "--requests", "10", "--scale", "1",
                   "--sessions", "2", "--workers", "1", "--json"])
        assert rc == 0
        capsys.readouterr()


class TestResolveWorkers:
    def test_env_default_resolution(self, monkeypatch):
        from repro.eval.parallel import WORKERS_ENV, resolve_workers

        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(3) == 3
        assert resolve_workers(None, default=2) == 2
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None, default=2) == 5
        assert resolve_workers(7) == 7  # explicit beats env
        monkeypatch.setenv(WORKERS_ENV, "not-a-number")
        assert resolve_workers(None, default=2) == 2  # malformed => ignored
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert resolve_workers(None) == 1  # clamped

    def test_eval_report_honors_env(self, monkeypatch, tiny_spider):
        from repro.eval.parallel import WORKERS_ENV
        from repro.metrics import evaluate_parser
        from repro.parsers import KeywordRuleParser

        parser = KeywordRuleParser()
        parser.train(
            tiny_spider.split("train").examples, tiny_spider.databases
        )
        monkeypatch.setenv(WORKERS_ENV, "2")
        report = evaluate_parser(parser, tiny_spider, limit=20)
        assert report.total > 0
