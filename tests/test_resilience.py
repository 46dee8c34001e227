"""Tests for :mod:`repro.resilience` and the fault-tolerant pipeline.

Covers the four subsystem pieces in isolation (deadlines, retries,
breakers, fault injection — all on injectable clocks, no wall-time
sleeps), then the woven serving path: each degradation ladder end to
end, the seeded chaos-storm integration the ISSUE acceptance names, and
the no-faults differential proving a resilient pipeline's outputs are
identical to the plain one's.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.pipeline import Pipeline, PipelineTrace
from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    InjectedFault,
    ReproError,
    ResilienceError,
    SQLError,
)
from repro.parsers.base import ParseRequest, Parser, ParseResult
from repro.parsers.rule import KeywordRuleParser
from repro.parsers.vis.rule import DataToneVisParser
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    FaultSpec,
    ResiliencePolicy,
    Retry,
    RetryPolicy,
    breaker_for,
    checkpoint,
    clear_faults,
    current_deadline,
    deadline_scope,
    guard_rows,
    install_faults,
    parse_fault_spec,
    reset_breakers,
)
from repro.resilience import breaker as breaker_mod
from repro.resilience import faults as faults_mod
from repro.sql import plan as plan_mod
from repro.sql import rescache
from repro.sql.executor import execute, execute_reference
from repro.sql.parser import parse_sql
from repro.systems import InteractiveSession, PipelineSystem


class FakeClock:
    """A monotonic clock advanced manually (or per call)."""

    def __init__(self, start: float = 0.0, tick: float = 0.0) -> None:
        self.now = start
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeSleep:
    """Records requested sleeps and advances a FakeClock instead."""

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock
        self.calls: list[float] = []

    def __call__(self, seconds: float) -> None:
        self.calls.append(seconds)
        self.clock.advance(seconds)


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline.after(None)
        assert deadline.remaining() is None
        assert not deadline.expired()
        deadline.check("anything")  # no raise

    def test_expiry_on_fake_clock(self):
        clock = FakeClock()
        deadline = Deadline.after(5.0, clock)
        assert deadline.remaining() == pytest.approx(5.0)
        clock.advance(4.999)
        assert not deadline.expired()
        clock.advance(0.002)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded, match="during scan"):
            deadline.check("scan")

    def test_tightened_takes_minimum(self):
        clock = FakeClock()
        outer = Deadline.after(10.0, clock)
        inner = outer.tightened(3.0)
        assert inner.remaining() == pytest.approx(3.0)
        # a "tighter" child cannot extend the parent
        wide = outer.tightened(99.0)
        assert wide.remaining() == pytest.approx(10.0)
        # None inherits the parent expiry
        assert outer.tightened(None).expires_at == outer.expires_at

    def test_scope_nesting_keeps_tightest(self):
        clock = FakeClock()
        assert current_deadline() is None
        with deadline_scope(Deadline.after(10.0, clock)) as outer:
            assert current_deadline().expires_at == outer.expires_at
            with deadline_scope(Deadline.after(2.0, clock)) as inner:
                assert inner.remaining() == pytest.approx(2.0)
                assert current_deadline().expires_at == inner.expires_at
            # inner scope popped; outer ambient again
            assert current_deadline().expires_at == outer.expires_at
            # a looser inner scope is clamped to the outer expiry
            with deadline_scope(Deadline.after(50.0, clock)) as clamped:
                assert clamped.expires_at == outer.expires_at
        assert current_deadline() is None

    def test_checkpoint_noop_without_scope(self):
        checkpoint("free")  # must not raise, must cost ~nothing

    def test_checkpoint_raises_in_expired_scope(self):
        clock = FakeClock()
        with deadline_scope(Deadline.after(1.0, clock)):
            checkpoint("early")
            clock.advance(2.0)
            with pytest.raises(DeadlineExceeded):
                checkpoint("late")

    def test_guard_rows_passthrough_when_inactive(self):
        rows = [1, 2, 3]
        assert guard_rows(rows) is rows

    def test_guard_rows_raises_at_stride(self):
        from repro.resilience import deadline as deadline_mod

        clock = FakeClock()
        with deadline_scope(Deadline.after(1.0, clock)):
            guarded = guard_rows(iter(range(10_000)), "test scan")
            consumed = []
            clock.advance(5.0)  # expire before iterating
            with pytest.raises(DeadlineExceeded, match="test scan"):
                for row in guarded:
                    consumed.append(row)
            # the poll happens once per stride, not per row
            assert len(consumed) == deadline_mod.CHECK_STRIDE - 1

    def test_executor_checkpoint_raises_when_expired(self, shop_db):
        clock = FakeClock()
        query = parse_sql("SELECT name FROM products")
        with deadline_scope(Deadline.after(1.0, clock)):
            assert execute(query, shop_db).rows  # healthy inside budget
            clock.advance(2.0)
            # a result-cache hit legitimately serves past the deadline
            # (no work to bound); real plan execution must raise
            rescache.clear_result_cache()
            with pytest.raises(DeadlineExceeded):
                execute(query, shop_db)


# ----------------------------------------------------------------------
# retries
# ----------------------------------------------------------------------
class TestRetry:
    def test_success_first_attempt_no_sleep(self):
        clock = FakeClock()
        sleep = FakeSleep(clock)
        retry = Retry(RetryPolicy(max_attempts=3), clock=clock, sleep=sleep)
        assert retry.call(lambda: 42) == 42
        assert sleep.calls == []

    def test_retries_then_succeeds(self):
        clock = FakeClock()
        sleep = FakeSleep(clock)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ValueError("transient")
            return "ok"

        retry = Retry(
            RetryPolicy(max_attempts=3, jitter=0.0),
            clock=clock,
            sleep=sleep,
        )
        assert retry.call(flaky) == "ok"
        assert len(attempts) == 3
        # exponential, jitter-free: base, base*multiplier
        assert sleep.calls == pytest.approx([0.02, 0.04])

    def test_exhaustion_reraises_last(self):
        clock = FakeClock()
        retry = Retry(
            RetryPolicy(max_attempts=2, jitter=0.0),
            clock=clock,
            sleep=FakeSleep(clock),
        )
        with pytest.raises(ValueError, match="always"):
            retry.call(lambda: (_ for _ in ()).throw(ValueError("always")))

    def test_jitter_is_seeded_and_deterministic(self):
        def delays(seed):
            clock = FakeClock()
            sleep = FakeSleep(clock)
            retry = Retry(
                RetryPolicy(max_attempts=4, seed=seed),
                clock=clock,
                sleep=sleep,
            )
            with pytest.raises(ValueError):
                retry.call(lambda: (_ for _ in ()).throw(ValueError()))
            return sleep.calls

        assert delays(7) == delays(7)
        assert delays(7) != delays(8)

    def test_deadline_exceeded_never_retried(self):
        clock = FakeClock()
        sleep = FakeSleep(clock)
        calls = []

        def expiring():
            calls.append(1)
            raise DeadlineExceeded("budget gone")

        retry = Retry(
            RetryPolicy(max_attempts=5), clock=clock, sleep=sleep
        )
        with pytest.raises(DeadlineExceeded):
            retry.call(expiring)
        assert len(calls) == 1
        assert sleep.calls == []

    def test_backoff_not_taken_past_ambient_deadline(self):
        clock = FakeClock()
        sleep = FakeSleep(clock)
        retry = Retry(
            RetryPolicy(
                max_attempts=5, base_delay=10.0, max_delay=10.0, jitter=0.0
            ),
            clock=clock,
            sleep=sleep,
        )
        with deadline_scope(Deadline.after(1.0, clock)):
            with pytest.raises(ValueError):
                retry.call(lambda: (_ for _ in ()).throw(ValueError()))
        # the 10s backoff would outlive the 1s budget: no sleep taken
        assert sleep.calls == []

    def test_non_retryable_exceptions_propagate(self):
        clock = FakeClock()
        retry = Retry(
            RetryPolicy(max_attempts=5, retry_on=(KeyError,)),
            clock=clock,
            sleep=FakeSleep(clock),
        )
        calls = []

        def wrong_family():
            calls.append(1)
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            retry.call(wrong_family)
        assert len(calls) == 1


# ----------------------------------------------------------------------
# circuit breakers
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        defaults = dict(
            failure_threshold=3, recovery_timeout=5.0, success_threshold=2
        )
        defaults.update(kwargs)
        return CircuitBreaker("test", clock=clock, **defaults), clock

    def test_trips_after_consecutive_failures(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == breaker_mod.CLOSED
        breaker.record_failure()
        assert breaker.state == breaker_mod.OPEN
        assert not breaker.allow()

    def test_success_resets_the_streak(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == breaker_mod.CLOSED

    def test_half_open_after_recovery_timeout(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.1)
        assert breaker.state == breaker_mod.HALF_OPEN
        assert breaker.allow()  # probe admitted

    def test_probe_successes_close(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == breaker_mod.HALF_OPEN  # needs 2
        breaker.record_success()
        assert breaker.state == breaker_mod.CLOSED

    def test_probe_failure_reopens_and_restarts_timeout(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.1)
        assert breaker.state == breaker_mod.HALF_OPEN
        breaker.record_failure()
        assert breaker.state == breaker_mod.OPEN
        clock.advance(4.0)
        assert breaker.state == breaker_mod.OPEN  # timeout restarted
        clock.advance(1.5)
        assert breaker.state == breaker_mod.HALF_OPEN

    def test_call_wraps_outcomes(self):
        breaker, _ = self.make(failure_threshold=1)
        with pytest.raises(ValueError):
            breaker.call(lambda: (_ for _ in ()).throw(ValueError()))
        with pytest.raises(CircuitOpenError) as exc:
            breaker.call(lambda: "never runs")
        assert exc.value.component == "test"

    def test_registry_shares_and_resets(self):
        first = breaker_for("component.x")
        assert breaker_for("component.x") is first
        reset_breakers()
        assert breaker_for("component.x") is not first


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
class TestFaults:
    def test_parse_spec_roundtrip(self):
        specs = parse_fault_spec(
            "translate:error:p=0.3; execute:latency:delay=0.05:every=2;"
            "render:corrupt"
        )
        assert specs == (
            FaultSpec("translate", "error", p=0.3),
            FaultSpec("execute", "latency", every=2, delay=0.05),
            FaultSpec("render", "corrupt"),
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "justasite",
            "site:unknownkind",
            "site:error:p=1.5",
            "site:error:every=0",
            "site:error:nonsense",
            "site:error:p",
            ":error",
        ],
    )
    def test_parse_spec_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)

    def test_nth_call_fires_exactly(self):
        install_faults("s:error:every=3")
        faults_mod.fire("s")
        faults_mod.fire("s")
        with pytest.raises(InjectedFault) as exc:
            faults_mod.fire("s")
        assert exc.value.site == "s"
        faults_mod.fire("s")
        faults_mod.fire("s")
        with pytest.raises(InjectedFault):
            faults_mod.fire("s")
        clear_faults()

    def test_sites_are_independent(self):
        install_faults("a:error")
        with pytest.raises(InjectedFault):
            faults_mod.fire("a")
        faults_mod.fire("b")  # un-addressed site: no injection
        clear_faults()
        faults_mod.fire("a")  # cleared: no injection

    def test_latency_uses_injected_sleep(self):
        clock = FakeClock()
        sleep = FakeSleep(clock)
        install_faults("s:latency:delay=0.25", sleep=sleep)
        faults_mod.fire("s")
        assert sleep.calls == [0.25]
        clear_faults()

    def test_corrupt_text_mangles(self):
        install_faults("s:corrupt")
        assert faults_mod.corrupt_text("s", "SELECT 1") != "SELECT 1"
        assert faults_mod.corrupt_text("other", "SELECT 1") == "SELECT 1"
        clear_faults()
        assert faults_mod.corrupt_text("s", "SELECT 1") == "SELECT 1"

    def test_probabilistic_is_seeded(self):
        def storm(seed):
            install_faults("s:error:p=0.5", seed=seed)
            fired = []
            for _ in range(32):
                try:
                    faults_mod.fire("s")
                    fired.append(False)
                except InjectedFault:
                    fired.append(True)
            clear_faults()
            return fired

        assert storm(3) == storm(3)
        assert any(storm(3)) and not all(storm(3))


# ----------------------------------------------------------------------
# rescache.peek
# ----------------------------------------------------------------------
class TestPeek:
    def test_peek_cold_is_none_and_executes_nothing(self, shop_db):
        query = parse_sql("SELECT name FROM products")
        assert rescache.peek(query, shop_db) is None

    def test_peek_hits_after_cached_execute(self, shop_db):
        query = parse_sql("SELECT name FROM products ORDER BY name")
        expected = rescache.cached_execute(query, shop_db)
        peeked = rescache.peek(query, shop_db)
        assert peeked is not None
        assert peeked.rows == expected.rows
        # the cached object itself: a Result is immutable, so it is shared
        assert peeked is rescache.peek(query, shop_db)

    def test_peek_misses_after_mutation(self, shop_db):
        query = parse_sql("SELECT name FROM products")
        rescache.cached_execute(query, shop_db)
        shop_db.insert("products", (99, "new", "tools", 1.0))
        assert rescache.peek(query, shop_db) is None


# ----------------------------------------------------------------------
# pipeline degradation ladders
# ----------------------------------------------------------------------
class _ExplodingParser(Parser):
    """A primary parser that always raises (a hard component outage)."""

    name = "exploding parser"

    def __init__(self) -> None:
        self.calls = 0

    def parse(self, request: ParseRequest) -> ParseResult:
        self.calls += 1
        raise RuntimeError("parser backend down")


def _policy(**kwargs) -> ResiliencePolicy:
    defaults = dict(retry=RetryPolicy(max_attempts=2, base_delay=0.0))
    defaults.update(kwargs)
    return ResiliencePolicy(**defaults)


def _pipeline(resilience=None, sql_parser=None) -> Pipeline:
    return Pipeline(
        sql_parser or KeywordRuleParser(),
        DataToneVisParser(),
        resilience=resilience,
    )


class TestPipelineLadders:
    def test_translate_fault_falls_back_to_rules(self, shop_db):
        pipeline = _pipeline(_policy())
        install_faults("translate:error")
        trace = pipeline.run("how many products are there", shop_db)
        clear_faults()
        assert trace.error is None
        assert trace.result.rows == ((4,),)
        assert "translate:rule-fallback" in trace.degraded

    def test_hard_parser_outage_falls_back(self, shop_db):
        exploding = _ExplodingParser()
        pipeline = _pipeline(_policy(), sql_parser=exploding)
        trace = pipeline.run("how many products are there", shop_db)
        assert trace.error is None
        assert trace.result.rows == ((4,),)
        assert trace.degraded == ("translate:rule-fallback",)
        # the retry wrapper attempted the primary max_attempts times
        assert exploding.calls == 2

    def test_execute_fault_serves_cached_result(self, shop_db):
        pipeline = _pipeline(_policy())
        question = "how many products are there"
        warm = pipeline.run(question, shop_db)
        assert warm.error is None and not warm.degraded
        install_faults("execute:error")
        trace = pipeline.run(question, shop_db)
        clear_faults()
        assert trace.error is None
        assert trace.result.rows == warm.result.rows
        assert trace.degraded == ("execute:cached-result",)
        assert not trace.cached  # served by the ladder, not the turn cache

    def test_execute_fault_cold_cache_fails_closed(self, shop_db):
        rescache.clear_result_cache()
        pipeline = _pipeline(_policy())
        install_faults("execute:error")
        trace = pipeline.run("how many products are there", shop_db)
        clear_faults()
        assert trace.error == "execution failed"
        assert trace.degraded == ("execute:failed",)
        assert trace.result is None

    def test_vector_fault_degrades_to_row_engine(self, shop_db):
        pipeline = _pipeline(_policy())
        install_faults("engine.vector:error")
        trace = pipeline.run(
            "how many products are there", shop_db
        )
        clear_faults()
        assert trace.error is None
        assert trace.result.rows == ((4,),)
        assert trace.degraded == ("execute:vector-off",)
        assert all(p.vectorized for p in plan_mod._PLAN_CACHE.values())

    def test_overlapping_vector_off_rungs_leave_no_shared_state(
        self, shop_db, monkeypatch
    ):
        # two workers on the vector-off rung, overlapping as T1 in, T2 in,
        # T1 out, T2 out: a rung that flipped a process-wide engine switch
        # and restored its saved value would leave later plans unvectorized
        plan_mod.clear_plan_caches()
        query = parse_sql("SELECT COUNT(*) FROM products")
        pipeline = _pipeline(_policy())
        entered = {name: threading.Event() for name in ("T1", "T2")}
        leave = {name: threading.Event() for name in ("T1", "T2")}
        answers: dict = {}
        run = plan_mod.CompiledPlan.run

        def gated_run(plan, db):
            name = threading.current_thread().name
            if name in entered:
                entered[name].set()
                assert leave[name].wait(10)
            return run(plan, db)

        def rung(name):
            degraded: list[str] = []
            fault = InjectedFault("engine.vector")
            answers[name] = (
                pipeline._execute_ladder(query, shop_db, degraded, fault),
                degraded,
            )

        monkeypatch.setattr(plan_mod.CompiledPlan, "run", gated_run)
        workers = {
            name: threading.Thread(target=rung, args=(name,), name=name)
            for name in ("T1", "T2")
        }
        try:
            workers["T1"].start()
            assert entered["T1"].wait(10)  # T1 in
            workers["T2"].start()
            assert entered["T2"].wait(10)  # T2 in
            leave["T1"].set()
            workers["T1"].join(10)  # T1 out
            leave["T2"].set()
            workers["T2"].join(10)  # T2 out
        finally:
            for event in leave.values():
                event.set()
        monkeypatch.undo()
        assert not any(worker.is_alive() for worker in workers.values())
        expected = execute_reference(query, shop_db)
        for result, degraded in answers.values():
            assert result == expected
            assert degraded == ["execute:vector-off"]
        assert len(answers) == 2
        assert plan_mod.plan_for(query, shop_db.schema, shop_db).vectorized
        assert all(p.vectorized for p in plan_mod._PLAN_CACHE.values())

    def test_render_fault_degrades_to_data_only(self, shop_db):
        pipeline = _pipeline(_policy())
        question = "show a bar chart of price by name for products"
        healthy = pipeline.run(question, shop_db)
        assert healthy.chart is not None
        install_faults("render:error")
        trace = pipeline.run(question, shop_db)
        clear_faults()
        assert trace.chart is None
        assert trace.error is None
        assert trace.result is not None
        assert trace.result.rows  # the chart's underlying data
        assert trace.degraded == ("render:data-only",)

    def test_breaker_trips_and_skips_dead_component(self, shop_db):
        exploding = _ExplodingParser()
        policy = _policy(
            retry=RetryPolicy(max_attempts=1),
            breaker_failure_threshold=2,
            breaker_recovery_timeout=1e9,
        )
        pipeline = _pipeline(policy, sql_parser=exploding)
        questions = [
            "how many products are there",
            "how many sales are there",
            "what is the average price of products",
        ]
        for question in questions:
            trace = pipeline.run(question, shop_db)
            assert trace.error is None
            assert "translate:rule-fallback" in trace.degraded
        # first two turns fail organically and trip the breaker; the
        # third is rejected without even calling the dead parser
        assert exploding.calls == 2
        assert (
            breaker_for("parser.sql").state == breaker_mod.OPEN
        )

    def test_organic_sql_failures_do_not_trip_breaker(self, shop_db):
        class _BadSQLParser(Parser):
            name = "bad sql parser"

            def parse(self, request):
                query = parse_sql("SELECT nope FROM products")
                return ParseResult(query=query, candidates=[query])

        policy = _policy(breaker_failure_threshold=2)
        pipeline = _pipeline(policy, sql_parser=_BadSQLParser())
        for _ in range(4):
            trace = pipeline.run("how many products are there", shop_db)
            assert trace.error == "execution failed"
            assert not trace.degraded  # organic failure, no ladder
        assert breaker_for("executor").state == breaker_mod.CLOSED

    def test_corrupted_vql_still_completes(self, shop_db):
        pipeline = _pipeline(_policy())
        install_faults("translate:corrupt")
        trace = pipeline.run(
            "show a bar chart of price by name for products", shop_db
        )
        clear_faults()
        # the mangled program cannot chart, but the turn returns
        assert isinstance(trace, PipelineTrace)
        assert trace.error is not None or trace.succeeded

    def test_expired_turn_budget_degrades_not_raises(self, shop_db):
        clock = FakeClock(tick=1.0)  # every look at the clock costs 1s
        policy = _policy(
            turn_deadline=3.0,
            stage_deadlines={},
            clock=clock,
        )
        pipeline = _pipeline(policy)
        trace = pipeline.run("how many products are there", shop_db)
        assert isinstance(trace, PipelineTrace)
        assert trace.degraded  # some ladder (or the turn guard) engaged

    def test_degraded_turns_are_not_memoized(self, shop_db):
        pipeline = _pipeline(_policy())
        question = "how many products are there"
        pipeline.run(question, shop_db)  # warm cache + memo
        install_faults("execute:error")
        degraded = pipeline.run(question, shop_db)
        clear_faults()
        assert degraded.degraded == ("execute:cached-result",)
        healthy = pipeline.run(question, shop_db)
        assert healthy.error is None
        assert not healthy.degraded


# ----------------------------------------------------------------------
# the chaos storm (ISSUE acceptance scenario)
# ----------------------------------------------------------------------
class TestChaosStorm:
    STORM = (
        "translate:error:p=0.2;execute:error:p=0.2;render:error:p=0.2;"
        "execute:latency:p=0.2:delay=0.0005"
    )

    def test_storm_never_raises_and_every_turn_returns(self, shop_db):
        pipeline = _pipeline(_policy())
        questions = [
            "how many products are there",
            "show a bar chart of price by name for products",
            "what is the average price of products",
            "how many sales are there",
        ]
        # warm pass: give the cached-result rung something to serve
        for question in questions:
            trace = pipeline.run(question, shop_db)
            assert trace.error is None
        install_faults(self.STORM, seed=5)
        try:
            degraded_turns = 0
            for round_ in range(8):
                for question in questions:
                    trace = pipeline.run(question, shop_db)
                    assert isinstance(trace, PipelineTrace)
                    # every turn completes with an answer: faults are
                    # absorbed by retries or a degradation ladder
                    assert trace.error is None, (
                        round_,
                        question,
                        trace.degraded,
                    )
                    degraded_turns += bool(trace.degraded)
        finally:
            clear_faults()
        assert degraded_turns > 0  # the storm actually bit

    def test_chaos_cli_reports_full_recovery(self):
        from repro.resilience.cli import run_chaos

        report = run_chaos(self.STORM, turns=12, seed=5)
        assert report["unhandled_exceptions"] == 0
        assert report["healthy"] + report["degraded"] == 12
        assert report["recovery_rate"] == 1.0
        # seeded: same spec + seed replays the same storm (counters are
        # process-global and accumulate, so compare everything else)
        again = run_chaos(self.STORM, turns=12, seed=5)
        report.pop("counters"), again.pop("counters")
        assert report == again

    def test_chaos_runs_are_isolated(self):
        from repro.resilience.cli import run_chaos

        # a brutal storm trips breakers; the registry is process-global,
        # so the next run must reset it or its warm pass serves degraded
        run_chaos("execute:error:p=1.0", turns=8, seed=1)
        clean = run_chaos("translate:error:p=0.0", turns=8, seed=1)
        assert clean["failed"] == 0
        assert clean["degraded"] == 0
        assert clean["healthy"] == 8


# ----------------------------------------------------------------------
# the no-faults differential (resilience on == resilience off)
# ----------------------------------------------------------------------
class TestNoFaultsDifferential:
    QUESTIONS = [
        "how many products are there",
        "what is the average price of products",
        "show the name of products",
        "show a bar chart of price by name for products",
        "how many sales are there",
        "gibberish the parser cannot translate",
    ]

    @staticmethod
    def _outputs(pipeline: Pipeline, db) -> list[tuple]:
        outputs = []
        for question in TestNoFaultsDifferential.QUESTIONS:
            rescache.clear_result_cache()
            trace = pipeline.run(question, db)
            outputs.append(
                (
                    trace.functional_expression,
                    trace.error,
                    trace.result.columns if trace.result else None,
                    trace.result.rows if trace.result else None,
                    trace.chart.to_ascii() if trace.chart else None,
                    [r.stage for r in trace.stages],
                    [r.output for r in trace.stages],
                    trace.degraded,
                )
            )
        return outputs

    def test_byte_identical_outputs(self, shop_db):
        plain = self._outputs(_pipeline(), shop_db)
        resilient = self._outputs(
            _pipeline(ResiliencePolicy.default()), shop_db
        )
        # same translations, same rows, same charts, same stage outputs,
        # same errors — and the resilient run never degraded
        assert resilient == plain
        assert all(not entry[-1] for entry in resilient)


# ----------------------------------------------------------------------
# systems surface: PipelineSystem + session transcripts
# ----------------------------------------------------------------------
class TestSystemsSurface:
    def test_pipeline_system_answers(self, shop_db):
        system = PipelineSystem()
        response = system.answer("how many products are there", shop_db)
        assert response.kind == "data"
        assert response.result.rows == ((4,),)
        assert not response.is_degraded

    def test_session_surfaces_degraded_turns(self, shop_db):
        session = InteractiveSession(system=PipelineSystem(), db=shop_db)
        session.ask("how many products are there")  # warm, healthy
        install_faults("execute:error")
        degraded = session.ask("how many products are there")
        clear_faults()
        assert degraded.is_degraded
        assert degraded.kind == "data"
        assert "degraded" in degraded.message
        assert "execute:cached-result" in degraded.message
        # the transcript keeps the honest record
        assert session.transcript[-1].is_degraded
        # healthy turns stay unannotated
        healthy = session.ask("how many products are there")
        assert not healthy.is_degraded
        assert "degraded" not in healthy.message

    def test_degraded_responses_not_memoized_by_session(self, shop_db):
        session = InteractiveSession(system=PipelineSystem(), db=shop_db)
        question = "what is the average price of products"
        session.ask(question)
        install_faults("execute:error")
        session.ask(question)
        clear_faults()
        after = session.ask(question)
        assert not after.is_degraded

    def test_resilient_system_never_raises_under_storm(self, shop_db):
        system = PipelineSystem()
        session = InteractiveSession(system=system, db=shop_db)
        questions = [
            "how many products are there",
            "show a bar chart of price by name for products",
        ]
        for question in questions:
            session.ask(question)
        install_faults(TestChaosStorm.STORM, seed=11)
        try:
            for _ in range(6):
                for question in questions:
                    response = session.ask(question)
                    assert response.kind in ("data", "chart", "error")
        finally:
            clear_faults()


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
class TestObservability:
    def test_counters_move_under_faults(self, shop_db):
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.get_registry()
        pipeline = _pipeline(_policy())
        install_faults("translate:error")
        pipeline.run("how many products are there", shop_db)
        clear_faults()
        snapshot = registry.snapshot()
        assert snapshot["repro.resilience.faults.injected"] >= 1
        assert snapshot["repro.resilience.retry.attempts"] >= 2
        assert snapshot["repro.resilience.retry.exhausted"] >= 1
        assert snapshot["repro.resilience.degrades"] >= 1
        assert (
            snapshot["repro.resilience.degrade.translate:rule-fallback"] >= 1
        )
        assert snapshot["repro.pipeline.degraded.turns"] >= 1
