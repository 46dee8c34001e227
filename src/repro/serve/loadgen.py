"""``python -m repro loadgen`` — seeded corpus replay against a Server.

Drives :class:`repro.serve.Server` with realistic traffic synthesized
from any registered dataset and reports the serving numbers that matter:
latency percentiles (p50/p95/p99), throughput, shed rate, and how many
turns waited on an identical in-flight turn (``coalesced``)::

    python -m repro loadgen                          # closed-loop, 8 clients
    python -m repro loadgen --rps 200 --requests 500 # open-loop at 200 req/s
    python -m repro loadgen --dup-rate 0.5           # duplicate-heavy traffic
    python -m repro loadgen --deadline 0.05          # 50ms per-request budget
    python -m repro loadgen --json                   # machine-readable report

Two arrival models:

- **closed loop** (default): ``--clients`` threads each own a slice of
  the sessions and submit their next request only after the previous
  response lands — offered load adapts to service capacity, the way a
  human-in-the-loop UI behaves;
- **open loop** (``--rps``): requests are submitted on a fixed seeded
  schedule regardless of completions — the model that actually exposes
  queueing collapse and load shedding under overload.

Everything is seeded: session/db assignment, question choice, duplicate
injection.  Same flags + seed → the same request sequence, which is what
lets ``benchmarks/bench_serve.py`` gate on ordering invariants.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time

from repro.eval.parallel import resolve_workers
from repro.obs.metrics import get_registry
from repro.serve.envelope import Response, Ticket
from repro.serve.server import ServeConfig, Server

__all__ = ["build_workload", "main", "percentile", "run_loadgen", "summarize"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of *values*."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def build_workload(
    dataset: str,
    scale: int,
    seed: int,
    requests: int,
    sessions: int,
    dup_rate: float,
):
    """The seeded request script: ``(databases, [(session_id, db_id,
    question, knowledge), ...])``.

    Sessions are assigned round-robin over the dataset's databases (a
    conversation stays on one database); questions are drawn seeded from
    that database's own examples.  With probability *dup_rate* a request
    repeats a question already issued for the same database — the
    duplicate-heavy traffic that exercises the turn and result caches.
    """
    from repro.datasets import build_dataset

    ds = build_dataset(dataset, scale=scale, seed=seed)
    by_db: dict[str, list] = {}
    for example in ds.examples:
        by_db.setdefault(example.db_id, []).append(example)
    db_ids = sorted(by_db)
    rng = random.Random(seed)
    session_db = {
        f"s{i:03d}": db_ids[i % len(db_ids)] for i in range(sessions)
    }
    issued: dict[str, list] = {db_id: [] for db_id in db_ids}
    script = []
    session_ids = sorted(session_db)
    for _ in range(requests):
        session_id = rng.choice(session_ids)
        db_id = session_db[session_id]
        pool = issued[db_id]
        if pool and rng.random() < dup_rate:
            example = rng.choice(pool)
        else:
            example = rng.choice(by_db[db_id])
            pool.append(example)
        script.append(
            (session_id, db_id, example.question, example.knowledge)
        )
    return ds.databases, script


def _collect(tickets: list[Ticket], timeout: float) -> list[Response]:
    return [ticket.result(timeout=timeout) for ticket in tickets]


def run_loadgen(
    server: Server,
    script: list,
    clients: int = 8,
    rps: float | None = None,
    deadline: float | None = None,
    timeout: float = 120.0,
) -> list[Response]:
    """Replay *script* against *server*; returns responses in script order.

    ``rps=None`` runs the closed loop (each of *clients* threads walks
    its own sessions' requests in order, waiting per request); a number
    runs the open loop (submit on schedule, collect afterwards).
    """
    if rps is not None:
        interval = 1.0 / max(rps, 1e-9)
        tickets: list[Ticket] = []
        start = time.monotonic()
        for index, (session_id, db_id, question, knowledge) in enumerate(
            script
        ):
            target = start + index * interval
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            tickets.append(
                server.submit(
                    question,
                    session_id=session_id,
                    db_id=db_id,
                    knowledge=knowledge,
                    deadline=deadline,
                )
            )
        return _collect(tickets, timeout)

    # closed loop: partition *sessions* across clients so per-session
    # submit order (and therefore FIFO seq) stays deterministic
    by_session: dict[str, list] = {}
    order: dict[int, Response] = {}
    for index, entry in enumerate(script):
        by_session.setdefault(entry[0], []).append((index, entry))
    session_ids = sorted(by_session)
    lanes: list[list] = [[] for _ in range(max(1, clients))]
    for i, session_id in enumerate(session_ids):
        lanes[i % len(lanes)].extend(by_session[session_id])
    lock = threading.Lock()

    def client(lane: list) -> None:
        for index, (session_id, db_id, question, knowledge) in lane:
            response = server.submit(
                question,
                session_id=session_id,
                db_id=db_id,
                knowledge=knowledge,
                deadline=deadline,
            ).result(timeout=timeout)
            with lock:
                order[index] = response

    threads = [
        threading.Thread(target=client, args=(lane,), daemon=True)
        for lane in lanes
        if lane
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    return [order[index] for index in sorted(order)]


def _followers() -> int:
    return get_registry().counter("repro.pipeline.turn_cache.followers").value


def summarize(
    responses: list[Response],
    wall_seconds: float,
    server: Server,
    coalesced: int = 0,
) -> dict:
    """The loadgen report: latency percentiles, throughput, shed mix.

    *coalesced* is how many turns waited on an identical in-flight turn
    instead of running it: the ``repro.pipeline.turn_cache.followers``
    delta over the run.
    """
    latencies = [r.total_seconds for r in responses if not r.shed]
    sheds: dict[str, int] = {}
    for response in responses:
        if response.shed and response.shed_reason is not None:
            reason = response.shed_reason.value
            sheds[reason] = sheds.get(reason, 0) + 1
    completed = len(latencies)
    return {
        "requests": len(responses),
        "ok": sum(1 for r in responses if r.ok),
        "errors": sum(1 for r in responses if r.status == "error"),
        "shed": sum(1 for r in responses if r.shed),
        "shed_rate": round(
            sum(1 for r in responses if r.shed) / max(1, len(responses)), 4
        ),
        "sheds_by_reason": dict(sorted(sheds.items())),
        "coalesced": coalesced,
        "degraded": sum(1 for r in responses if r.degraded),
        "wall_seconds": round(wall_seconds, 6),
        "throughput_rps": round(completed / wall_seconds, 2)
        if wall_seconds > 0
        else 0.0,
        "latency_p50_ms": round(percentile(latencies, 50) * 1e3, 3),
        "latency_p95_ms": round(percentile(latencies, 95) * 1e3, 3),
        "latency_p99_ms": round(percentile(latencies, 99) * 1e3, 3),
        "latency_mean_ms": round(
            sum(latencies) / completed * 1e3 if completed else 0.0, 3
        ),
        "unhandled_errors": server.unhandled_errors(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro loadgen",
        description="seeded load generation against the serving layer",
    )
    parser.add_argument("--dataset", default="spider_like")
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--sessions", type=int, default=8)
    parser.add_argument(
        "--clients",
        type=int,
        default=8,
        help="closed-loop client threads (ignored with --rps)",
    )
    parser.add_argument(
        "--rps",
        type=float,
        default=None,
        help="open-loop arrival rate; omit for the closed loop",
    )
    parser.add_argument(
        "--dup-rate",
        type=float,
        default=0.3,
        help="probability a request repeats an earlier question",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="server worker threads (default: REPRO_EVAL_WORKERS or 4)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request total latency budget in seconds",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="admission bound on queued requests",
    )
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    workers = resolve_workers(args.workers, default=4)
    databases, script = build_workload(
        args.dataset,
        args.scale,
        args.seed,
        args.requests,
        args.sessions,
        args.dup_rate,
    )
    config = ServeConfig(workers=workers, max_pending=args.max_pending)
    server = Server(dict(databases), config=config)
    followers = _followers()
    start = time.monotonic()
    responses = run_loadgen(
        server,
        script,
        clients=args.clients,
        rps=args.rps,
        deadline=args.deadline,
    )
    wall = time.monotonic() - start
    server.shutdown()
    report = summarize(
        responses, wall, server, coalesced=_followers() - followers
    )
    report["config"] = {
        "dataset": args.dataset,
        "scale": args.scale,
        "seed": args.seed,
        "sessions": args.sessions,
        "workers": workers,
        "mode": "open" if args.rps is not None else "closed",
        "rps": args.rps,
        "clients": args.clients,
        "dup_rate": args.dup_rate,
        "deadline": args.deadline,
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        mode = report["config"]["mode"]
        print(
            f"loadgen: {report['requests']} requests, {args.sessions} "
            f"sessions, {workers} workers, {mode} loop"
        )
        print(
            f"  ok={report['ok']} errors={report['errors']} "
            f"shed={report['shed']} ({report['shed_rate']:.1%}) "
            f"coalesced={report['coalesced']} degraded={report['degraded']}"
        )
        print(
            f"  throughput {report['throughput_rps']} req/s over "
            f"{report['wall_seconds']:.3f}s"
        )
        print(
            f"  latency ms: p50={report['latency_p50_ms']} "
            f"p95={report['latency_p95_ms']} p99={report['latency_p99_ms']} "
            f"mean={report['latency_mean_ms']}"
        )
        if report["sheds_by_reason"]:
            print(f"  sheds: {report['sheds_by_reason']}")
    return 1 if report["unhandled_errors"] else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
