"""``python -m repro serve`` — an interactive multi-session server.

The Fig. 1 REPL, multiplexed: one process serves many concurrent
conversations through :class:`repro.serve.Server` over a generated
domain database (or a whole dataset's database registry)::

    python -m repro serve                       # sales domain, 4 workers
    python -m repro serve --workers 8 --domain healthcare
    python -m repro serve --dataset spider_like # serve a dataset registry
    python -m repro serve --demo                # scripted multi-session demo

Input lines route by session: ``@alice how many orders are there`` asks
as session ``alice`` (a bare question uses session ``default``).  Every
session keeps its own conversation history, so follow-ups resolve
per-session even though all sessions share one worker pool, one system,
and one result cache.  Meta-commands: ``\\stats`` (scheduler/queue/
breaker snapshot), ``\\sessions``, ``\\close <sid>``, ``\\drain``,
``\\quit``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.eval.parallel import resolve_workers
from repro.serve.envelope import Response
from repro.serve.server import ServeConfig, Server

__all__ = ["main"]

_DEMO_SCRIPT = [
    ("alice", "Show the name of products whose price is above 500?"),
    ("bob", "How many orders are there?"),
    ("alice", "How many are there?"),
    ("bob", "Draw a bar chart of the number of orders per quarter?"),
    ("carol", "How many customers are there?"),
    ("alice", "Draw a bar chart of the number of products per category?"),
]


def _print_response(response: Response) -> None:
    print(f"  {response.describe()}")
    if response.ok and response.chart is not None:
        for line in response.chart.to_ascii(width=30).splitlines():
            print(f"  {line}")
    elif response.ok:
        for row in response.rows[:5]:
            print(f"  {row}")
        if len(response.rows) > 5:
            print(f"  ... {len(response.rows) - 5} more row(s)")
    if response.degraded:
        print(f"  (degraded: {', '.join(response.degraded)})")


def _build_databases(args) -> dict:
    if args.dataset is not None:
        from repro.datasets import build_dataset

        dataset = build_dataset(args.dataset, scale=args.scale, seed=args.seed)
        return dict(dataset.databases)
    from repro.data.domains import domain_by_name
    from repro.data.generator import DatabaseGenerator

    db = DatabaseGenerator(seed=args.seed).populate(
        domain_by_name(args.domain), rows_per_table=40
    )
    return {db.db_id: db}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve", description=__doc__
    )
    parser.add_argument("--domain", default="sales")
    parser.add_argument(
        "--dataset",
        default=None,
        help="serve a dataset's database registry instead of one domain",
    )
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker threads (default: REPRO_EVAL_WORKERS or 4)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="default per-request latency budget in seconds",
    )
    parser.add_argument(
        "--session-ttl",
        type=float,
        default=600.0,
        help="idle seconds before a session is evicted",
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="run a scripted multi-session demo and exit",
    )
    args = parser.parse_args(argv)

    databases = _build_databases(args)
    config = ServeConfig(
        workers=resolve_workers(args.workers, default=4),
        default_deadline=args.deadline,
        session_ttl=args.session_ttl,
    )
    server = Server(databases, config=config)
    db_names = ", ".join(sorted(databases))
    if len(db_names) > 60:
        db_names = f"{len(databases)} databases"
    print(
        f"serving [{db_names}] with {config.workers} worker(s); "
        "'@<session> <question>' routes, \\stats \\sessions \\drain \\quit"
    )

    try:
        if args.demo:
            tickets = [
                (sid, server.submit(question, session_id=sid))
                for sid, question in _DEMO_SCRIPT
            ]
            for sid, ticket in tickets:
                print(f"\n@{sid} > {ticket.request.question}")
                _print_response(ticket.result(timeout=30))
            print("\n\\stats")
            print(json.dumps(server.stats(), indent=2, sort_keys=True))
            return 0

        while True:
            try:
                line = input("serve> ").strip()
            except (EOFError, KeyboardInterrupt):
                print()
                return 0
            if not line:
                continue
            if line in ("\\quit", "\\q", "exit"):
                return 0
            if line == "\\stats":
                print(json.dumps(server.stats(), indent=2, sort_keys=True))
                continue
            if line == "\\sessions":
                for info in server.stats()["sessions"]:
                    print(f"  {info}")
                continue
            if line.startswith("\\close"):
                _, _, sid = line.partition(" ")
                flushed = server.close_session(sid.strip() or "default")
                print(f"  (closed; {flushed} queued request(s) shed)")
                continue
            if line == "\\drain":
                print(f"  (drained: {server.drain(timeout=30)})")
                server.resume()
                continue
            session_id = "default"
            if line.startswith("@"):
                head, _, rest = line.partition(" ")
                session_id, line = head[1:] or "default", rest.strip()
                if not line:
                    continue
            _print_response(
                server.submit(line, session_id=session_id).result(timeout=60)
            )
    finally:
        server.shutdown(timeout=10.0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
