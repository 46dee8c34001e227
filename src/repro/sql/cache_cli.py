"""``python -m repro cache`` — result-cache inspection CLI.

Front-end for the versioned result cache of :mod:`repro.sql.rescache`,
plus the plan cache's counters from :mod:`repro.sql.plan`::

    python -m repro cache stats            # entries/bytes/hit counters
    python -m repro cache stats --json     # machine-readable
    python -m repro cache clear            # drop entries, reset counters
    python -m repro cache budget 8388608   # set the byte budget

Caches are per-process, so ``stats`` in a fresh interpreter starts at
zero; the subcommand exists for embedding (``--json``) and for REPL /
benchmark processes that import this module's helpers directly.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.sql import plan as _plan
from repro.sql import rescache as _rescache

#: plan-cache fields printed by ``stats``, in order
_PLAN_FIELDS = ("size", "max_size", "hits", "misses", "template_hits")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro cache",
        description="inspect and control the SQL result cache",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser(
        "stats", help="print result- and plan-cache size and counters"
    )
    stats.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    sub.add_parser("clear", help="drop all entries and reset counters")

    budget = sub.add_parser("budget", help="set the cache byte budget")
    budget.add_argument(
        "bytes", type=int, help="maximum resident result bytes (>= 0)"
    )

    args = parser.parse_args(argv)
    if args.command == "stats":
        return _cmd_stats(as_json=args.json)
    if args.command == "clear":
        return _cmd_clear()
    return _cmd_budget(args.bytes)


def _cmd_stats(as_json: bool) -> int:
    payload = dict(_rescache.rescache_stats())
    plans = _plan.plan_cache_stats()
    payload["plan_cache"] = {field: plans[field] for field in _PLAN_FIELDS}
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print("result cache")
    for field in (
        "entries", "bytes", "max_bytes", "hits", "misses",
        "evictions", "oversize",
    ):
        print(f"  {field}: {payload[field]}")
    print("plan cache")
    for field in _PLAN_FIELDS:
        print(f"  {field}: {plans[field]}")
    return 0


def _cmd_clear() -> int:
    _rescache.clear_result_cache()
    print("result cache cleared")
    return 0


def _cmd_budget(max_bytes: int) -> int:
    if max_bytes < 0:
        print("cache budget: byte budget must be >= 0", file=sys.stderr)
        return 1
    _rescache.configure_result_cache(max_bytes)
    print(f"result cache budget set to {max_bytes} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
