"""Regenerate ``stage_lock.json``: a digest of what every pipeline stage says.

The lock covers every distinct question of ``spider_like``,
``wikisql_like`` and ``nvbench_like`` (scale 0.01, seed 11), each run
once through a default :class:`~repro.systems.PipelineSystem`'s
pipeline, so chart, data and failed turns are all in it.  Each computed
turn contributes its ``(stage, output)`` sequence plus ``error``,
``degraded`` and ``functional_expression``; stage timings are left out.
The file holds one sha256 over all turns and a short digest per turn, so
a mismatch can name the first turn that changed.

Run from the repository root::

    python tests/data/update_stage_lock.py

then commit the file.  A change that moves the digest must say which
turns changed and why.

``--warm`` checks instead of writing: it runs every turn once, clears
the pipeline's turn cache, replays every turn a second time through the
same system (so each SQL turn is translated from the parser's memo) and
exits 1, naming the first turn that differs, unless the replay's digest
equals the checked-in one::

    python tests/data/update_stage_lock.py --warm

Either way the script prints how many chart turns of the recorded pass
replayed stored chart stages (a paraphrase of a chart already rendered
on the same database) and exits 1 when none did, so the lock keeps
covering the replay path as well as the computed one.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
LOCK_PATH = pathlib.Path(__file__).resolve().with_name("stage_lock.json")

#: (corpus, scale) pairs and the seed the lock is built from
CORPORA = (("spider_like", 0.01), ("wikisql_like", 0.01), ("nvbench_like", 0.01))
SEED = 11


def turn_records(warm: bool = False) -> tuple[list[tuple[str, list]], int]:
    """``(label, record)`` per distinct question, in corpus order, and
    how many of those turns replayed stored chart stages.

    With *warm*, every turn runs twice through the same system, the
    turn cache cleared in between, and the second run's records are
    returned.
    """
    from repro.datasets import build_dataset
    from repro.obs.metrics import get_registry
    from repro.sql.rescache import clear_result_cache
    from repro.systems import PipelineSystem

    clear_result_cache()
    system = PipelineSystem()
    turns: list[tuple[str, object, object, str | None]] = []
    seen: set = set()
    for name, scale in CORPORA:
        dataset = build_dataset(name, scale=scale, seed=SEED)
        for example in dataset.examples:
            key = (name, example.db_id, example.question, example.knowledge)
            if key in seen:
                continue
            seen.add(key)
            turns.append((
                f"{name}/{example.db_id}: {example.question}",
                example.question,
                dataset.databases[example.db_id],
                example.knowledge,
            ))
    if warm:
        for _, question, db, knowledge in turns:
            system.pipeline.run(question, db, knowledge=knowledge)
        system.pipeline.turn_cache.clear()
    replays = get_registry().counter("repro.pipeline.chart_reuse.hits")
    replayed = replays.value
    out: list[tuple[str, list]] = []
    for label, question, db, knowledge in turns:
        trace = system.pipeline.run(question, db, knowledge=knowledge)
        record = [
            [[r.stage, r.output] for r in trace.stages],
            trace.error,
            list(trace.degraded),
            trace.functional_expression,
        ]
        out.append((label, record))
    return out, replays.value - replayed


def report_replays(replayed: int) -> int:
    """Print the replayed chart turns; 1 when there were none."""
    print(f"{replayed} chart turns replayed stored chart stages")
    return 0 if replayed else 1


def record_digest(record: list) -> str:
    return hashlib.sha256(
        json.dumps(record, ensure_ascii=False).encode()
    ).hexdigest()[:16]


def build_lock(records: list[tuple[str, list]]) -> dict:
    turns = [record_digest(record) for _, record in records]
    total = hashlib.sha256("\n".join(turns).encode()).hexdigest()
    return {
        "corpora": [list(c) for c in CORPORA],
        "seed": SEED,
        "turn_count": len(turns),
        "sha256": total,
        "turns": turns,
    }


def check_warm() -> int:
    """Replay warm and compare with the checked-in lock; 0 when equal."""
    records, replayed = turn_records(warm=True)
    lock = build_lock(records)
    expected = json.loads(LOCK_PATH.read_text())
    print(f"warm replay: {lock['turn_count']} turns, sha256 {lock['sha256']}")
    if lock["sha256"] == expected["sha256"]:
        return report_replays(replayed)
    for (label, _), got, want in zip(records, lock["turns"], expected["turns"]):
        if got != want:
            print(f"first differing turn: {label}")
            break
    else:
        print(f"turn count {lock['turn_count']} != {expected['turn_count']}")
    return 1


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if argv == ["--warm"]:
        return check_warm()
    if argv:
        print(f"usage: {pathlib.Path(__file__).name} [--warm]", file=sys.stderr)
        return 2
    records, replayed = turn_records()
    lock = build_lock(records)
    LOCK_PATH.write_text(json.dumps(lock, indent=0) + "\n")
    print(f"{lock['turn_count']} turns, sha256 {lock['sha256']}")
    return report_replays(replayed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
