"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed: the same seed gives the
same corpora, databases, replay order, dialogue schedule and inserted
rows.  The program under test only ever sees the generated questions,
databases and rows.

Every workload builds its corpora and databases from one fixed seed
(``spec.CORPUS_SEED``), and ``--seed`` draws the traffic over them: the
replay order, which question or dialogue each draw lands on, the
interleaving of sessions, and which rows are written where.  A seed that
built the corpora would make each seed a different workload: a different
question set changes the cost of a pass (and its accuracy) far more than
most changes to the program do.  In the two skewed workloads, draws walk
a golden-ratio sequence (offset by the seed) through the Zipf
distribution, so every seed gets the same popularity mix in a different
order.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

from repro.datasets import build_dataset
from repro.datasets.sql import build_cross_domain
from repro.sql.ast import TableRef, walk
from repro.sql.parser import parse_sql

import spec


@dataclass(frozen=True)
class Turn:
    """One question with its gold program, addressed to one database."""

    db_key: str
    question: str
    knowledge: str | None
    gold_sql: str
    gold_vql: str | None


@dataclass(frozen=True)
class Request:
    """One open-loop arrival: the next turn of one session."""

    session_id: str
    turn: Turn
    #: the session's final turn; the generator closes it once answered
    last: bool


@dataclass(frozen=True)
class Insert:
    """One write: append *row* to *table* of database *db_key*."""

    db_key: str
    table: str
    row: tuple


def _turn(db_key: str, example) -> Turn:
    return Turn(
        db_key=db_key,
        question=example.question,
        knowledge=example.knowledge,
        gold_sql=example.sql,
        gold_vql=example.vql,
    )


class _Zipf:
    """Zipf choice over a ranked list (rank 1 most popular).

    Draw *k* maps the point ``frac(offset + k * step)`` of a
    low-discrepancy sequence through the Zipf distribution, so any run of
    consecutive draws holds each rank close to its exact share.
    """

    def __init__(self, items: list, exponent: float, offset: float,
                 step: float = (5 ** 0.5 - 1) / 2):
        self.items = items
        self.point = offset
        self.step = step
        self.cumulative: list[float] = []
        total = 0.0
        for rank in range(1, len(items) + 1):
            total += rank ** -exponent
            self.cumulative.append(total)

    def pick(self):
        self.point = (self.point + self.step) % 1.0
        target = self.point * self.cumulative[-1]
        return self.items[bisect.bisect_right(self.cumulative, target)]


def cold_corpus(seed: int) -> tuple[dict, list[Turn]]:
    """Every distinct question of the three corpora, in seeded order."""
    databases: dict = {}
    turns: list[Turn] = []
    seen: set = set()
    for name, scale in spec.COLD_CORPORA:
        dataset = build_dataset(name, scale=scale, seed=spec.CORPUS_SEED)
        for db_id, db in dataset.databases.items():
            databases[f"{name}/{db_id}"] = db
        for example in dataset.examples:
            key = (name, example.db_id, example.question, example.knowledge)
            if key in seen:
                continue
            seen.add(key)
            turns.append(_turn(f"{name}/{example.db_id}", example))
    random.Random(seed).shuffle(turns)
    return databases, turns


def dialogue_corpus() -> tuple[dict, list[list[Turn]]]:
    """The dialogue corpora's databases and dialogues, popularity-ranked."""
    seed = spec.CORPUS_SEED
    databases: dict = {}
    dialogues: list[list[Turn]] = []
    for name, scale in spec.DIALOGUE_CORPORA:
        dataset = build_dataset(name, scale=scale, seed=seed)
        for db_id, db in dataset.databases.items():
            databases[f"{name}/{db_id}"] = db
        for dialogue in dataset.dialogues:
            key = f"{name}/{dialogue.db_id}"
            dialogues.append([_turn(key, t) for t in dialogue.turns])
    random.Random(seed).shuffle(dialogues)
    return databases, dialogues


def _sessions(dialogues: list[list[Turn]], rng: random.Random):
    """Endless sessions, each replaying one Zipf-chosen dialogue."""
    chooser = _Zipf(dialogues, spec.DIALOGUE_ZIPF, rng.random())
    for number in itertools.count(1):
        yield f"s{number:05d}", list(chooser.pick())


def dialogue_sessions(
    dialogues: list[list[Turn]], seed: int, count: int
) -> list[tuple[str, list[Turn]]]:
    """*count* sessions ``(session_id, turns)`` for the closed loop."""
    return list(itertools.islice(_sessions(dialogues, random.Random(seed)),
                                 count))


def dialogue_schedule(
    dialogues: list[list[Turn]], seed: int, requests: int
) -> list[Request]:
    """*requests* open-loop arrivals over Zipf-chosen dialogues.

    ``OPEN_SESSIONS`` sessions are open at any time; each arrival sends
    the next turn of a seeded-random open session, and a session whose
    dialogue is exhausted is replaced by a new one.  Popular dialogues
    recur across sessions with identical histories.  The schedule is a
    prefix-stable function of the seed, so every rung replays the same
    traffic, only faster.
    """
    rng = random.Random(seed)
    sessions = _sessions(dialogues, rng)
    open_sessions: list[tuple] = []
    schedule: list[Request] = []
    while len(schedule) < requests:
        while len(open_sessions) < spec.OPEN_SESSIONS:
            open_sessions.append(next(sessions))
        index = rng.randrange(len(open_sessions))
        session_id, remaining = open_sessions[index]
        turn = remaining.pop(0)
        schedule.append(Request(session_id, turn, last=not remaining))
        if not remaining:
            open_sessions.pop(index)
    return schedule


def _tables_read(sql: str) -> list[str]:
    names: list[str] = []
    for node in walk(parse_sql(sql)):
        if isinstance(node, TableRef) and node.name.lower() not in names:
            names.append(node.name.lower())
    return names


def write_mix(seed: int) -> tuple[dict, list]:
    """Databases plus the seeded operation list (``Turn`` or ``Insert``).

    Questions are Zipf-repeated over the corpus's distinct questions.
    Every ``1 / WRITE_SHARE``-th operation (at a seeded phase) is a write
    instead: it picks a question the same way and appends one row to a
    table its gold SQL reads, a seeded copy of an existing row under a
    fresh primary key, so foreign keys stay valid.
    """
    dataset = build_cross_domain(
        num_examples=spec.WRITE_MIX_EXAMPLES,
        rows_per_table=spec.WRITE_MIX_ROWS_PER_TABLE,
        seed=spec.CORPUS_SEED,
    )
    databases = dict(dataset.databases)
    pool: dict = {}
    for example in dataset.examples:
        pool.setdefault((example.db_id, example.question), example)
    ranked = list(pool.values())
    random.Random(spec.CORPUS_SEED).shuffle(ranked)
    rng = random.Random(seed)
    asks = _Zipf(ranked, spec.WRITE_MIX_ZIPF, rng.random())
    # writes draw from their own sequence (step sqrt(2) - 1) so the
    # tables they hit follow the same popularity as the questions
    writes = _Zipf(ranked, spec.WRITE_MIX_ZIPF, rng.random(), 2 ** 0.5 - 1)
    period = round(1 / spec.WRITE_SHARE)
    phase = rng.randrange(period)
    next_key: dict = {}
    ops: list = []
    for index in range(spec.WRITE_MIX_OPS):
        if index % period != phase:
            example = asks.pick()
            ops.append(_turn(example.db_id, example))
            continue
        example = writes.pick()
        db = databases[example.db_id]
        table = db.table(rng.choice(_tables_read(example.sql)))
        row = list(rng.choice(table.rows))
        pk = table.schema.primary_key
        if pk is not None:
            slot = table.column_index(pk)
            key = (example.db_id, table.name)
            if key not in next_key:
                next_key[key] = 1 + max(
                    (r[slot] for r in table.rows if isinstance(r[slot], int)),
                    default=0,
                )
            row[slot] = next_key[key]
            next_key[key] += 1
        ops.append(Insert(example.db_id, table.name, tuple(row)))
    return databases, ops
