"""Identity tokens: one token per live object, even under racing first
calls, and never a dead object's token for a new one."""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref

from repro.data import identity
from repro.data.identity import identity_token


class _Thing:
    pass


def test_racing_first_calls_agree_on_one_token(monkeypatch):
    threads, objects = 8, 40
    things = [_Thing() for _ in range(objects)]
    seen: list[list] = [[] for _ in range(objects)]
    start = threading.Barrier(threads)
    finalizers: list = []
    real_finalize = weakref.finalize

    def slow_finalize(*args):
        # hold the first call's window open: every racer that has not
        # seen a token by now is inside it
        finalizers.append(args[0])
        time.sleep(0.001)
        return real_finalize(*args)

    monkeypatch.setattr(weakref, "finalize", slow_finalize)

    def race() -> None:
        for index, thing in enumerate(things):
            start.wait(timeout=30)
            seen[index].append(identity_token(thing))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=race) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for thing, tokens in zip(things, seen):
        assert len(tokens) == threads
        assert len(set(tokens)) == 1, tokens
        # the token every thread got is the one later calls return
        assert identity_token(thing) == tokens[0]
    # only the winner of each race registered a finalizer
    assert len(finalizers) == objects


def test_tokens_are_retired_with_their_object_and_never_reused():
    thing = _Thing()
    token = identity_token(thing)
    assert identity_token(thing) == token
    key = id(thing)
    del thing
    gc.collect()
    assert key not in identity._TOKENS
    assert all(identity_token(_Thing()) != token for _ in range(50))


def test_distinct_live_objects_get_distinct_tokens():
    things = [_Thing() for _ in range(100)]
    assert len({identity_token(thing) for thing in things}) == 100
