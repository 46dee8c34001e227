"""Identity tokens: a stable, never-reused integer per live object.

Caches that must tell two *objects* apart even when they are equal by
value (two databases with coincidentally equal table stamps, two
schemas sharing a ``db_id``) key on :func:`identity_token`.  ``id()``
alone is not enough: a dead object's address can be recycled, and a key
built from it would alias the newcomer to the dead object's entries.
Each token is drawn from one monotonic counter and retired by a
``weakref.finalize`` when its object dies, so a token names exactly one
object for the life of the process.

Thread safety: the first call on an object allocates its token under a
lock, so threads racing that call all get the one token, and only the
thread that stored it registers the finalizer.  Later calls are one
lock-free ``dict.get``.
"""

from __future__ import annotations

import threading
import weakref
from itertools import count

__all__ = ["identity_token"]

#: id(obj) -> token, for every live object that has been given one
_TOKENS: dict[int, int] = {}
_COUNTER = count(1)
_LOCK = threading.Lock()


def identity_token(obj):
    """The identity token of *obj* (an ``int``; *obj* itself when it
    cannot be weakly referenced, which keys it by value instead)."""
    key = id(obj)
    token = _TOKENS.get(key)
    if token is not None:
        return token
    with _LOCK:
        token = _TOKENS.get(key)
        if token is None:
            try:
                weakref.finalize(obj, _TOKENS.pop, key, None)
            except TypeError:  # pragma: no cover - not weakref-able
                return obj
            token = next(_COUNTER)
            _TOKENS[key] = token
    return token
