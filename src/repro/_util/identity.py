"""Identity-keyed memoisation.

The hot paths memoise derived values (schedules, canonical keys,
structural sizes) for objects that are reused across calls — the
shared per-run globals mapping, repeated payload tuples.  Hashing the
object would cost as much as recomputing, so the memo keys on
``id(object)`` instead, which is only sound with two guards that every
call site must share:

* the entry *pins* the key object (a strong reference), so its id
  cannot be recycled while the entry exists;
* a hit re-checks ``entry is obj``, so a stale entry can never be
  served for a different object.

Cached values must describe state the object cannot change (immutable
contents, or fields fixed at construction).

The memo is bounded by two generations of ``limit`` entries each.
Puts go to the current generation; when it is full it becomes the
previous one, the old previous generation is dropped, and a new
current one starts.  Lookups check both.  So at most ``2 * limit``
objects stay pinned, and the most recent ``limit`` puts always
survive — an entry made one round ago (a history's parent, say) is
never lost to an eviction that happens to fall between the two
rounds.  A miss recomputes; it never mis-answers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["IdentityMemo"]


class IdentityMemo:
    """A bounded ``id(obj) -> value`` memo with object pinning.

    ``get`` returns ``None`` on a miss, so values themselves must never
    be ``None`` (true for every current use: schedule tuples, key
    tuples, bit counts).
    """

    __slots__ = ("_current", "_previous", "limit")

    def __init__(self, limit: int = 64):
        self._current: Dict[int, Tuple[Any, Any]] = {}
        self._previous: Dict[int, Tuple[Any, Any]] = {}
        self.limit = limit

    def get(self, obj: Any) -> Optional[Any]:
        key = id(obj)
        entry = self._current.get(key)
        if entry is None:
            entry = self._previous.get(key)
        if entry is not None and entry[0] is obj:
            return entry[1]
        return None

    def put(self, obj: Any, value: Any) -> Any:
        current = self._current
        if len(current) >= self.limit:
            self._previous = current
            current = self._current = {}
        current[id(obj)] = (obj, value)
        return value

    def get_or_compute(self, obj: Any, factory: Callable[[], Any]) -> Any:
        value = self.get(obj)
        if value is None:
            value = self.put(obj, factory())
        return value
