"""Content-addressed replay memoisation (the ``replay`` knob's engine).

Two hot paths in the tree re-derive machine states from inputs that
barely change between rounds:

* the Section 5 broadcast simulation
  (:class:`repro.core.broadcast_vc.BroadcastVertexCoverMachine`)
  replays every incident element machine from full message histories,
  which grow by one entry per round and carry their size and key;
* the self-stabilising transformer
  (:class:`repro.selfstab.transformer.SelfStabilisingMachine`)
  recomputes all T+1 pipeline levels every real round, although in a
  fault-free round almost every level sees exactly the (state, inbox)
  pair it saw the round before.

Both consumers share the machinery here.  Everything is
**content-addressed**: memo keys are fingerprints or hash-consed ids
(:class:`HistoryIds`, carried by each :class:`History`) of the full
input values, so a hit is *semantically identical* to recomputing —
caching can change wall-clock time, never results.  The ``replay``
knob every consumer exposes selects between

* ``"incremental"`` (default) — reuse content-matched work from the
  previous round; and
* ``"scratch"`` — the paper-literal recompute-everything path, kept as
  the executable reference contract (``tests/test_replay_memo.py``
  pins incremental ≡ scratch field-for-field).

Fingerprints are pickle byte strings.  That is safe in exactly one
direction, which is the direction we need: equal bytes reconstruct
equal values, so a fingerprint hit can never conflate two genuinely
different inputs.  Distinct bytes for equal values (pickle memo
effects, unreduced :class:`~repro._util.rationals.ScaledInt`
representations) only cause a spurious miss — a recompute, never a
wrong answer.  Hooks that depend on more than their arguments' values
(a per-node ``ctx.rng``) cannot be fingerprinted; consumers detect
that and fall back to the scratch path for the affected node.
"""

from __future__ import annotations

import itertools
import pickle
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.obs import CTR_MEMO_HIT, CTR_MEMO_MISS
from repro.obs import current as _tracer

__all__ = [
    "REPLAY_INCREMENTAL",
    "REPLAY_SCRATCH",
    "REPLAY_MODES",
    "validate_replay",
    "content_fingerprint",
    "FingerprintCache",
    "ReplayMemo",
    "GenerationalMemo",
    "History",
    "HistoryIds",
]

REPLAY_INCREMENTAL = "incremental"
REPLAY_SCRATCH = "scratch"
REPLAY_MODES = (REPLAY_INCREMENTAL, REPLAY_SCRATCH)


def validate_replay(mode: str) -> str:
    """Validate a ``replay=`` argument, returning it unchanged."""
    if mode not in REPLAY_MODES:
        raise ValueError(
            f"unknown replay mode {mode!r}; expected one of {REPLAY_MODES}"
        )
    return mode


def content_fingerprint(value: Any) -> bytes:
    """A deterministic byte fingerprint of ``value``'s content.

    Equal fingerprints imply equal values (the bytes reconstruct the
    value), which is the only soundness direction a content-addressed
    memo needs.  Raises whatever :mod:`pickle` raises for
    unpicklable values — callers treat that as "not fingerprintable"
    and skip memoisation.
    """
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


class FingerprintCache:
    """Identity-memoised :func:`content_fingerprint` for reused objects.

    Machine states and contexts are treated as immutable values
    everywhere in this tree, and the same *objects* recur across rounds
    (a memo hit returns the stored state object; contexts live for the
    whole run).  Keying the fingerprint on object identity makes the
    steady-state cost of fingerprinting a dictionary lookup instead of
    a pickle.  Same pinning/re-check discipline as
    :class:`repro._util.identity.IdentityMemo`, open-coded because
    ``of`` sits inside per-level round loops.
    """

    __slots__ = ("_entries", "limit")

    def __init__(self, limit: int = 1 << 12):
        self._entries: Dict[int, Tuple[Any, bytes]] = {}
        self.limit = limit

    def of(self, obj: Any) -> bytes:
        entry = self._entries.get(id(obj))
        if entry is not None and entry[0] is obj:
            return entry[1]
        fp = content_fingerprint(obj)
        entries = self._entries
        if len(entries) >= self.limit:
            entries.clear()
        entries[id(obj)] = (obj, fp)
        return fp


class ReplayMemo:
    """A bounded content-addressed memo: hashable content key -> value.

    Values must never be ``None`` (``get`` returns ``None`` on a miss).
    When the memo grows past ``limit`` it is dropped wholesale — a miss
    recomputes, it never mis-answers.  ``hits``/``misses`` are kept for
    the benchmarks and the differential suite's sanity checks.
    """

    __slots__ = ("_entries", "limit", "hits", "misses")

    def __init__(self, limit: int = 1 << 14):
        self._entries: Dict[Hashable, Any] = {}
        self.limit = limit
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Optional[Any]:
        value = self._entries.get(key)
        tr = _tracer()
        if value is None:
            self.misses += 1
            if tr is not None:
                tr.count(CTR_MEMO_MISS)
        else:
            self.hits += 1
            if tr is not None:
                tr.count(CTR_MEMO_HIT)
        return value

    def put(self, key: Hashable, value: Any) -> Any:
        entries = self._entries
        if len(entries) >= self.limit:
            entries.clear()
        entries[key] = value
        return value

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class GenerationalMemo:
    """Content keys bucketed by generation, with stale-bucket eviction.

    The Section 5 replay pattern: at G-round ``t`` every replay key
    names a pair of length-``t`` histories, and the only useful prior
    entries are the length-``t-1`` ones from the previous round.  ``put``
    retires every bucket older than ``generation - 1`` so the memo
    holds at most two generations at a time, bounding memory by the
    live working set instead of the whole run.
    """

    __slots__ = ("_buckets", "hits", "misses")

    def __init__(self) -> None:
        self._buckets: Dict[int, Dict[Hashable, Any]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, generation: int, key: Hashable) -> Optional[Any]:
        value = self._buckets.get(generation, {}).get(key)
        tr = _tracer()
        if value is None:
            self.misses += 1
            if tr is not None:
                tr.count(CTR_MEMO_MISS)
        else:
            self.hits += 1
            if tr is not None:
                tr.count(CTR_MEMO_HIT)
        return value

    def put(self, generation: int, key: Hashable, value: Any) -> Any:
        self._buckets.setdefault(generation, {})[key] = value
        stale = [g for g in self._buckets if g < generation - 1]
        for g in stale:
            # pop, not del: a machine shared across a thread pool may
            # retire the same bucket from two runs at once.
            self._buckets.pop(g, None)
        return value

    def clear(self) -> None:
        self._buckets.clear()


class History(tuple):
    """A Section 5 message history that carries its own facts.

    It compares, hashes and reprs like the plain tuple of its messages.
    It also carries ``bits`` and ``key``, what
    :func:`repro._util.sizes.message_size_bits` and
    :func:`repro._util.ordering.canonical_key` compute for it (element
    keys interned), and ``hid``/``pid``, its replay id and its parent's,
    issued by the :class:`HistoryIds` table ``ids``.  A pickle holds the
    content alone: unpickling meters and keys it by full scan and gives
    it no ids.  Its messages are immutable values, like every payload.
    """

    def __reduce__(self):
        return (_scanned_history, (tuple(self),))


def _history(messages, bits, key, hid=None, pid=None, ids=None) -> History:
    # A function rather than History.__new__, which builds half as fast.
    h = History(messages)
    h.bits, h.key, h.hid, h.pid, h.ids = bits, key, hid, pid, ids
    return h


def _scanned_history(messages: Tuple) -> History:
    """An id-less :class:`History` of ``messages``, metered by full scan."""
    return _history(
        messages, _sizes.message_size_bits(messages), _ordering.canonical_key(messages)
    )


class HistoryIds:
    """Hash-consed integer ids for append-only message histories.

    The Section 5 replay keys on pairs of histories that grow by one
    message per round.  Hashing them as tuples costs O(length) per
    lookup — O(rounds²) per node over a run.  This table names every
    history content by an integer ``hid`` instead, built like a trie:

    * the empty history has ``hid(()) == 0``;
    * ``hid(h + (m,))`` is the id interned under ``(hid(h), m)``.

    A history's id therefore costs one dictionary lookup on top of its
    parent's, and a replay key made of ids hashes in O(1).

    Ids are drawn from a counter and never reissued, so by induction
    on length an id denotes exactly one history content (up to ``==``
    on messages, the equality of the tuple keys ids replace): an
    id-keyed memo hit is as sound as a content-keyed one.  Equal
    contents get equal ids while the child table is intact; after it
    is wiped wholesale (its size bound) a content seen before may get
    a second id, which only costs memo misses.  A pickled copy starts
    empty above every id the original had issued, so ids held by a
    copied memo are never reissued for another content.  Threads may
    share a table without a lock: the counter is atomic and a key's id
    is stored once (``setdefault``), so a race at most wastes an id.

    Histories built by :meth:`extend` from ``empty`` carry their ids
    (:class:`History`), so :meth:`of` is O(1) on them.  A table trusts
    only ids it issued: anything else — a plain tuple, another table's
    history, one rebuilt from a pickle — is interned message by
    message, O(length).
    """

    __slots__ = ("_children", "_counter", "limit", "empty")

    def __init__(self, first: int = 1, limit: int = 1 << 16) -> None:
        # (parent id, message) -> child id.
        self._children: Dict[Tuple[int, Hashable], int] = {}
        self._counter = itertools.count(first)
        self.limit = limit
        self.empty = _history(
            (), _sizes.message_size_bits(()), _ordering.canonical_key(()), 0, -1, self
        )

    def __reduce__(self):
        # Drawing one id bounds every id issued so far; the copy starts
        # empty from there, so it never reissues an id a copied memo holds.
        return (HistoryIds, (next(self._counter), self.limit))

    def _child(self, parent: int, message: Hashable) -> int:
        key = (parent, message)
        children = self._children
        hid = children.get(key)
        if hid is None:
            if len(children) >= self.limit:
                children.clear()
            hid = children.setdefault(key, next(self._counter))
        return hid

    def of(self, history: Tuple) -> Tuple[int, int]:
        """``(id, parent id)`` of ``history``; ``()`` gives ``(0, -1)``."""
        if type(history) is History and history.ids is self:
            return history.hid, history.pid
        hid, pid = 0, -1
        for message in history:
            hid, pid = self._child(hid, message), hid
        return hid, pid

    def extend(self, parent: Tuple, message: Hashable) -> History:
        """``parent + (message,)`` as a :class:`History` of this table.

        Its id, bits and key come from ``parent``'s in O(1) (the id
        only when this table issued ``parent``) plus the work for
        ``message``; the bits and key are exactly what a full scan
        computes.
        """
        pid = self.of(parent)[0]
        n = len(parent)
        framing = _sizes._length_framing_bits
        bits = (
            _sizes.message_size_bits(parent)
            - framing(n)
            + framing(n + 1)
            + _sizes.message_size_bits(message)
        )
        rank, parts = _ordering.canonical_key(parent)
        # One shared object per distinct element key, so comparing two
        # histories skips their equal messages by identity.
        element = _ordering._intern_element_key(_ordering.canonical_key(message))
        return _history(
            parent + (message,),
            bits,
            (rank, parts + (element,)),
            self._child(pid, message),
            pid,
            self,
        )


# sizes and ordering read a History's carried facts, so they import this
# module; what extend derives for each new message comes from theirs.
from repro._util import ordering as _ordering, sizes as _sizes  # noqa: E402
