"""Content-addressed replay memoisation (the ``replay`` knob's engine).

Two hot paths in the tree re-derive machine states from inputs that
barely change between rounds:

* the Section 5 broadcast simulation
  (:class:`repro.core.broadcast_vc.BroadcastVertexCoverMachine`)
  replays every incident element machine from full message histories —
  histories that grow by exactly one entry per round;
* the self-stabilising transformer
  (:class:`repro.selfstab.transformer.SelfStabilisingMachine`)
  recomputes all T+1 pipeline levels every real round, although in a
  fault-free round almost every level sees exactly the (state, inbox)
  pair it saw the round before.

Both consumers share the machinery here.  Everything is
**content-addressed**: memo keys are fingerprints or hash-consed ids
(:class:`HistoryIds`) of the full input values, so a hit is
*semantically identical* to recomputing — caching can change
wall-clock time, never results.  The ``replay`` knob every
consumer exposes selects between

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

from repro._util.identity import IdentityMemo
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
    "HistoryIds",
    "note_extension",
    "extension_parent",
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

    Lookups by object go through a
    :class:`repro._util.identity.IdentityMemo`, which keeps two
    generations of ``limit`` objects (at most ``2 * limit`` pinned): a
    producer that extends ``parent`` into ``child`` registers the child
    with :meth:`extend`, and every later :meth:`of` on that object is
    O(1).  An unregistered object — a pickled or restored history, one
    rebuilt by a fault adversary, one evicted with the older
    generation — is interned message by message, O(length) once, then
    cached.
    """

    __slots__ = ("_children", "_objects", "_counter", "limit")

    def __init__(self, first: int = 1, limit: int = 1 << 16) -> None:
        # (parent id, message) -> child id.
        self._children: Dict[Tuple[int, Hashable], int] = {}
        # history object -> (id, parent id).
        self._objects = IdentityMemo(limit)
        self._counter = itertools.count(first)
        self.limit = limit

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
        entry = self._objects.get(history)
        if entry is not None:
            return entry
        hid, pid = 0, -1
        for message in history:
            hid, pid = self._child(hid, message), hid
        return self._objects.put(history, (hid, pid))

    def extend(self, parent: Tuple, child: Tuple) -> None:
        """Record that ``child == parent + (child[-1],)``.

        The same caller contract as :func:`note_extension`, checked
        structurally: a child of the wrong length is left unregistered
        (and interned from its contents when looked up).
        """
        if len(child) == len(parent) + 1:
            pid = self.of(parent)[0]
            self._objects.put(child, (self._child(pid, child[-1]), pid))


# ----------------------------------------------------------------------
# Tuple-extension registry (incremental history metering)
# ----------------------------------------------------------------------
#
# The Section 5 history machine broadcasts a tuple that grows by one
# element per round: ``new = old + (msg,)``.  Metering or canonically
# keying ``new`` from scratch costs O(len) every round — O(rounds²)
# over a run.  A producer that *knows* the extension relationship
# registers it here; repro._util.sizes and repro._util.ordering then
# derive the new tuple's size/key from the parent's cached one in O(1)
# recursion (plus the new element).  The registry is advisory: a
# missing entry just means the consumer does the full scan, and the
# consumers re-derive exactly what the scan would produce (pinned by
# the differential suite, where scratch-mode machines never register
# extensions).

# One entry per node per round; the limit is per generation (see
# IdentityMemo), so on graphs of up to 4,096 nodes the parent
# registered last round is always still there.
_EXTENSIONS = IdentityMemo(limit=1 << 12)


def note_extension(parent: Tuple, child: Tuple) -> Tuple:
    """Record that ``child == parent + (child[-1],)``; returns ``child``.

    Caller contract (checked structurally, not element-wise — an
    element-wise check would cost the O(len) this exists to avoid):
    ``child`` must extend ``parent`` by exactly one trailing element.
    """
    if type(parent) is tuple and type(child) is tuple:
        if len(child) == len(parent) + 1:
            _EXTENSIONS.put(child, parent)
    return child


def extension_parent(child: Tuple) -> Optional[Tuple]:
    """The registered parent of ``child``, or ``None``."""
    parent = _EXTENSIONS.get(child)
    if parent is not None and len(child) == len(parent) + 1:
        return parent
    return None
