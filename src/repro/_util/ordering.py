"""Canonical total ordering over message values.

The broadcast model delivers, to each node, the *multiset* of messages
sent by its neighbours: the node must not be able to tell which
neighbour sent which message, nor correlate senders across rounds.
The runtime enforces this by sorting every inbox with a canonical,
content-only key before delivery.  Sorting by content leaks nothing: a
multiset and its canonically sorted tuple carry exactly the same
information.

Messages in this library are built from ``None``, ``bool``, ``int``,
:class:`fractions.Fraction`, ``str``, and (possibly nested) ``tuple`` /
``list`` / frozen ``dict`` values.  :func:`canonical_key` maps any such
value to a key that is totally ordered across *different* types too,
by tagging each value with a type rank.

Keys for deeply immutable tuples are memoised via
:class:`repro._util.identity.IdentityMemo`.  Broadcast payloads repeat
heavily — the Section 5 history machine re-sends a growing tuple whose
elements are the previous rounds' tuples — so a round's key costs
O(new elements) instead of O(total history).  Those histories carry
their key instead (:class:`repro._util.memo.History`): the extension
that builds one appends the new element's key to its parent's, with no
per-element recursion at all.  Those element keys are interned (one
object per distinct key), so sorting an inbox of histories that share
a long prefix compares the prefix by identity, not value by value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Iterable, List, Tuple

from repro._util.identity import IdentityMemo
from repro._util.memo import History
from repro._util.rationals import ScaledInt

__all__ = ["canonical_key", "canonical_sorted"]

# Type ranks: chosen arbitrarily but fixed, so heterogeneous inboxes
# still sort deterministically.
_RANK_NONE = 0
_RANK_BOOL = 1
_RANK_NUMBER = 2
_RANK_STR = 3
_RANK_TUPLE = 4
_RANK_DICT = 5

# Only deeply immutable tuples are stored, and never a Section 5 history,
# which carries its own key.  The limit is per generation.
_KEY_MEMO = IdentityMemo(limit=1 << 12)

# Element keys of Section 5 histories, interned: equal key -> one object.
_ELEMENT_KEYS: Dict[Tuple, Tuple] = {}
_ELEMENT_KEYS_LIMIT = 1 << 16


def _intern_element_key(key: Tuple) -> Tuple:
    shared = _ELEMENT_KEYS.get(key)
    if shared is None:
        if len(_ELEMENT_KEYS) >= _ELEMENT_KEYS_LIMIT:
            _ELEMENT_KEYS.clear()
        shared = _ELEMENT_KEYS.setdefault(key, key)
    return shared


def canonical_key(value: Any) -> Tuple:
    """A sort key defining a total order over supported message values."""
    return _key(value)[0]


def _key(value: Any) -> Tuple[Tuple, bool]:
    """``(canonical key, deeply-immutable?)`` — the flag gates memoisation."""
    if value is None:
        return (_RANK_NONE,), True
    if isinstance(value, bool):
        return (_RANK_BOOL, value), True
    if isinstance(value, (int, Fraction)):
        # ints and Fractions compare numerically with each other.
        return (_RANK_NUMBER, Fraction(value)), True
    if type(value) is ScaledInt:
        # Keyed on the reduced value: a ScaledInt sorts exactly where
        # the Fraction it stands for would.
        return (_RANK_NUMBER, value.as_fraction()), True
    if isinstance(value, float):
        raise TypeError(
            "floats are not permitted in messages; use fractions.Fraction"
        )
    if isinstance(value, str):
        return (_RANK_STR, value), True
    if isinstance(value, tuple):
        if type(value) is History:
            return value.key, True
        cached = _KEY_MEMO.get(value)
        if cached is not None:
            return cached, True
        parts = []
        frozen = True
        for v in value:
            k, f = _key(v)
            parts.append(k)
            frozen &= f
        key = (_RANK_TUPLE, tuple(parts))
        if frozen:
            _KEY_MEMO.put(value, key)
        return key, frozen
    if isinstance(value, list):
        return (_RANK_TUPLE, tuple(canonical_key(v) for v in value)), False
    if isinstance(value, dict):
        items = sorted(
            ((canonical_key(k), canonical_key(v)) for k, v in value.items())
        )
        return (_RANK_DICT, tuple(items)), False
    raise TypeError(
        f"unsupported message value of type {type(value).__name__}: {value!r}"
    )


def canonical_sorted(values: Iterable[Any]) -> List[Any]:
    """Sort ``values`` by :func:`canonical_key` (stable, deterministic)."""
    return sorted(values, key=canonical_key)
