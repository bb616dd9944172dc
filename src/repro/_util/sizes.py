"""Structural bit-size metering for messages.

The paper notes (Section 5) that the broadcast-model simulation keeps
the *round* complexity unchanged "at the cost of increasing message
complexity".  To measure that cost, the runtime meters the structural
size of every message in bits.  The measure is deliberately simple and
deterministic (it is an accounting device, not a wire format):

* ``None`` costs 1 bit (presence flag);
* ``bool`` costs 1 bit;
* ``int n`` costs ``bit_length(|n|) + 1`` bits (sign/zero);
* ``Fraction p/q`` costs the cost of ``p`` plus the cost of ``q``;
* ``str s`` costs ``8·len(s)`` bits;
* containers (``tuple`` / ``list`` / ``dict``) cost the sum of their
  items plus ``ceil(log2(len+1)) + 1`` bits of length framing; a dict
  item costs its key plus its value.

Every type :func:`repro._util.ordering.canonical_key` accepts is
meterable, and vice versa (cross-checked in the tests).

Sizes of deeply immutable tuples are memoised via
:class:`repro._util.identity.IdentityMemo`.  Payloads repeat heavily
across nodes and rounds — colour sequences, growing history tuples —
so re-metering costs O(new elements), not O(payload).

Growing history tuples get one better: a producer that extends a tuple
by one element per round (the Section 5 history machine) registers the
extension via :func:`repro._util.memo.note_extension`, and the size of
the new tuple is derived from the parent's cached size plus the new
element — O(1) per round instead of O(round), so ``Metering`` costs
stop being quadratic in the round number.  The derivation reproduces
exactly what the full scan computes (same framing, same element
costs); the replay differential suite pins the bit counts against
scratch-mode runs that never register extensions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Tuple

from repro._util.identity import IdentityMemo
from repro._util.memo import extension_parent
from repro._util.rationals import ScaledInt

__all__ = ["message_size_bits"]

# Only deeply immutable tuples are stored.  The limit is per generation and
# sized to a round's working set: the Section 5 machine adds about 1.4
# entries per node per round, so at n=64 a generation spans ~40 rounds.
_SIZE_MEMO = IdentityMemo(limit=1 << 12)


def _int_bits(n: int) -> int:
    return abs(n).bit_length() + 1


def _length_framing_bits(length: int) -> int:
    return (length + 1).bit_length() + 1


def message_size_bits(value: Any) -> int:
    """Structural size of ``value`` in bits (see module docstring)."""
    return _size(value)[0]


def _size(value: Any) -> Tuple[int, bool]:
    """``(bits, deeply-immutable?)`` — the flag gates memoisation."""
    if value is None:
        return 1, True
    if isinstance(value, bool):
        return 1, True
    if isinstance(value, int):
        return _int_bits(value), True
    if isinstance(value, Fraction):
        return _int_bits(value.numerator) + _int_bits(value.denominator), True
    if type(value) is ScaledInt:
        # Metered on the reduced value, so the scaled-integer fast path
        # is bit-for-bit indistinguishable from the Fraction it stands
        # for (the differential suite pins this).
        f = value.as_fraction()
        return _int_bits(f.numerator) + _int_bits(f.denominator), True
    if isinstance(value, float):
        raise TypeError("floats are not permitted in messages")
    if isinstance(value, str):
        return 8 * len(value) + _length_framing_bits(len(value)), True
    if isinstance(value, tuple):
        cached = _SIZE_MEMO.get(value)
        if cached is not None:
            return cached, True
        parent = extension_parent(value)
        if parent is not None:
            # value == parent + (value[-1],): derive the size from the
            # parent's cached size (a cached size implies the parent is
            # deeply immutable).  Only the already-cached case is taken
            # — the parent was metered last round; if it has aged out
            # of the memo we simply fall through to the full scan,
            # never recursing down a long extension chain.
            parent_bits = _SIZE_MEMO.get(parent)
            if parent_bits is not None:
                last_bits, last_frozen = _size(value[-1])
                bits = (
                    parent_bits
                    - _length_framing_bits(len(parent))
                    + _length_framing_bits(len(value))
                    + last_bits
                )
                if last_frozen:
                    _SIZE_MEMO.put(value, bits)
                    return bits, True
                return bits, False
        bits = _length_framing_bits(len(value))
        frozen = True
        for v in value:
            b, f = _size(v)
            bits += b
            frozen &= f
        if frozen:
            _SIZE_MEMO.put(value, bits)
        return bits, frozen
    if isinstance(value, list):
        return (
            _length_framing_bits(len(value))
            + sum(message_size_bits(v) for v in value),
            False,
        )
    if isinstance(value, dict):
        return (
            _length_framing_bits(len(value))
            + sum(
                message_size_bits(k) + message_size_bits(v)
                for k, v in value.items()
            ),
            False,
        )
    raise TypeError(
        f"unsupported message value of type {type(value).__name__}: {value!r}"
    )
