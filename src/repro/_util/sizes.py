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

Section 5 histories, which grow by one element per round, carry their
size instead (:class:`repro._util.memo.History`): the extension that
builds one derives it from its parent's in O(1) plus the new element,
so ``Metering`` costs stop being quadratic in the round number.  The
derivation reproduces exactly what the full scan computes; the replay
differential suite pins the bit counts against scratch-mode runs,
which rebroadcast plain tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Tuple

from repro._util.identity import IdentityMemo
from repro._util.memo import History
from repro._util.rationals import ScaledInt

__all__ = ["message_size_bits"]

# Only deeply immutable tuples are stored, and never a Section 5 history,
# which carries its own size.  The limit is per generation.
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
    # Exact types first.  An isinstance miss against Fraction goes
    # through its ABC metaclass, which costs more than everything else
    # here; subclasses take the isinstance chain below.
    t = type(value)
    if t is History:
        return value.bits, True
    if t is tuple:
        return _tuple_size(value)
    if t is ScaledInt:
        # Metered on the reduced value, so the scaled-integer fast path
        # is bit-for-bit indistinguishable from the Fraction it stands
        # for (the differential suite pins this).
        f = value.as_fraction()
        return _int_bits(f.numerator) + _int_bits(f.denominator), True
    if t is int:
        return _int_bits(value), True
    if value is None or t is bool:
        return 1, True
    if t is str:
        return _str_bits(value), True
    if isinstance(value, int):
        return _int_bits(value), True
    if isinstance(value, Fraction):
        return _int_bits(value.numerator) + _int_bits(value.denominator), True
    if isinstance(value, float):
        raise TypeError("floats are not permitted in messages")
    if isinstance(value, str):
        return _str_bits(value), True
    if isinstance(value, tuple):
        return _tuple_size(value)
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


def _str_bits(value: str) -> int:
    return 8 * len(value) + _length_framing_bits(len(value))


def _tuple_size(value: Tuple) -> Tuple[int, bool]:
    cached = _SIZE_MEMO.get(value)
    if cached is not None:
        return cached, True
    bits = _length_framing_bits(len(value))
    frozen = True
    for v in value:
        b, f = _size(v)
        bits += b
        frozen &= f
    if frozen:
        _SIZE_MEMO.put(value, bits)
    return bits, frozen
