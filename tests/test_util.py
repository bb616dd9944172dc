"""Unit and property tests for repro._util."""

from __future__ import annotations

import gc
import math
import weakref
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro._util.identity import IdentityMemo
from repro._util.logstar import (
    ilog2_ceil,
    ilog2_floor,
    iterated_log_sequence,
    log_star,
)
from repro._util.ordering import canonical_key, canonical_sorted
from repro._util.rationals import (
    as_fraction,
    factorial,
    is_multiple_of,
    lcm_denominator,
)
from repro._util.sizes import message_size_bits


class TestIlog:
    @pytest.mark.parametrize(
        "n,expect", [(1, 0), (2, 1), (3, 1), (4, 2), (5, 2), (8, 3), (1023, 9), (1024, 10)]
    )
    def test_floor_values(self, n, expect):
        assert ilog2_floor(n) == expect

    @pytest.mark.parametrize(
        "n,expect", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (1023, 10), (1024, 10)]
    )
    def test_ceil_values(self, n, expect):
        assert ilog2_ceil(n) == expect

    @given(st.integers(min_value=1, max_value=10**40))
    def test_floor_matches_bitlength(self, n):
        assert ilog2_floor(n) == n.bit_length() - 1

    @given(st.integers(min_value=2, max_value=10**40))
    def test_ceil_bounds_log(self, n):
        c = ilog2_ceil(n)
        assert 2 ** (c - 1) < n <= 2**c

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ilog2_floor(0)
        with pytest.raises(ValueError):
            ilog2_ceil(-1)


class TestLogStar:
    @pytest.mark.parametrize(
        "n,expect",
        [
            (0, 0),
            (1, 0),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (16, 3),
            (17, 4),
            (65536, 4),
            (65537, 5),
            (2**64, 5),
            (2**1024, 5),
        ],
    )
    def test_known_values(self, n, expect):
        assert log_star(n) == expect

    @given(st.integers(min_value=2, max_value=10**60))
    def test_monotone_step(self, n):
        # log*(n) = 1 + log*(ceil(log2 n))
        assert log_star(n) == 1 + log_star(ilog2_ceil(n))

    def test_huge_value_is_tiny(self):
        assert log_star(2 ** (2**16)) == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_star(-1)


class TestIteratedLogSequence:
    def test_sequence_terminates_at_one(self):
        seq = iterated_log_sequence(2**40)
        assert seq[0] == 2**40
        assert seq[-1] <= 1

    def test_length_is_logstar_plus_one(self):
        for n in (1, 2, 5, 100, 2**30, 2**100):
            assert len(iterated_log_sequence(n)) == log_star(n) + 1


class TestCanonicalOrdering:
    def test_orders_across_types(self):
        values = ["b", 3, None, True, (1, 2), Fraction(1, 2), "a", {}]
        out = canonical_sorted(values)
        assert out[0] is None
        assert out[1] is True
        assert out[2] == Fraction(1, 2)
        assert out[3] == 3

    def test_ints_and_fractions_interleave_numerically(self):
        out = canonical_sorted([2, Fraction(3, 2), 1, Fraction(5, 2)])
        assert out == [1, Fraction(3, 2), 2, Fraction(5, 2)]

    def test_nested_tuples(self):
        out = canonical_sorted([(2, 1), (1, 9), (1, 2)])
        assert out == [(1, 2), (1, 9), (2, 1)]

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            canonical_key(1.5)

    def test_dict_keys_sorted(self):
        assert canonical_key({"b": 1, "a": 2}) == canonical_key({"a": 2, "b": 1})

    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(-50, 50),
                st.fractions(),
                st.text(max_size=4),
                st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
            ),
            max_size=12,
        )
    )
    def test_sort_is_deterministic_and_permutation_invariant(self, values):
        import random

        shuffled = list(values)
        random.Random(1).shuffle(shuffled)
        assert canonical_sorted(values) == canonical_sorted(shuffled)


class TestRationals:
    def test_as_fraction_accepts_int_str_fraction(self):
        assert as_fraction(3) == Fraction(3)
        assert as_fraction("2/5") == Fraction(2, 5)
        assert as_fraction(Fraction(1, 7)) == Fraction(1, 7)

    def test_as_fraction_rejects_float_and_bool(self):
        with pytest.raises(TypeError):
            as_fraction(0.5)
        with pytest.raises(TypeError):
            as_fraction(True)

    def test_factorial(self):
        assert factorial(0) == 1
        assert factorial(5) == 120
        with pytest.raises(ValueError):
            factorial(-1)

    def test_is_multiple_of(self):
        assert is_multiple_of(Fraction(3, 4), Fraction(1, 4))
        assert not is_multiple_of(Fraction(1, 3), Fraction(1, 4))
        with pytest.raises(ValueError):
            is_multiple_of(1, Fraction(0))

    @given(st.integers(1, 100), st.integers(1, 30))
    def test_multiples_always_detected(self, num, den):
        unit = Fraction(1, den)
        assert is_multiple_of(num * unit, unit)

    def test_lcm_denominator(self):
        assert lcm_denominator([]) == 1
        assert lcm_denominator([Fraction(1, 4), Fraction(1, 6)]) == 12
        assert lcm_denominator([2, 3]) == 1


class TestMessageSizeBits:
    def test_none_and_bool(self):
        assert message_size_bits(None) == 1
        assert message_size_bits(True) == 1

    def test_int_grows_with_magnitude(self):
        assert message_size_bits(0) == 1
        assert message_size_bits(1) == 2
        assert message_size_bits(2**20) < message_size_bits(2**40)

    def test_fraction(self):
        assert message_size_bits(Fraction(3, 4)) == message_size_bits(3) + message_size_bits(4)

    def test_container_includes_framing(self):
        assert message_size_bits(()) > 0
        assert message_size_bits((1, 2)) > message_size_bits(1) + message_size_bits(2)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            message_size_bits(3.14)

    @given(st.lists(st.integers(-1000, 1000), max_size=10))
    def test_monotone_in_extension(self, values):
        t = tuple(values)
        assert message_size_bits(t + (7,)) > message_size_bits(t)


class _IntSub(int):
    pass


class _FractionSub(Fraction):
    pass


class _StrSub(str):
    pass


_Pair = namedtuple("_Pair", "a b")


class _ListSub(list):
    pass


class _DictSub(dict):
    pass


# One subclass value of each supported type (bool and None have none),
# with the plain value it must be sized and keyed exactly like.
SUBCLASS_SAMPLES = [
    (_IntSub(-17), -17),
    (_FractionSub(3, 4), Fraction(3, 4)),
    (_StrSub("héllo"), "héllo"),
    (_Pair(1, ("x", None)), (1, ("x", None))),
    (_ListSub([Fraction(1, 2), (True,)]), [Fraction(1, 2), (True,)]),
    (_DictSub({"k": 1, ("t", 2): [3]}), {"k": 1, ("t", 2): [3]}),
]


class TestOrderingSizesCrossCheck:
    """Every canonical_key-supported type must also be meterable, and
    the identity memo caches must never return stale answers."""

    SAMPLES = [v for v, _ in SUBCLASS_SAMPLES] + [
        None,
        True,
        False,
        0,
        -17,
        2**40,
        Fraction(3, 4),
        Fraction(-5, 7),
        "",
        "héllo",
        (),
        (1, "a", None),
        [Fraction(1, 2), (True,)],
        {"k": 1, ("t", 2): [3]},
        ((1, (2, "x")), {True: None}),
    ]

    def test_every_canonical_value_is_meterable(self):
        from repro._util.ordering import canonical_key
        from repro._util.sizes import message_size_bits

        for value in self.SAMPLES:
            canonical_key(value)  # must not raise
            assert message_size_bits(value) >= 1

    @pytest.mark.parametrize(
        "value, plain", SUBCLASS_SAMPLES,
        ids=[type(v).__name__ for v, _ in SUBCLASS_SAMPLES],
    )
    def test_subclasses_size_and_key_like_their_base(self, value, plain):
        assert type(value) is not type(plain)
        assert message_size_bits(value) == message_size_bits(plain)
        assert canonical_key(value) == canonical_key(plain)
        # inside a (memoised) tuple too
        assert message_size_bits((value,)) == message_size_bits((plain,))
        assert canonical_key((value,)) == canonical_key((plain,))

    def test_both_reject_the_same_unsupported_types(self):
        from repro._util.ordering import canonical_key
        from repro._util.sizes import message_size_bits

        for bad in (1.5, {1, 2}, object()):
            with pytest.raises(TypeError):
                canonical_key(bad)
            with pytest.raises(TypeError):
                message_size_bits(bad)

    def test_dict_payloads_metered_structurally(self):
        from repro._util.sizes import message_size_bits

        assert message_size_bits({"a": 1}) > message_size_bits("a") + message_size_bits(1)
        assert message_size_bits({}) == message_size_bits(())

    def test_memo_repeated_and_mutable_payloads(self):
        from repro._util.ordering import canonical_key
        from repro._util.sizes import message_size_bits

        frozen = (Fraction(1, 2), ("wcv", 3), "s")
        first = message_size_bits(frozen)
        assert message_size_bits(frozen) == first  # memo hit
        assert canonical_key(frozen) == canonical_key(frozen)

        # A tuple holding a *mutable* list must never be served stale.
        inner = [1]
        mixed = (inner, 5)
        before_bits = message_size_bits(mixed)
        before_key = canonical_key(mixed)
        inner.append(2**30)
        assert message_size_bits(mixed) > before_bits
        assert canonical_key(mixed) != before_key

    def test_memo_distinguishes_equal_but_differently_typed_values(self):
        from repro._util.sizes import message_size_bits

        # True == 1 and Fraction(1) == 1, but their structural sizes
        # differ; the caches must not conflate them.
        assert message_size_bits((True,)) != message_size_bits((1,))
        assert message_size_bits((Fraction(1),)) != message_size_bits((1,))


class _Key:
    """A weak-referenceable key object."""


class TestIdentityMemo:
    LIMIT = 8

    def _filled(self, n):
        memo = IdentityMemo(self.LIMIT)
        keys = [_Key() for _ in range(n)]
        for i, key in enumerate(keys):
            memo.put(key, i)
        return memo, keys

    def test_entry_before_the_swap_survives_it(self):
        # The (limit + 1)-th put starts a new generation; the entry put
        # just before it is still served.
        memo, keys = self._filled(self.LIMIT + 1)
        assert memo.get(keys[self.LIMIT - 1]) == self.LIMIT - 1
        assert memo.get(keys[self.LIMIT]) == self.LIMIT
        assert memo.get(keys[0]) == 0

    def test_entry_misses_two_generations_later(self):
        memo, keys = self._filled(self.LIMIT + 1)
        for i in range(2 * self.LIMIT):
            memo.put(_Key(), i)
        assert memo.get(keys[self.LIMIT - 1]) is None

    def test_most_recent_limit_puts_always_hit(self):
        memo = IdentityMemo(self.LIMIT)
        keys = []
        for i in range(5 * self.LIMIT + 3):
            keys.append(_Key())
            memo.put(keys[-1], i)
            recent = keys[-self.LIMIT:]
            assert [memo.get(k) for k in recent] == list(
                range(i + 1 - len(recent), i + 1)
            )

    def test_at_most_two_generations_stay_pinned(self):
        memo, keys = self._filled(5 * self.LIMIT)
        refs = [weakref.ref(k) for k in keys]
        del keys
        gc.collect()
        alive = sum(ref() is not None for ref in refs)
        assert self.LIMIT < alive <= 2 * self.LIMIT

    def test_identity_guard_holds_across_a_swap(self):
        memo = IdentityMemo(self.LIMIT)
        key, other = _Key(), _Key()
        # A stale entry filed under another object's id (what a recycled
        # id would look like) is never served, in either generation.
        memo._current[id(other)] = (key, "stale")
        assert memo.get(other) is None
        for i in range(self.LIMIT):
            memo.put(_Key(), i)
        assert id(other) in memo._previous
        assert memo.get(other) is None
        # Equal but distinct objects never share an entry.
        a, b = (1, "x"), tuple([1, "x"])
        assert a == b and a is not b
        memo.put(a, "a")
        for i in range(self.LIMIT):
            memo.put(_Key(), i)
        assert memo.get(a) == "a" and memo.get(b) is None
