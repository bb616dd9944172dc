"""Exact rational arithmetic helpers.

The paper's algorithms manipulate rational numbers whose denominators
are controlled by Lemma 2 (edge packing: every colour element ``q``
satisfies ``q · (Δ!)^Δ ∈ N``) and by the analogous argument in
Section 4 (fractional packing: ``p(u) · (k!)^{(D+1)²} ∈ N``).  We use
:class:`fractions.Fraction` throughout the core algorithms so these
integrality facts can be *asserted* rather than assumed, and so that
feasibility/maximality verification is exact.

:class:`ScaledInt` is the machine-level fast path those denominator
bounds enable: an exact rational held as an integer numerator against
an explicit (shared, not-necessarily-reduced) denominator.  While the
denominator is shared — which Lemma 2 guarantees for all of Phase I —
add/sub/min/compare are single integer operations with no gcd
normalisation, which is where :class:`~fractions.Fraction` spends most
of its time.  Operations that would push the denominator past the
per-instance ``limit`` return an exact :class:`Fraction` instead
(never an inexact value, never a silent overflow), so the star rounds
of Section 3 and any value outside the lemma's discipline degrade
gracefully to the general representation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Iterable, Optional, Union

__all__ = [
    "FRACTION_ZERO",
    "FRACTION_ONE",
    "ScaledInt",
    "as_fraction",
    "column_scaled",
    "factorial",
    "is_multiple_of",
    "lcm_denominator",
    "scaled_column",
]

Rational = Union[int, Fraction]

# Shared constants: Fraction construction is surprisingly costly, and
# hot paths compare against 0/1 constantly.  Fractions are immutable,
# so sharing is safe.
FRACTION_ZERO = Fraction(0)
FRACTION_ONE = Fraction(1)


def as_fraction(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce ``value`` to an exact :class:`Fraction`.

    Floats are rejected on purpose: the core algorithms must never see
    an inexact number, otherwise the Lemma 2 integrality invariants
    (and with them the colour encodings) silently break.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("booleans are not valid rational values")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(
        f"expected an exact rational (int/Fraction/str), got {type(value).__name__}"
    )


def factorial(n: int) -> int:
    """``n!`` with validation (thin wrapper over :func:`math.factorial`)."""
    if n < 0:
        raise ValueError(f"factorial of negative number: {n}")
    return math.factorial(n)


def is_multiple_of(value: Rational, unit: Fraction) -> bool:
    """Return ``True`` iff ``value`` is an integer multiple of ``unit``.

    Used to assert the Lemma 2 invariant: colour elements produced
    during Phase I iteration ``t`` are integer multiples of
    ``1 / (Δ!)^t``.
    """
    if unit == 0:
        raise ValueError("unit must be nonzero")
    q = as_fraction(value) / as_fraction(unit)
    return q.denominator == 1


def lcm_denominator(values: Iterable[Rational]) -> int:
    """Least common multiple of the denominators of ``values``.

    Returns 1 for an empty iterable.  Useful when clearing denominators
    to obtain the integer colour encodings of Lemma 2.
    """
    return reduce(
        math.lcm, (as_fraction(v).denominator for v in values), 1
    )


def scaled_column(values: Iterable[Union[int, Fraction, "ScaledInt"]],
                  den: int) -> list:
    """Numerators of ``values`` on the shared denominator ``den``.

    The ScaledInt → ``int64``-column view used by the columnar engine
    (:mod:`repro.simulator.state_layout`): a homogeneous batch of exact
    rationals becomes one flat list of plain integers, suitable for a
    numpy column.  Raises if any value is not an integer multiple of
    ``1/den`` — the same Lemma 2 round-trip check as
    :meth:`ScaledInt.of`, applied column-wise.
    """
    if den < 1:
        raise ValueError(f"denominator must be positive, got {den}")
    nums = []
    for v in values:
        if type(v) is ScaledInt and v.den == den:
            nums.append(v.num)
            continue
        f = v.as_fraction() if type(v) is ScaledInt else as_fraction(v)
        num, rem = divmod(f.numerator * den, f.denominator)
        if rem:
            raise ValueError(f"{f} is not an integer multiple of 1/{den}")
        nums.append(num)
    return nums


def column_scaled(nums: Iterable[int], den: int,
                  limit: Optional[int] = None,
                  cache: Optional[dict] = None) -> list:
    """Rebuild :class:`ScaledInt` objects from an integer column.

    Inverse of :func:`scaled_column`; ``int(...)`` coercion guards
    against numpy scalar types leaking into machine states (their
    silent wraparound arithmetic must never touch the exact grid).

    Repeated numerators share one interned instance (ScaledInt is
    immutable and value-equal, so sharing is observationally inert) —
    columnar workloads repeat a handful of values across thousands of
    entries, and sharing also pools the lazy ``as_fraction`` caches.
    Pass ``cache`` to extend the interning table across several columns
    on the same denominator.
    """
    if cache is None:
        cache = {}
    out = []
    for num in nums:
        v = cache.get(num)
        if v is None:
            v = ScaledInt(int(num), den, limit)
            cache[num] = v
        out.append(v)
    return out


class ScaledInt:
    """Exact rational ``num / den`` with an explicit shared denominator.

    The value is exact but **not normalised**: ``num`` and ``den`` may
    share a common factor.  All observable behaviour (equality,
    ordering, hashing, :meth:`as_fraction`) is defined on the reduced
    value, so two representations of the same rational are
    interchangeable; the unreduced form only buys speed.  ``den`` is
    always positive.

    Arithmetic rules:

    * same-denominator ``+``/``-``/comparisons are single integer
      operations (the Phase I fast path);
    * division by an integer first tries exact numerator division,
      then extends the denominator by the reduced divisor;
    * any operation whose result denominator would exceed ``limit``
      returns the exact :class:`~fractions.Fraction` instead — the
      documented fallback, never a silent loss of exactness;
    * mixing with :class:`~fractions.Fraction` (or another
      :class:`ScaledInt`'s multiplication/division) goes through
      :class:`~fractions.Fraction` arithmetic.

    Instances are immutable by convention (``_frac`` caches the reduced
    form lazily); never mutate ``num``/``den`` after construction —
    machine states share them copy-on-write.
    """

    __slots__ = ("num", "den", "limit", "_frac")

    def __init__(self, num: int, den: int, limit: Optional[int] = None):
        if den <= 0:
            # Comparisons cross-multiply assuming den > 0; a negative
            # denominator would silently invert them.
            raise ValueError(f"denominator must be positive, got {den}")
        self.num = num
        self.den = den
        self.limit = limit
        self._frac: Optional[Fraction] = None

    # -- construction / conversion -------------------------------------

    @classmethod
    def of(
        cls, value: Union[int, Fraction, "ScaledInt"],
        den: int, limit: Optional[int] = None,
    ) -> "ScaledInt":
        """Validated conversion onto denominator ``den``.

        Raises if ``value`` is not an integer multiple of ``1/den`` —
        the Lemma 2 round-trip check.
        """
        if den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        if isinstance(value, ScaledInt):
            value = value.as_fraction()
        if isinstance(value, bool):
            raise TypeError("booleans are not valid rational values")
        if isinstance(value, int):
            return cls(value * den, den, limit)
        if isinstance(value, Fraction):
            scaled, rem = divmod(value.numerator * den, value.denominator)
            if rem:
                raise ValueError(
                    f"{value} is not an integer multiple of 1/{den}"
                )
            return cls(scaled, den, limit)
        raise TypeError(
            f"expected int/Fraction/ScaledInt, got {type(value).__name__}"
        )

    def as_fraction(self) -> Fraction:
        """The reduced value (cached; the metering/encoding boundary)."""
        f = self._frac
        if f is None:
            num = self.num
            if num == 0:
                f = FRACTION_ZERO
            elif num == self.den:
                f = FRACTION_ONE
            else:
                f = Fraction(num, self.den)
            self._frac = f
        return f

    @property
    def numerator(self) -> int:
        return self.as_fraction().numerator

    @property
    def denominator(self) -> int:
        return self.as_fraction().denominator

    # -- arithmetic -----------------------------------------------------

    def _mixed_addsub(self, onum: int, oden: int, sign: int):
        """``self ± onum/oden`` with minimal denominator growth."""
        sden = self.den
        g = math.gcd(sden, oden)
        den = sden // g * oden
        num = self.num * (den // sden) + sign * onum * (den // oden)
        limit = self.limit
        if limit is not None and den > limit:
            return Fraction(num, den)
        return ScaledInt(num, den, limit)

    def __add__(self, other):
        t = type(other)
        if t is ScaledInt:
            sden, oden = self.den, other.den
            if sden is oden or sden == oden:
                return ScaledInt(self.num + other.num, sden,
                                 self.limit if self.limit is not None
                                 else other.limit)
            return self._mixed_addsub(other.num, other.den, 1)
        if t is int:
            return ScaledInt(self.num + other * self.den, self.den, self.limit)
        if t is Fraction:
            return self.as_fraction() + other
        return NotImplemented

    def __radd__(self, other):
        t = type(other)
        if t is int:
            return ScaledInt(self.num + other * self.den, self.den, self.limit)
        if t is Fraction:
            return other + self.as_fraction()
        return NotImplemented

    def __sub__(self, other):
        t = type(other)
        if t is ScaledInt:
            sden, oden = self.den, other.den
            if sden is oden or sden == oden:
                return ScaledInt(self.num - other.num, sden,
                                 self.limit if self.limit is not None
                                 else other.limit)
            return self._mixed_addsub(other.num, other.den, -1)
        if t is int:
            return ScaledInt(self.num - other * self.den, self.den, self.limit)
        if t is Fraction:
            return self.as_fraction() - other
        return NotImplemented

    def __rsub__(self, other):
        t = type(other)
        if t is int:
            return ScaledInt(other * self.den - self.num, self.den, self.limit)
        if t is Fraction:
            return other - self.as_fraction()
        return NotImplemented

    def __mul__(self, other):
        if type(other) is int:
            return ScaledInt(self.num * other, self.den, self.limit)
        if type(other) is ScaledInt:
            return self.as_fraction() * other.as_fraction()
        if type(other) is Fraction:
            return self.as_fraction() * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = type(other)
        if t is int:
            if other == 0:
                raise ZeroDivisionError("ScaledInt division by zero")
            num = self.num
            if other < 0:
                num, other = -num, -other
            q, rem = divmod(num, other)
            if rem == 0:
                return ScaledInt(q, self.den, self.limit)
            g = math.gcd(num, other)
            den = self.den * (other // g)
            num //= g
            limit = self.limit
            if limit is not None and den > limit:
                return Fraction(num, den)
            return ScaledInt(num, den, limit)
        if t is ScaledInt:
            return self.as_fraction() / other.as_fraction()
        if t is Fraction:
            return self.as_fraction() / other
        return NotImplemented

    def __rtruediv__(self, other):
        if type(other) in (int, Fraction):
            return other / self.as_fraction()
        return NotImplemented

    def div_exact(self, n: int) -> "ScaledInt":
        """``self / n`` under the fixed-denominator discipline.

        Phase I of Section 3 only ever divides residuals by active
        degrees, which Lemma 2 proves stay on the ``(Δ!)^Δ`` grid; a
        remainder here means that invariant was violated, so it raises
        rather than degrade representation silently.
        """
        q, rem = divmod(self.num, n)
        if rem:
            raise AssertionError(
                f"inexact scaled division {self!r} / {n} — the Lemma 2 "
                f"denominator bound does not cover this value"
            )
        return ScaledInt(q, self.den, self.limit)

    def __neg__(self):
        return ScaledInt(-self.num, self.den, self.limit)

    def __abs__(self):
        return ScaledInt(abs(self.num), self.den, self.limit)

    def __bool__(self):
        return self.num != 0

    # -- comparisons ----------------------------------------------------

    def _parts(self, other):
        """Cross-multiplied integer pair ``(a, b)`` with ``self ~ other``
        iff ``a ~ b``; ``None`` for unsupported operands."""
        t = type(other)
        if t is ScaledInt:
            sden, oden = self.den, other.den
            if sden is oden or sden == oden:
                return self.num, other.num
            return self.num * oden, other.num * sden
        if t is int or t is bool:
            return self.num, other * self.den
        if t is Fraction:
            return (self.num * other.denominator,
                    other.numerator * self.den)
        return None

    def __eq__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return parts[0] == parts[1]

    def __lt__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return parts[0] < parts[1]

    def __le__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return parts[0] <= parts[1]

    def __gt__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return parts[0] > parts[1]

    def __ge__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return parts[0] >= parts[1]

    def __hash__(self):
        # Hash-compatible with Fraction/int of equal value, so mixed
        # containers (replay memo keys, y dicts) behave.
        return hash(self.as_fraction())

    # -- misc ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"ScaledInt({self.num}, {self.den})"

    def __reduce__(self):
        return (ScaledInt, (self.num, self.den, self.limit))
