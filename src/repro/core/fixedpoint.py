"""Exact fixed-point mirrors of IEEE-754 doubles.

Every finite double is an integer multiple of 2**-1074 (the smallest
positive subnormal), so mirroring values as integers in those units
makes running sums exact: order-independent, drift-free under add and
subtract, and a pure function of the live multiset.  The incremental
aggregates in the ready queue and the USM window use this to keep O(1)
reads without the rounding drift a running *float* sum would collect.
"""

from __future__ import annotations

#: The scale factor: ``fixed == value * FIXED_ONE`` exactly.
FIXED_ONE = 1 << 1074


def fixed_from_float(value: float) -> int:
    """Exact integer mirror of a finite float (units of 2**-1074).

    Pure and stateless: nothing is kept between calls, so converting a
    stream of distinct floats retains no memory.
    """
    numerator, denominator = value.as_integer_ratio()
    # ``denominator`` is a power of two for every finite float.
    return numerator << (1075 - denominator.bit_length())


def float_from_fixed(total: int) -> float:
    """Correctly-rounded float value of an integer fixed-point sum.

    ``int.__truediv__`` rounds once (unlike ``float(total)`` it cannot
    overflow for sums whose magnitude exceeds 2**1024 units).  The zero
    fast path matters: empty backlogs are the common case on the
    admission hot path, and the wide division is ~700ns.
    """
    if not total:
        return 0.0
    return total / FIXED_ONE
