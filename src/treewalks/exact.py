"""Exactness guarantees that hold under ``python -O``.

Every route computes an exact integer.  Where a step relies on an
identity for that (an exact division, a vanishing coefficient), a
failure raises ``ExactnessError`` instead of an ``assert``, which the
interpreter drops when run with ``-O``.
"""

from __future__ import annotations


class ExactnessError(ArithmeticError):
    """An identity that guarantees an exact integer result did not hold."""


def exact_div(numerator: int, divisor: int) -> int:
    """numerator / divisor, raising ExactnessError unless it is an integer."""
    q, r = divmod(numerator, divisor)
    if r:
        # bit lengths, not digits: an operand may pass Python's int -> str limit
        sizes = numerator.bit_length(), divisor.bit_length()
        raise ExactnessError("non-exact division of a %d-bit by a %d-bit integer" % sizes)
    return q
