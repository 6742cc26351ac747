"""Mantissa/exponent representation for probabilities far below 1e-308.

A ScaledFloat stores value = mantissa * 2**exponent with mantissa in
[1, 2) or exactly 0.  Only nonnegative values are supported; that is all
the probability arithmetic here needs.
"""

from __future__ import annotations

import math

_LN2 = math.log(2.0)

# shifts beyond this cannot change a float64 mantissa
_ALIGN_LIMIT = 1100


class ScaledFloat:
    __slots__ = ("mantissa", "exponent")

    def __init__(self, value: float = 0.0, exponent: int = 0):
        if value < 0.0:
            raise ValueError("ScaledFloat holds nonnegative values only")
        if value == 0.0:
            self.mantissa = 0.0
            self.exponent = 0
            return
        frac, ex = math.frexp(value)  # frac in [0.5, 1)
        self.mantissa = frac * 2.0
        self.exponent = exponent + ex - 1

    @classmethod
    def from_log2(cls, log2_value: float) -> "ScaledFloat":
        if log2_value == -math.inf:
            return cls(0.0)
        e = math.floor(log2_value)
        return cls(2.0 ** (log2_value - e), int(e))

    @classmethod
    def from_ln(cls, ln_value: float) -> "ScaledFloat":
        return cls.from_log2(ln_value / _LN2)

    def is_zero(self) -> bool:
        return self.mantissa == 0.0

    def log2(self) -> float:
        if self.is_zero():
            return -math.inf
        return math.log2(self.mantissa) + self.exponent

    def ln(self) -> float:
        return self.log2() * _LN2

    def __float__(self) -> float:
        if self.is_zero():
            return 0.0
        return math.ldexp(self.mantissa, self.exponent)

    def __add__(self, other: "ScaledFloat") -> "ScaledFloat":
        if not isinstance(other, ScaledFloat):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        hi, lo = (self, other) if self.exponent >= other.exponent else (other, self)
        shift = hi.exponent - lo.exponent
        if shift > _ALIGN_LIMIT:
            return hi
        return ScaledFloat(hi.mantissa + math.ldexp(lo.mantissa, -shift), hi.exponent)

    def __mul__(self, other):
        if isinstance(other, ScaledFloat):
            if self.is_zero() or other.is_zero():
                return ScaledFloat(0.0)
            return ScaledFloat(self.mantissa * other.mantissa,
                               self.exponent + other.exponent)
        if isinstance(other, (int, float)):
            # normalise first: mantissa * other would round a subnormal other
            return self * ScaledFloat(float(other))
        return NotImplemented

    __rmul__ = __mul__

    def _key(self):
        if self.is_zero():
            return (-math.inf, 0.0)
        return (self.exponent, self.mantissa)

    def __eq__(self, other):
        if not isinstance(other, ScaledFloat):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other: "ScaledFloat") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "ScaledFloat") -> bool:
        return self._key() <= other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return f"ScaledFloat({self.mantissa!r} * 2**{self.exponent})"


def scaled_sum(values) -> ScaledFloat:
    total = ScaledFloat(0.0)
    for v in values:
        total = total + v
    return total
