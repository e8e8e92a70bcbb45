"""Extended reals: finite values plus a single +inf element.

All (sub)derivative quantities in this package take values here.  Minus
infinity is deliberately unrepresentable: under proximal subgradients the
second-order quotients are bounded below by -r|w|^2, so a genuinely divergent
negative value signals a bug or a violated standing assumption.  The oracle
guards for that with ``NEG_GUARD``.
"""

from __future__ import annotations

import math
from functools import total_ordering

from .errors import NegativeInfinityDetected

# Overflow cap for finite payloads and the abort threshold for oracle probes.
CAP = 1e30
NEG_GUARD = -1e15


@total_ordering
class ExtReal:
    """An immutable extended real: ``ExtReal(x)`` for finite x, or ``PLUS_INF``."""

    __slots__ = ("_value",)

    def __init__(self, value: float | None):
        if value is not None:
            value = float(value)
            if math.isnan(value):
                raise ValueError("ExtReal payload cannot be NaN")
            if value == math.inf or value > CAP:
                value = None  # overflow guard: huge values collapse to PlusInf
            elif value == -math.inf or value < -CAP:
                raise NegativeInfinityDetected(
                    "minus infinity is not representable as an ExtReal"
                )
        object.__setattr__(self, "_value", value)

    def __setattr__(self, name, val):  # pragma: no cover - immutability guard
        raise AttributeError("ExtReal is immutable")

    # -- predicates and access ------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    @property
    def is_plus_inf(self) -> bool:
        return self._value is None

    @property
    def value(self) -> float:
        if self._value is None:
            raise ValueError("PlusInf has no finite payload")
        return self._value

    def as_float(self) -> float:
        """Finite payload, or IEEE +inf for the PlusInf tag."""
        return math.inf if self._value is None else self._value

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "ExtReal":
        other = _coerce(other)
        if self.is_plus_inf or other.is_plus_inf:
            return PLUS_INF
        return ExtReal(self._value + other._value)

    __radd__ = __add__

    def __sub__(self, other: float) -> "ExtReal":
        # Only finite subtrahends: PlusInf - PlusInf is meaningless here.
        if self.is_plus_inf:
            return PLUS_INF
        return ExtReal(self._value - float(other))

    def __neg__(self) -> "ExtReal":
        if self.is_plus_inf:
            raise NegativeInfinityDetected("cannot negate PlusInf")
        return ExtReal(-self._value)

    # -- total order with PlusInf maximal --------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        return self._value == other._value

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if self.is_plus_inf:
            return False
        if other.is_plus_inf:
            return True
        return self._value < other._value

    def __hash__(self):
        return hash(self._value)

    def __repr__(self):
        return "PlusInf" if self.is_plus_inf else f"ExtReal({self._value!r})"

    def __str__(self):
        return "+inf" if self.is_plus_inf else repr(self._value)


PLUS_INF = ExtReal(None)


def _coerce(x) -> ExtReal:
    return x if isinstance(x, ExtReal) else ExtReal(float(x))
