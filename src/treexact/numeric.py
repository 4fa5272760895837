"""Numeric policy layer: exact rationals or epsilon-tolerant floats.

Every matrix and tree carries one policy, and all comparisons inside a
computation go through it. `coerce` is each policy's one reader of outside
numbers (strings, ints, floats, fractions), so every input meets the same
bounds. The default exact policy reads values as `fractions.Fraction`
(a matrix holds them as integers over one scale, see `core`), so
equalities between pair sums are decided without rounding and decimal
input strings survive a parse/serialize round trip unchanged. The float policy is meant for measured data; its equality is
``|x - y| <= epsilon * max(1, |x|, |y|)``, false when that tolerance is
infinite.

Mixing objects built under different policies in one computation raises
`PolicyMismatch`.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Union

Scalar = Union[Fraction, float]

# Everything `Policy.coerce` raises for a value it cannot read as a number.
NUMBER_ERRORS = (ValueError, TypeError, ZeroDivisionError)

__all__ = [
    "Scalar",
    "Policy",
    "ExactPolicy",
    "FloatPolicy",
    "EXACT",
]


def _decimal_places(den: int) -> tuple[int, int]:
    """(max(a, b), rest) for den = 2^a * 5^b * rest, rest coprime to 10: every
    multiple of rest/den terminates in max(a, b) places, and 1/den only if rest is 1."""
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives), den


def _fraction_to_text(value: Fraction) -> str:
    """Render a rational losslessly: decimal when terminating, 'p/q' otherwise."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    places, rest = _decimal_places(den)
    if rest > 1:
        return f"{num}/{den}"
    scaled = abs(num) * 10**places // den
    digits = str(scaled).rjust(places + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _scaled_texts(values, scale: int) -> dict[int, str]:
    """`_fraction_to_text(Fraction(v, scale))` for each integer v of `values`,
    keyed by v. When 1/scale terminates, every v / scale is written with the
    places of 1/scale and its trailing zeros dropped, with no `Fraction`."""
    places, rest = _decimal_places(scale)
    if rest > 1:
        return {v: _fraction_to_text(Fraction(v, scale)) for v in values}
    if places == 0:
        return {v: str(v) for v in values}
    lift = 10**places // scale
    texts = {}
    for v in values:
        digits = str(abs(v) * lift).rjust(places + 1, "0")
        head, tail = digits[:-places], digits[-places:].rstrip("0")
        text = f"{head}.{tail}" if tail else head
        texts[v] = f"-{text}" if v < 0 else text
    return texts


def _widest_text(weights) -> int:
    """The most digits `_scaled_texts` writes for a sum of some of these positive
    exact weights (a sequence), or _MAX_DIGITS + 1 when that is more. A sum is
    at most their total over a divisor of their lcm `scale`: a decimal in at most
    the places of scale's 2 and 5 factors, or p/q (p <= total, q <= scale) when
    scale has another factor."""
    scale = 1
    for w in weights:
        scale = math.lcm(scale, w.denominator)
        if scale >= _INT_LIMIT:  # already too wide to print
            break
    total = sum(w.numerator * (scale // w.denominator) for w in weights)

    def digits(x: int) -> int:
        return len(str(x)) if x < _INT_LIMIT else _MAX_DIGITS + 1

    places, rest = _decimal_places(scale)
    quotient = digits(total) + digits(scale) if rest > 1 else 0
    return min(max(digits(total // scale) + places, quotient), _MAX_DIGITS + 1)


_ECHO_LIMIT = 80  # the longest literal an error message repeats whole


def echo(value) -> str:
    """`repr(value)` for an error message, cut to its head and tail and its
    length when longer than _ECHO_LIMIT characters, so that an error stays
    one short line whatever the input."""
    text = repr(value)
    if len(text) <= _ECHO_LIMIT:
        return text
    return f"{text[:16]}...{text[-16:]} ({len(str(value))} characters)"


def _shortened(exc: ValueError, value) -> ValueError:
    """`exc` with its echo of `value` shortened by `echo`: the messages of
    `Fraction` and `float` repeat the whole literal."""
    return ValueError(str(exc).replace(repr(value), echo(value)))


_MAX_DIGITS = 1000
_MAX_EXPONENT = 1000
_INT_LIMIT = 10**_MAX_DIGITS  # the least integer with more than _MAX_DIGITS digits
# The most bits an exact grid may hold, as its distinct values times the bits
# of its scale. A CSV of 400-digit p/q cells holds 1.0e8 at n = 24 and 1.9e8
# at n = 28, where `check` takes 4.7 s and 10 s on a 2-vCPU host; at n = 40
# it holds 8.1e8 and takes 79 s.
_MAX_GRID_BITS = 200_000_000
# A plain ASCII decimal. Every other literal, digits of other scripts
# included, goes through `Fraction(text)`.
_PLAIN_DECIMAL = re.compile(r"([+-]?[0-9]+)(?:\.([0-9]*))?")


def _bounded_fraction(text: str) -> Fraction:
    """`Fraction(text)` for at most _MAX_DIGITS digits and a decimal exponent
    of at most _MAX_EXPONENT in size. `Fraction` builds 10**exponent, so a
    few bytes could otherwise demand unbounded time and memory."""
    text = text.strip()
    if len(text) > _MAX_DIGITS and sum(ch.isdigit() for ch in text) > _MAX_DIGITS:
        raise ValueError(f"more than {_MAX_DIGITS} digits in an exact number")
    plain = _PLAIN_DECIMAL.fullmatch(text)
    if plain:
        # A plain decimal is an integer over a power of ten; this skips the
        # general literal grammar that `Fraction(text)` walks.
        whole, frac = plain.group(1), plain.group(2) or ""
        return Fraction(int(whole + frac), 10 ** len(frac))
    if "e" in text or "E" in text:
        try:
            size = abs(int(text.lower().partition("e")[2]))
        except ValueError:
            size = 0  # not a number; Fraction reports the literal
        if size > _MAX_EXPONENT:
            raise ValueError(f"exponent beyond +/-{_MAX_EXPONENT} in an exact number")
    try:
        return Fraction(text)
    except ValueError as exc:
        raise _shortened(exc, text) from None


@dataclass(frozen=True)
class ExactPolicy:
    """Exact rational arithmetic; equality and order are literal."""

    name: ClassVar[str] = "exact"

    def coerce(self, value) -> Fraction:
        if isinstance(value, str):
            return _bounded_fraction(value)
        if isinstance(value, bool):
            raise TypeError(f"boolean {value!r} is not a number")
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            if abs(value) >= _INT_LIMIT:
                raise ValueError(f"more than {_MAX_DIGITS} digits in an exact number")
            return Fraction(value)
        if isinstance(value, float):
            # Read the decimal literal, not the binary expansion.
            return Fraction(str(value))
        raise TypeError(f"cannot interpret {echo(value)} as an exact rational")

    # The C functions themselves, so that hot loops pay no Python call.
    eq = staticmethod(operator.eq)
    lt = staticmethod(operator.lt)

    def zero(self) -> Fraction:
        return Fraction(0)

    def format(self, value) -> str:
        return _fraction_to_text(value)

    # json.loads hook receiving the raw float literal text
    json_parse_float = staticmethod(_bounded_fraction)


@dataclass(frozen=True)
class FloatPolicy:
    """IEEE floats with a combined relative/absolute equality tolerance.
    `epsilon` is read by `coerce` like any other number and kept as that float."""

    epsilon: float = 1e-9

    name: ClassVar[str] = "float"

    def __post_init__(self):
        epsilon = self.coerce(self.epsilon)
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", epsilon)

    def coerce(self, value) -> float:
        if isinstance(value, bool):
            raise TypeError(f"boolean {value!r} is not a number")
        try:
            out = float(value)
        except OverflowError:  # an int or a Fraction beyond the float range
            out = math.inf
        except ValueError as exc:
            raise _shortened(exc, value) from None
        if not math.isfinite(out):
            raise ValueError(f"non-finite value {echo(value)}")
        return out

    def eq(self, x, y) -> bool:
        # An overflowed sum makes the tolerance infinite; it matches nothing.
        return abs(x - y) <= self.epsilon * max(1.0, abs(x), abs(y)) < math.inf

    def lt(self, x, y) -> bool:
        return x < y and not self.eq(x, y)

    def zero(self) -> float:
        return 0.0

    def format(self, value) -> str:
        return repr(float(value))

    json_parse_float = staticmethod(float)


Policy = Union[ExactPolicy, FloatPolicy]

EXACT = ExactPolicy()
