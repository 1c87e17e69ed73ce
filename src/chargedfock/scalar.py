"""Scalar arithmetic backends.

Three run-wide modes:

* ``exact-rational``  -- ``fractions.Fraction`` everywhere, tolerance 0.
* ``exact-gaussian``  -- rationals plus an exact imaginary unit
  (:class:`GaussianRational`), tolerance 0.  Needed as soon as a generator
  carries a coefficient ``i*lam*m`` with ``lam != 0``.
* ``float``           -- machine complex numbers with an explicit tolerance.

Every operation in the package takes coefficients from one of these and the
mode is fixed per run through :class:`ArithmeticContext`.  Integers and
Fractions flow through Gaussian arithmetic unchanged, so real intermediate
results stay plain rationals until an imaginary coefficient actually shows up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Union

MODES = ("exact-rational", "exact-gaussian", "float")

# tokens for values that have no exact rational spelling
_IRRATIONAL_TOKENS = {
    "1/sqrt2": 2.0 ** -0.5,
    "-1/sqrt2": -(2.0 ** -0.5),
    "sqrt2": 2.0 ** 0.5,
    "-sqrt2": -(2.0 ** 0.5),
}


class GaussianRational:
    """``re + im*i`` with exact rational parts.

    Immutable and hashable; arithmetic mixes freely with int and Fraction
    (promoting them), so code paths that never touch the imaginary unit keep
    producing plain Fractions.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return cls(other, 0)
        return NotImplemented

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # agrees with int/Fraction hashing when the value is real
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __abs__(self) -> float:
        return math.hypot(float(self.re), float(self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


Scalar = Union[int, Fraction, GaussianRational, float, complex]

IMAG_UNIT = GaussianRational(0, 1)
_ZERO, _ONE = Fraction(0), Fraction(1)  # immutable, so every exact context shares them


@dataclass(frozen=True)
class ArithmeticContext:
    """Run-wide scalar representation plus comparison tolerance.

    Exact modes demand tolerance exactly 0 (an exact check either holds or it
    does not); float mode demands a strictly positive, finite tolerance.
    """

    mode: str
    tolerance: float = 0.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown arithmetic mode {self.mode!r}; expected one of {MODES}")
        if self.exact and self.tolerance != 0:
            raise ValueError("exact modes take tolerance 0")
        if not self.exact and not 0 < self.tolerance < math.inf:
            raise ValueError("float mode needs a positive finite tolerance")

    @property
    def exact(self) -> bool:
        return self.mode != "float"

    def zero(self) -> Scalar:
        return _ZERO if self.exact else 0.0

    def one(self) -> Scalar:
        return _ONE if self.exact else 1.0

    def imaginary_unit(self) -> Scalar:
        if self.mode == "exact-rational":
            raise ValueError(
                "imaginary coefficients need exact-gaussian or float arithmetic"
            )
        return IMAG_UNIT if self.exact else 1j

    def parse(self, text: str) -> Scalar:
        """Parse a config scalar: 'p/q', a decimal, or an irrational token."""
        text = text.strip()
        if text in _IRRATIONAL_TOKENS:
            if self.exact:
                raise ValueError(
                    f"{text!r} is irrational; exact arithmetic modes cannot represent it"
                    " (use float mode)"
                )
            return _IRRATIONAL_TOKENS[text]
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse scalar {text!r}") from exc
        if self.exact:
            return value
        try:
            x = float(value)
        except OverflowError:
            raise ValueError(f"scalar {text!r} has no finite float") from None
        if x == 0 and value != 0:
            raise ValueError(f"scalar {text!r} is nonzero but rounds to 0.0 in float mode")
        return x

    def conj(self, x: Scalar) -> Scalar:
        if isinstance(x, GaussianRational):
            return x.conjugate()
        if isinstance(x, complex):
            return x.conjugate()
        return x

    def re_im(self, x: Scalar):
        if isinstance(x, GaussianRational):
            return x.re, x.im
        if isinstance(x, complex):
            return x.real, x.imag
        if self.exact:
            return x if isinstance(x, Fraction) else Fraction(x), _ZERO
        return float(x), 0.0

    def abs_sq(self, x: Scalar):
        re, im = self.re_im(x)
        return re * re + im * im

    def is_zero(self, x: Scalar) -> bool:
        if self.exact:
            return x == 0
        return abs(x) <= self.tolerance

    def json_real(self, r) -> Union[str, float]:
        """Real number as a JSON-stable value: 'p/q' string when exact."""
        if self.exact:
            return str(Fraction(r))
        return float(r)

    def json_re_im(self, x: Scalar):
        re, im = self.re_im(x)
        return self.json_real(re), self.json_real(im)


def make_context(mode: str, tolerance: float = 0.0) -> ArithmeticContext:
    """Select the scalar mode for a run; validates mode/tolerance pairing."""
    return ArithmeticContext(mode=mode, tolerance=tolerance)


def decimal_str(r) -> str:
    """Decimal rendering of a real scalar with 30 significant digits.

    Exact inputs are rounded once at that precision, so serialized tables are
    reproducible byte for byte.
    """
    with localcontext() as ctx:
        ctx.prec = 30
        if isinstance(r, Fraction):
            d = Decimal(r.numerator) / Decimal(r.denominator)
        elif isinstance(r, int):
            d = +Decimal(r)
        else:
            d = +Decimal(float(r))
        return str(d)
