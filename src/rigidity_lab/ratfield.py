"""Exact multivariate rational functions over the rationals.

Charts store their coefficient fields as quotients of polynomials with
Fraction coefficients.  Polynomials differentiate in closed form
(``Poly.diff``); a quotient is never differentiated symbolically; the
chart program divides the partials of its numerator and denominator at a
point instead, so point evaluations are exact up to the final float
conversion.  No finite differencing ever enters a rank decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool subclasses int, but true is no number
        raise ValueError(f"cannot interpret {value!r} as an exact rational")
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot interpret {value!r} as an exact rational")
        return Fraction(value)  # exact binary expansion
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ZeroDivisionError, ValueError) as exc:  # "1/0", "nan", "inf", "x"
            raise ValueError(f"cannot interpret {value!r} as an exact rational") from exc
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _as_int(value, what: str) -> int:
    """An integer read from a document: an int, an integral float or an
    integer string; booleans, non-integral and non-finite values are refused."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    try:
        out = int(value)
    except (OverflowError, ValueError, TypeError) as exc:
        raise ValueError(f"{what} must be an integer, got {value!r}") from exc
    if isinstance(value, float) and out != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return out


@dataclass(frozen=True)
class Poly:
    """Multivariate polynomial: exponent tuple -> Fraction coefficient."""

    nvars: int
    terms: dict[tuple[int, ...], Fraction]

    @staticmethod
    def const(nvars: int, value) -> "Poly":
        c = _as_fraction(value)
        return Poly(nvars, {} if c == 0 else {(0,) * nvars: c})

    @staticmethod
    def var(nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        e = [0] * nvars
        e[index] = 1
        return Poly(nvars, {tuple(e): Fraction(1)})

    @staticmethod
    def from_terms(nvars: int, terms) -> "Poly":
        acc: dict[tuple[int, ...], Fraction] = {}
        for coef, exps in terms:
            exps = tuple(_as_int(e, "exponent") for e in exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has wrong length, expected {nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = acc.get(exps, Fraction(0)) + _as_fraction(coef)
            if c == 0:
                acc.pop(exps, None)
            else:
                acc[exps] = c
        return Poly(nvars, acc)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly") -> "Poly":
        acc = dict(self.terms)
        for e, c in other.terms.items():
            s = acc.get(e, Fraction(0)) + c
            if s == 0:
                acc.pop(e, None)
            else:
                acc[e] = s
        return Poly(self.nvars, acc)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        acc: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = acc.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    acc.pop(e, None)
                else:
                    acc[e] = s
        return Poly(self.nvars, acc)

    def scale(self, value) -> "Poly":
        c = _as_fraction(value)
        if c == 0:
            return Poly(self.nvars, {})
        return Poly(self.nvars, {e: c * co for e, co in self.terms.items()})

    def diff(self, var: int) -> "Poly":
        acc: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            if e[var] == 0:
                continue
            ne = list(e)
            ne[var] -= 1
            acc[tuple(ne)] = c * e[var]
        return Poly(self.nvars, acc)

    def eval(self, point: tuple[Fraction, ...]) -> Fraction:
        """The exact value at a point of rationals.  Each term is an unreduced
        pair of integers, so the sum is reduced once, not after every term."""
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.nvars}")
        num, den = 0, 1
        for e, c in self.terms.items():
            term_num = c.numerator * math.prod(p.numerator**k for p, k in zip(point, e) if k)
            term_den = c.denominator * math.prod(p.denominator**k for p, k in zip(point, e) if k)
            if term_den == den:
                num += term_num
            else:
                num, den = num * term_den + term_num * den, den * term_den
        return Fraction(num, den)

    def to_json_terms(self) -> list:
        items = sorted(self.terms.items())
        return [[str(c), list(e)] for e, c in items]


@dataclass(frozen=True)
class RationalField:
    """Quotient of two polynomials; the denominator must not vanish on the
    domain where the field is used (charts check this by grid sampling)."""

    num: Poly
    den: Poly

    def __post_init__(self):
        if self.num.nvars != self.den.nvars:
            raise ValueError("numerator and denominator must share variables")
        if self.den.is_zero:
            raise ZeroDivisionError("denominator polynomial is identically zero")

    @staticmethod
    def const(nvars: int, value) -> "RationalField":
        return RationalField(Poly.const(nvars, value), Poly.const(nvars, 1))

    @staticmethod
    def from_poly(p: Poly) -> "RationalField":
        return RationalField(p, Poly.const(p.nvars, 1))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "RationalField") -> "RationalField":
        if self.den == other.den:
            return RationalField(self.num + other.num, self.den)
        return RationalField(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def scale(self, value) -> "RationalField":
        return RationalField(self.num.scale(value), self.den)

    def eval(self, point: tuple[Fraction, ...]) -> Fraction:
        den = self.den.eval(point)
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at {tuple(map(float, point))}")
        return self.num.eval(point) / den
