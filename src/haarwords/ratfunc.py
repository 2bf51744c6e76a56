"""Exact univariate polynomials and rational functions over Q.

Everything here is Fraction-based; no floating point.  Rational functions
are kept normalized (coprime numerator/denominator, monic denominator) so
that equal values have identical representations and serialize to
canonical strings.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ValidationError(f"exact arithmetic needs int or Fraction, got {type(x).__name__}")


class Polynomial:
    """Dense polynomial, coefficients ascending by power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def x(cls):
        return cls((0, 1))

    @property
    def degree(self):
        """Degree, with the zero polynomial by convention -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def order_at_zero(self):
        """Index of the lowest nonzero coefficient; inf for the zero poly."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return math.inf

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else Polynomial((-_as_fraction(other),)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValidationError("negative polynomial power")
        result = Polynomial((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self, order=1):
        p = self
        for _ in range(order):
            p = Polynomial(tuple(c * i for i, c in enumerate(p.coeffs) if i > 0))
        return p

    def monic(self):
        if self.is_zero():
            return self
        lc = self.leading()
        return Polynomial(tuple(c / lc for c in self.coeffs))

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        if len(rem) - 1 < dd:
            return Polynomial(), self
        quot = [Fraction(0)] * (len(rem) - dd)
        inv_lc = 1 / div[-1]
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i] * inv_lc
            if c != 0:
                quot[i - dd] = c
                for j in range(dd + 1):
                    rem[i - dd + j] -= c * div[j]
        return Polynomial(quot), Polynomial(rem)

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def to_json(self):
        return [str(c) for c in self.coeffs]

    def __repr__(self):
        if self.is_zero():
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "Polynomial(" + " + ".join(terms) + ")"


class RationalFunction:
    """Quotient of two Polynomials, normalized coprime with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = Polynomial((num,))
        if den is None:
            den = Polynomial((1,))
        elif isinstance(den, (int, Fraction)):
            den = Polynomial((den,))
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = Polynomial(), Polynomial((1,))
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lc = den.leading()
            if lc != 1:
                num = num * (1 / lc)
                den = den * (1 / lc)
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self):
        if not self.is_constant():
            raise ValidationError("rational function is not constant")
        return self.num.leading() if not self.num.is_zero() else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RationalFunction(other) / self

    def __call__(self, x):
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / d

    def valuation_at_infinity(self):
        """deg(den) - deg(num); decay exponent at infinity.  inf if zero."""
        if self.num.is_zero():
            return math.inf
        return self.den.degree - self.num.degree

    def order_at_zero(self):
        if self.num.is_zero():
            return math.inf
        return self.num.order_at_zero() - self.den.order_at_zero()

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __repr__(self):
        return f"RationalFunction({self.num!r} / {self.den!r})"


def solve_exact(rows, rhs):
    """Solve a square linear system exactly by fraction-free (Bareiss)
    Gaussian elimination.

    Rows are scaled to integers first; pivoting picks the first nonzero
    entry.  Returns the solution as a list of Fractions.
    """
    m = len(rows)
    if any(len(r) != m for r in rows) or len(rhs) != m:
        raise ValidationError("system is not square")
    aug = []
    for row, b in zip(rows, rhs):
        vals = [Fraction(v) for v in row] + [Fraction(b)]
        scale = math.lcm(*(v.denominator for v in vals))
        aug.append([int(v * scale) for v in vals])

    prev = 1
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if piv is None:
            raise ValidationError("singular linear system")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, m):
            factor = aug[r][col]
            for c in range(col, m + 1):
                aug[r][c] = (aug[r][c] * pivot - factor * aug[col][c]) // prev
        prev = pivot

    sol = [Fraction(0)] * m
    for i in range(m - 1, -1, -1):
        acc = Fraction(aug[i][m])
        for j in range(i + 1, m):
            acc -= aug[i][j] * sol[j]
        sol[i] = acc / aug[i][i]
    return sol
