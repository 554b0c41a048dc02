"""Exact scalars: big rationals and sparse multivariate polynomials.

Everything in this package computes over one of two scalar types: stdlib
`fractions.Fraction` (always in lowest terms, positive denominator) and
`Polynomial` (sparse multivariate, Fraction coefficients, canonical term
map).  Matrix code and identity builders are generic over the two, so a
single construction serves both symbolic expansion and exact evaluation
at random rational points.

Internally a monomial is a dense tuple of exponents with trailing zeros
stripped, so equal monomials are equal tuples no matter how many variables
the table has grown to; the term map is keyed by these tuples directly.
"""

from fractions import Fraction
from operator import add

Rational = Fraction


class MissingVariableError(KeyError):
    """A polynomial was evaluated at a point that misses one of its variables."""


class ExactDivisionError(ArithmeticError):
    """Polynomial division was requested but the divisor does not divide exactly."""


def _strip(exps):
    exps = tuple(exps)
    end = len(exps)
    while end and exps[end - 1] == 0:
        end -= 1
    return exps[:end]


def _mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(add, a, b)) + a[len(b):]


def _mono_div(a, b):
    """a / b as an exponent tuple, or None if b does not divide a."""
    if len(b) > len(a):
        return None
    out = list(a)
    for i, e in enumerate(b):
        out[i] -= e
        if out[i] < 0:
            return None
    return _strip(out)


def _mono_key(exps):
    """Graded-lex sort key; plain tuple comparison matches padded comparison
    because canonical tuples never end in zero."""
    return (sum(exps), exps)


class Monomial:
    """A product of variable powers; the API wrapper around an exponent tuple."""

    __slots__ = ("exps",)

    def __init__(self, exponents=()):
        if isinstance(exponents, dict):
            items = exponents.items()
        else:
            items = tuple(exponents)
        width = max((var for var, _ in items), default=-1) + 1
        exps = [0] * width
        for var, exp in items:
            if exp < 0:
                raise ValueError("monomial exponents must be nonnegative")
            exps[var] += exp
        self.exps = _strip(exps)

    @classmethod
    def _from_exps(cls, exps):
        self = cls.__new__(cls)
        self.exps = exps
        return self

    def degree(self):
        return sum(self.exps)

    def exponent(self, var):
        return self.exps[var] if 0 <= var < len(self.exps) else 0

    def exponents(self):
        return {var: exp for var, exp in enumerate(self.exps) if exp}

    def mul(self, other):
        return Monomial._from_exps(_mono_mul(self.exps, other.exps))

    def dense_key(self, nvars):
        return self.exps + (0,) * (nvars - len(self.exps))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return f"Monomial({self.exponents()!r})"


class VariableTable:
    """Registry mapping variable names to dense ids 0..n-1 in registration order."""

    def __init__(self, names=()):
        self.names = []
        self._ids = {}
        for name in names:
            self.add(name)

    def add(self, name):
        if name in self._ids:
            raise ValueError(f"duplicate variable {name!r}")
        vid = len(self.names)
        self.names.append(name)
        self._ids[name] = vid
        return vid

    def add_vector(self, prefix, count):
        """Register prefix1..prefixN and return the list of ids."""
        return [self.add(f"{prefix}{i + 1}") for i in range(count)]

    def id(self, name):
        return self._ids[name]

    def name(self, vid):
        return self.names[vid]

    def gens(self):
        """One generator polynomial per variable, in id order."""
        return [Polynomial.variable(self, vid) for vid in range(len(self.names))]

    def __len__(self):
        return len(self.names)

    def __repr__(self):
        return f"VariableTable({self.names!r})"


def _as_key(mono):
    if isinstance(mono, Monomial):
        return mono.exps
    return _strip(mono)


class Polynomial:
    """Sparse multivariate polynomial over Fraction with a canonical term map.

    The zero polynomial has an empty term map; no term ever stores a zero
    coefficient, so ``==`` on the term maps is semantic equality.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table, terms=None):
        self.table = table
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if coeff:
                    clean[_as_key(mono)] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, table, terms):
        self = cls.__new__(cls)
        self.table = table
        self.terms = terms
        return self

    @classmethod
    def zero(cls, table):
        return cls._raw(table, {})

    @classmethod
    def const(cls, table, value):
        value = value if isinstance(value, Fraction) else Fraction(value)
        return cls._raw(table, {(): value} if value else {})

    @classmethod
    def variable(cls, table, vid):
        if not 0 <= vid < len(table):
            raise IndexError(f"variable id {vid} outside table")
        return cls._raw(table, {(0,) * vid + (1,): Fraction(1)})

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.table is not self.table:
                raise ValueError("polynomials from different variable tables")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(self.table, other)
        return None

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        get = out.get
        for key, coeff in other.terms.items():
            acc = get(key)
            if acc is None:
                out[key] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return Polynomial._raw(self.table, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.table, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                return Polynomial._raw(self.table, {})
            return Polynomial._raw(
                self.table, {k: c * other for k, c in self.terms.items()}
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return Polynomial._raw(self.table, {})
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = {}
        get = out.get
        for e1, c1 in a.items():
            l1 = len(e1)
            for e2, c2 in b.items():
                if not e2:
                    key = e1
                elif not e1:
                    key = e2
                elif l1 >= len(e2):
                    key = tuple(map(add, e1, e2)) + e1[len(e2):]
                else:
                    key = tuple(map(add, e1, e2)) + e2[l1:]
                coeff = c1 * c2
                acc = get(key)
                if acc is None:
                    out[key] = coeff
                else:
                    acc = acc + coeff
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
        return Polynomial._raw(self.table, out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.const(self.table, 1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            if other.table is not self.table:
                raise ValueError("polynomials from different variable tables")
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if not self.terms:
                return Fraction(other) == 0
            if len(self.terms) == 1 and () in self.terms:
                return self.terms[()] == other
            return False
        return NotImplemented

    __hash__ = None

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(k) for k in self.terms)

    def _lead(self):
        key = max(self.terms, key=_mono_key)
        return key, self.terms[key]

    def leading_term(self):
        """(monomial, coefficient) maximal in graded lexicographic order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key, coeff = self._lead()
        return Monomial._from_exps(key), coeff

    def coefficient(self, mono):
        """Exact coefficient of a monomial, zero if absent."""
        return self.terms.get(_as_key(mono), Fraction(0))

    def evaluate(self, point):
        """Exact value at a map var-id -> Fraction; raises MissingVariableError."""
        total = Fraction(0)
        for key, coeff in self.terms.items():
            value = coeff
            for var, exp in enumerate(key):
                if not exp:
                    continue
                if var not in point:
                    raise MissingVariableError(self.table.name(var))
                value = value * point[var] ** exp
            total += value
        return total

    def exact_div(self, other):
        """Exact quotient self/other; raises ExactDivisionError if inexact.

        Repeatedly cancels leading terms in graded-lex order.  When other
        genuinely divides self, the divisor's leading monomial divides every
        intermediate leading monomial, so the loop terminates with zero
        remainder; any failure along the way means the division is inexact.
        """
        other = self._coerce(other)
        if other is None or not other.terms:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.terms:
            return Polynomial._raw(self.table, {})
        div_key, div_coeff = other._lead()
        quotient = {}
        rem = self
        while rem.terms:
            key, coeff = rem._lead()
            q = _mono_div(key, div_key)
            if q is None:
                raise ExactDivisionError("inexact polynomial division")
            qc = coeff / div_coeff
            quotient[q] = quotient.get(q, Fraction(0)) + qc
            rem = rem - Polynomial._raw(self.table, {q: qc}) * other
        return Polynomial(self.table, quotient)

    def text(self):
        """Canonical text form: graded-lex terms joined by " + ", coef*var^exp factors."""
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=_mono_key, reverse=True)
        rendered = []
        for key in keys:
            factors = [str(self.terms[key])]
            for var, exp in enumerate(key):
                if not exp:
                    continue
                name = self.table.name(var)
                factors.append(name if exp == 1 else f"{name}^{exp}")
            rendered.append("*".join(factors))
        return " + ".join(rendered)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"Polynomial({self.text()})"


def random_rational(rng, bound):
    """Uniform random Fraction: numerator in [-bound, bound], denominator in [1, bound].

    Canonicalization is inherent to Fraction.  Deterministic given the rng state.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
