"""Exact scalars: big rationals, sparse integer polynomials and formal quotients.

Numeric work runs on stdlib `fractions.Fraction` (lowest terms, positive
denominator), symbolic work on `Polynomial` (sparse multivariate, integer
coefficients, canonical term map) and, where a statement divides, on
`Quotient`, a numerator over a multiset of polynomial factors.  Matrix code
and identity builders are generic over these scalars.  A rational enters a
polynomial only when it is an integer; any other rational meets one only as
a `Quotient`, the constant numerator over its denominator.  A `Polynomial`
is integral, as an `int` is, so clearing takes it.  A `Quotient` has a
`numerator` and a `denominator`, so row builders take it; `clear_rows` does not.

A monomial is one packed `int` with a fixed SLOT_BITS-bit slot per variable,
variable 0 in the lowest slot: equal monomials are equal ints however far the
variable table has grown since, and multiplying two monomials is one integer
add.  The top bit of every slot is a guard, so an exponent may be at most
EXPONENT_CAP; a product whose sum sets a guard bit raises ExponentCapError
instead of carrying into the next variable.  Exponents are unpacked only to
print, order or divide.  `dot` sums products in one term map; `*` is one pair.
"""

from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from operator import add, mul, or_

SLOT_BITS = 32
EXPONENT_CAP = (1 << (SLOT_BITS - 1)) - 1
_SLOT_MASK = (1 << SLOT_BITS) - 1


class ExactDivisionError(ArithmeticError):
    """Polynomial division was requested but the divisor does not divide exactly."""


class ExponentCapError(OverflowError):
    """An exponent would exceed EXPONENT_CAP, the largest one a monomial slot holds."""


@cache
def _guards(nvars):
    """The guard bit of each of the first nvars slots."""
    return ((1 << (SLOT_BITS * nvars)) - 1) // _SLOT_MASK << (SLOT_BITS - 1)


def _pack(exps):
    """Packed monomial of an exponent sequence, each exponent in 0..EXPONENT_CAP."""
    key = 0
    for var, exp in enumerate(exps):
        key |= exp << (SLOT_BITS * var)
    return key


def _unpack(key):
    """Exponent tuple of a packed monomial, trailing zeros stripped."""
    exps = []
    while key:
        exps.append(key & _SLOT_MASK)
        key >>= SLOT_BITS
    return tuple(exps)


def _grlex(key):
    """Graded-lex sort key; plain tuple comparison matches padded comparison
    because unpacked tuples never end in zero."""
    exps = _unpack(key)
    return (sum(exps), exps)


def _slot_sub(a, b, guards):
    """Packed a / b (slot-wise a - b), or None if b does not divide a.

    Setting every guard bit of a first absorbs any borrow inside its slot,
    so a guard bit survives exactly where b's exponent is at most a's.
    """
    d = (a | guards) - b
    return d ^ guards if d & guards == guards else None


def _max_exponents(terms, nvars):
    """Per-variable maximum exponent over the monomials of a term map."""
    top = [0] * nvars
    for key in terms:
        for var, exp in enumerate(_unpack(key)):
            if exp > top[var]:
                top[var] = exp
    return top


def _dot(table, pairs):
    """The Polynomial of `table` summing a * b over pairs (a, b) of term maps, in one map."""
    near_cap = _guards(len(table)) * 3 >> 1  # the top two bits of every slot
    out = {}
    get = out.get
    dropped = 0
    for a, b in pairs:
        if 1 < len(a) < len(b) or len(b) <= 1 < len(a):  # inner: the smaller, unless 0 or 1 term
            a, b = b, a
        # near the cap, check degrees: a variable's top degree never cancels in a product
        if (reduce(or_, a, 0) | reduce(or_, b, 0)) & near_cap:
            worst = max(map(add, _max_exponents(a, len(table)), _max_exponents(b, len(table))))
            if worst > EXPONENT_CAP:
                raise ExponentCapError(f"exponent {worst} exceeds the cap {EXPONENT_CAP}")
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = e1 + e2
                acc = get(key)
                if acc is None:
                    out[key] = c1 * c2
                else:
                    acc = acc + c1 * c2
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
                        dropped += 1
    # a dict keeps its largest table: compact it when many keys cancelled
    if 4 * dropped > len(out):
        out = dict(out)
    return Polynomial(table, out)


def dot(pairs):
    """Sum of a * b over `pairs` of Polynomials of one table and integers, in one term map."""
    table = next((x.table for pair in pairs for x in pair if isinstance(x, Polynomial)), None)
    lift = Polynomial(table, {})._coerce  # ValueError for another table, None for a non-integer
    lifted = [(lift(a), lift(b)) for a, b in pairs]
    if table is None or any(a is None or b is None for a, b in lifted):
        raise TypeError("dot takes Polynomials of one table and integers, at least one Polynomial")
    return _dot(table, [(a.terms, b.terms) for a, b in lifted])


def _coeff(value):
    """An int or an integral Fraction as an int; None for any other value."""
    if type(value) is int:
        return value
    if isinstance(value, (int, Fraction)) and value.denominator == 1:
        return int(value)
    return None


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

    def name(self, vid):
        return self.names[vid]

    def gens(self):
        """One generator polynomial per variable, in id order."""
        return [Polynomial.variable(self, vid) for vid in range(len(self.names))]

    def __len__(self):
        return len(self.names)

    def __repr__(self):
        return f"VariableTable({self.names!r})"


class Polynomial:
    """Sparse multivariate polynomial over the integers with a canonical term map.

    `terms` maps packed monomials to nonzero int coefficients; the
    constructor takes it as given, since every operation builds its result
    map canonical.  The zero polynomial has an empty term map, so ``==`` on
    the term maps is semantic equality.  It is integral, as an `int` is:
    its `numerator` is itself and its `denominator` is 1.
    """

    __slots__ = ("table", "terms")
    numerator = property(lambda self: self)
    denominator = 1

    def __init__(self, table, terms):
        self.table = table
        self.terms = terms

    @classmethod
    def zero(cls, table):
        return cls(table, {})

    @classmethod
    def const(cls, table, value):
        coeff = _coeff(value)
        if coeff is None:
            raise TypeError(f"polynomial coefficients are integers, got {value!r}")
        return cls(table, {0: coeff} if coeff else {})

    @classmethod
    def variable(cls, table, vid):
        if not 0 <= vid < len(table):
            raise IndexError(f"variable id {vid} outside table")
        return cls(table, {1 << (SLOT_BITS * vid): 1})

    def _coerce(self, other):
        """other as a Polynomial of this table, or None if it is not an integer."""
        if isinstance(other, Polynomial):
            if other.table is not self.table:
                raise ValueError("polynomials from different variable tables")
            return other
        value = _coeff(other)
        if value is None:
            return None
        return Polynomial(self.table, {0: value} if value else {})

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
        return Polynomial(self.table, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.table, {k: -c for k, c in self.terms.items()})

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
        if not isinstance(other, Polynomial):
            other = _coeff(other)
            if other is None:
                return NotImplemented
            if not other:
                return Polynomial(self.table, {})
            if other == 1:  # operands are never mutated, so the result may be self
                return self
            return Polynomial(self.table, {k: c * other for k, c in self.terms.items()})
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return Polynomial(self.table, {})
        return _dot(self.table, [(self.terms, other.terms)])

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
        return Quotient(self) / other

    def __rtruediv__(self, other):
        other = Quotient(self)._lift(other)
        return NotImplemented if other is None else other / self

    def __floordiv__(self, other):
        return self.exact_div(other)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            if other.table is not self.table:
                raise ValueError("polynomials from different variable tables")
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if not self.terms:
                return other == 0
            if len(self.terms) == 1 and 0 in self.terms:
                return self.terms[0] == other
            return False
        return NotImplemented

    __hash__ = None

    def exact_div(self, other):
        """Exact quotient self/other in Z[x]; raises ExactDivisionError if inexact.

        Cancels leading terms in the order of the packed ints (lex with the
        last variable most significant, a monomial order), keeping the
        remainder in one dict and its monomials in a max-heap, so each step
        costs one pass over the divisor.  When other genuinely divides self,
        the divisor's leading monomial divides every intermediate leading
        monomial, its leading coefficient divides every intermediate leading
        coefficient, and every quotient monomial lies in the box
        deg_i(self) - deg_i(other) per variable; any failure of these
        means the division is inexact.  The box also keeps every remainder
        monomial within self's degrees, so no slot can overflow.
        """
        other = self._coerce(other)
        if other is None:
            raise TypeError("exact division needs an integer or a Polynomial divisor")
        if not other.terms:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.terms:
            return Polynomial(self.table, {})
        nvars = len(self.table)
        guards = _guards(nvars)
        top = [
            a - b
            for a, b in zip(_max_exponents(self.terms, nvars), _max_exponents(other.terms, nvars))
        ]
        if min(top, default=0) < 0:
            raise ExactDivisionError("inexact polynomial division")
        box = _pack(top)
        lead = max(other.terms)
        lead_coeff = other.terms[lead]
        tail = [(k, c) for k, c in other.terms.items() if k != lead]
        rem = dict(self.terms)
        heap = [-k for k in rem]
        heapify(heap)
        quotient = {}
        while rem:
            key = -heappop(heap)
            coeff = rem.pop(key, None)
            if coeff is None:
                continue
            q = _slot_sub(key, lead, guards)
            qc, r = divmod(coeff, lead_coeff)
            if q is None or r or _slot_sub(box, q, guards) is None:
                raise ExactDivisionError("inexact polynomial division")
            quotient[q] = qc
            for k, c in tail:
                k += q
                acc = rem.get(k)
                if acc is None:
                    rem[k] = -qc * c
                    heappush(heap, -k)
                else:
                    acc = acc - qc * c
                    if acc:
                        rem[k] = acc
                    else:
                        del rem[k]
        return Polynomial(self.table, quotient)

    def text(self):
        """Canonical text form: graded-lex terms joined by " + ", coef*var^exp factors."""
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=_grlex, reverse=True)
        rendered = []
        for key in keys:
            factors = [str(self.terms[key])]
            for var, exp in enumerate(_unpack(key)):
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


class Quotient:
    """A formal quotient num / prod(factor^mult) of Polynomials, never cancelled.

    `den` counts factors by term map.  A sum takes the union of the operands'
    factors, a product adds multiplicities, and equality compares numerators.
    Its `numerator` is `num`; its `denominator` multiplies out the factors.
    A rational p/q that is not an integer enters as the constant p over the
    constant factor q; dividing by one whose p is 1 or -1 adds no factor.
    """

    __slots__ = ("num", "den")
    numerator = property(lambda self: self.num)

    def __init__(self, num, den=None):
        self.num = num
        self.den = den or Counter()

    def factors(self):
        """[(factor, multiplicity)] for the distinct factors of the denominator."""
        return [(Polynomial(self.num.table, dict(key)), m) for key, m in self.den.items()]

    @property
    def denominator(self):
        powers = [factor**m for factor, m in self.factors()]
        return reduce(mul, powers) if powers else 1

    def _cleared(self):
        return self.num * self.denominator if self.den else self.num

    def _over(self, other):
        """The numerator over the union of both operands' factors."""
        return Quotient(self.num, other.den - self.den)._cleared()

    def _lift(self, other):
        if isinstance(other, Quotient):
            return other
        if isinstance(other, Fraction) and other.denominator != 1:
            return self._lift(other.numerator) / other.denominator
        other = self.num._coerce(other)
        return None if other is None else Quotient(other)

    def __bool__(self):
        return bool(self.num)

    def __neg__(self):
        return Quotient(-self.num, self.den)

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return Quotient(self._over(other) + other._over(self), self.den | other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return Quotient(self.num * other.num, self.den + other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero")
        num = Quotient(self.num, other.den)._cleared()
        if other.num.terms in ({0: 1}, {0: -1}):
            return Quotient(num * other.num.terms[0], self.den)
        return Quotient(num, self.den + Counter([frozenset(other.num.terms.items())]))

    def __eq__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self._over(other) == other._over(self)

    __hash__ = None


def random_rational(rng, bound):
    """Uniform random Fraction: numerator in [-bound, bound], denominator in [1, bound].

    Canonicalization is inherent to Fraction.  Deterministic given the rng state.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
