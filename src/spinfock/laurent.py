"""Exact arithmetic for integer Laurent polynomials in q, plain and packed.

LaurentPoly is a sparse {exponent: nonzero int} map of plain ints.  pack,
packed_terms, unpack and exact_quotient hold a polynomial as (e0, x, n) at
a digit width b, first DIGIT_BITS (README, "Design"); a column under
construction is a plain dict of cells [e0, x, n] that add_scaled sums a
column's (scalar, terms) pairs into, in_qzq places in qZ[q] without
decoding, and freeze normalizes.  Each decoder, freeze and exact_quotient
included, raises CoefficientBoundError once the carried bound n reaches
2^(b-1), and never guesses; no packed function does LaurentPoly arithmetic.
"""

from __future__ import annotations

from operator import index

DIGIT_BITS = 32         # B, the first width of a packed digit


class ExactDivisionError(ArithmeticError):
    """A supposedly exact polynomial division left a remainder."""


class CoefficientBoundError(ArithmeticError):
    """A packed coefficient's carried bound reached 2^(b-1) at digit width b.

    Its balanced digits might then no longer be its coefficients, so the
    packed value cannot be read back.  The message names the row label.
    """

    def __init__(self, bound, row, b):
        super().__init__(f"row {row}: carried coefficient bound {bound} "
                         f">= 2^{b - 1}")


class LaurentPoly:
    """Sparse Laurent polynomial in q: a map {exponent: nonzero int}.

    A non-integral exponent or coefficient raises TypeError."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        if coeffs:
            self._c = {index(e): index(a) for e, a in coeffs.items() if a}
        else:
            self._c = {}

    def coefficient(self, exponent: int) -> int:
        return self._c.get(exponent, 0)

    def coeffs(self) -> dict:
        return dict(self._c)

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __neg__(self):
        return LaurentPoly({e: -a for e, a in self._c.items()})

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for e, a in other._c.items():
            _accumulate(c, e, a)
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = {}
        for e1, a1 in self._c.items():
            for e2, a2 in other._c.items():
                _accumulate(c, e1 + e2, a1 * a2)
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __rmul__ = __mul__

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by q**k."""
        return LaurentPoly({e + k: a for e, a in self._c.items()})

    def bar(self) -> "LaurentPoly":
        """The involution q -> 1/q (exponent negation)."""
        return LaurentPoly({-e: a for e, a in self._c.items()})

    def at_one(self) -> int:
        """Evaluate at q = 1, i.e. the coefficient sum."""
        return sum(self._c.values())

    def exact_div(self, divisor) -> "LaurentPoly":
        """Divide exactly, raising ExactDivisionError on any remainder.

        Long division from the top exponent; the quotient of an exact
        division has exponents between min(self)-min(d) and max(self)-max(d),
        which bounds the loop.
        """
        divisor = _coerce(divisor)
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self._c:
            return ZERO
        dmax = max(divisor._c)
        dlead = divisor._c[dmax]
        floor = min(self._c) - min(divisor._c)
        num = dict(self._c)
        quo = {}
        while num:
            nmax = max(num)
            e = nmax - dmax
            if e < floor:
                raise ExactDivisionError(f"{self} is not divisible by {divisor}")
            c, r = divmod(num[nmax], dlead)
            if r:
                raise ExactDivisionError(f"{self} is not divisible by {divisor}")
            quo[e] = c
            for de, da in divisor._c.items():
                _accumulate(num, de + e, -da * c)
        return LaurentPoly(quo)

    def to_json(self) -> dict:
        """Render as {exponent-string: coefficient} with signed decimal keys."""
        return {str(e): self._c[e] for e in sorted(self._c)}

    @classmethod
    def from_json(cls, obj: dict) -> "LaurentPoly":
        return cls({int(e): int(a) for e, a in obj.items()})

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c):
            a = self._c[e]
            if e == 0:
                term = str(abs(a))
            else:
                var = "q" if e == 1 else f"q^{e}"
                term = var if abs(a) == 1 else f"{abs(a)}{var}"
            if not parts:
                parts.append(term if a > 0 else "-" + term)
            else:
                parts.append(("+" if a > 0 else "-") + term)
        return "".join(parts)

    def __repr__(self):
        items = ", ".join(f"{e}: {self._c[e]}" for e in sorted(self._c))
        return f"LaurentPoly({{{items}}})"


def pack(p: LaurentPoly, b: int) -> tuple:
    """The packed (e0, x, n) of p at digit width b: e0 its least exponent
    (0 for zero), n its exact l1 norm.  Exact for coefficients of any size;
    only `unpack` needs them small."""
    c = p._c
    if not c:
        return 0, 0, 0
    e0 = min(c)
    return (e0, sum(a << (b * (e - e0)) for e, a in c.items()),
            sum(map(abs, c.values())))


def _digits(x: int, b: int) -> list:
    """The balanced base-2^b digits of x, each in [-2^(b-1), 2^(b-1)),
    lowest first; x == sum(d << (b * k) for k, d in enumerate(digits))."""
    half, full, mask = 1 << (b - 1), 1 << b, (1 << b) - 1
    out = []
    while x:
        d = x & mask
        if d >= half:
            d -= full
        out.append(d)
        x = (x - d) >> b
    return out


def packed_terms(c, b: int, row=None) -> list:
    """The nonzero (exponent, coefficient) pairs of a packed (e0, x, n) at
    width b, refused unless n < 2^(b-1): the one decoder of packed digits."""
    e0, x, n = c
    if n >= 1 << (b - 1):
        raise CoefficientBoundError(n, row, b)
    return [(e0 + k, d) for k, d in enumerate(_digits(x, b)) if d]


def unpack(c, b: int, row=None) -> LaurentPoly:
    """The LaurentPoly of a packed (e0, x, n) at digit width b."""
    out = LaurentPoly.__new__(LaurentPoly)
    out._c = dict(packed_terms(c, b, row))
    return out


def exact_quotient(c, d, b: int, row=None) -> tuple:
    """c / d for c and d packed at width b, d's bound its exact l1 norm,
    as one divmod.

    Integer divisibility alone proves nothing about the polynomials, so the
    quotient's digits are checked too: if every |coefficient of c| and
    max|digit of Q| * ||d||_1 lie below 2^(b-1), then d * Q and c have
    the same small-digit encoding and so are equal.  A quotient whose
    digits cannot prove this raises CoefficientBoundError, like every other
    packed read, and a remainder raises ExactDivisionError.
    """
    e, x, n = c
    d0, y, dn = d
    half = 1 << (b - 1)
    if n >= half:
        raise CoefficientBoundError(n, row, b)
    quo, rem = divmod(x, y)
    if rem:
        raise ExactDivisionError(f"{unpack(c, b)} is not divisible by "
                                 f"{unpack(d, b)}")
    digits = _digits(quo, b)
    bound = max(map(abs, digits), default=0) * dn
    if bound >= half:
        raise CoefficientBoundError(bound, row, b)
    return e - d0, quo, sum(map(abs, digits))


def add_scaled(cells, pairs, b) -> None:
    """cells[key] += scalar * c for every (key, c) of terms, for every
    (scalar, terms) in pairs, all packed at width b."""
    for (s0, sx, sn), terms in pairs:
        for key, (e, x, n) in terms:
            _add_cell(cells, key, e + s0, sx * x, sn * n, b)


def _add_cell(cells, key, e, x, n, b):
    """cells[key] += the packed (e, x, n), digits of width b."""
    cell = cells.get(key)
    if cell is None:
        cells[key] = [e, x, n]
        return
    d = e - cell[0]
    if d >= 0:
        cell[1] += x << (b * d)
    else:
        cell[1] = x + (cell[1] << (-b * d))
        cell[0] = e
    cell[2] += n


def freeze(cells, b, keys=None, values=None) -> dict:
    """{key: (e0, x, n)} of cells at width b: zeros dropped, e0 the least
    exponent, and a bound that has passed 2^(b/2) tightened to the exact l1
    norm by decoding, so products in the next degree start small.

    Given the tables keys ({key: key}) and values ({(e0, x): entry}, all at
    width b), each key and entry is drawn from them: an equal key already
    there is used, and so is the entry for the same (e0, x) unless its
    bound is looser, in which case the new entry replaces it."""
    half, tight = 1 << (b - 1), 1 << (b // 2)
    out = {}
    for key, (e, x, n) in cells.items():
        if n >= half:
            raise CoefficientBoundError(n, key, b)
        if x:
            low = ((x & -x).bit_length() - 1) // b
            if low:
                e += low
                x >>= b * low
            if n >= tight:
                n = sum(map(abs, _digits(x, b)))
            entry = (e, x, n)
            if values is not None:
                key = keys.setdefault(key, key)
                held = values.get((e, x))
                if held is not None and held[2] <= n:
                    entry = held
                else:
                    values[e, x] = entry
            out[key] = entry
    return out


def in_qzq(cell, b) -> bool:
    """Whether the cell (e0, x, n) at width b lies in qZ[q] (symmetrize_tail
    of it is 0) undecoded: n < 2^(b-1), so its digits are its coefficients,
    and x is 0 or its lowest digit (freeze's rule) has an exponent >= 1."""
    e, x, n = cell
    return n < 1 << (b - 1) and (not x or
                                 e + ((x & -x).bit_length() - 1) // b >= 1)


def _accumulate(out, key, value):
    """out[key] += value, dropping a zero sum; needs no zero of value's type."""
    if key in out:
        value = out[key] + value
    if value:
        out[key] = value
    else:
        out.pop(key, None)


def _coerce(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly({0: x})
    return NotImplemented


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


def generator_scale(i: int, n: int) -> int:
    """Exponent d with q_i = q**d: 1 for the short node i=n, 4 for i=0, else 2."""
    if not 0 <= i <= n:
        raise ValueError(f"color {i} out of range 0..{n}")
    if i == n:
        return 1
    if i == 0:
        return 4
    return 2


def q_integer(k: int, i: int, n: int) -> LaurentPoly:
    """The quantum integer [k]_i, a bar-invariant Laurent polynomial."""
    if k < 0:
        raise ValueError("quantum integers need k >= 0")
    d = generator_scale(i, n)
    return LaurentPoly({d * (k - 1 - 2 * t): 1 for t in range(k)})


def q_factorial(k: int, i: int, n: int) -> LaurentPoly:
    """The quantum factorial [k]_i! = [k]_i [k-1]_i ... [1]_i."""
    if k < 0:
        raise ValueError("quantum factorials need k >= 0")
    generator_scale(i, n)           # refuses a bad colour even for k < 2
    out = ONE
    for j in range(2, k + 1):
        out = out * q_integer(j, i, n)
    return out


def symmetrize_tail(c: LaurentPoly) -> LaurentPoly:
    """Unique bar-invariant g with c - g in qZ[q] (when such g exists).

    g keeps the constant term of c and mirrors every negative-exponent
    coefficient onto the matching positive exponent:
    g = c_0 + sum_{k>0} c_{-k} (q^k + q^-k).
    """
    g = {}
    c0 = c.coefficient(0)
    if c0:
        g[0] = c0
    for e, a in c._c.items():
        if e < 0:
            g[e] = a
            g[-e] = a
    return LaurentPoly(g)
