"""Exact arithmetic for integer Laurent polynomials in q.

Every matrix entry and scalar downstream is one of these.  Coefficients are
plain Python ints, so nothing ever overflows; the zero polynomial is the
empty coefficient map.
"""

from __future__ import annotations


class ExactDivisionError(ArithmeticError):
    """A supposedly exact polynomial division left a remainder."""


class LaurentPoly:
    """Sparse Laurent polynomial in q: a map {exponent: nonzero int}."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        if coeffs:
            self._c = {int(e): int(a) for e, a in coeffs.items() if a}
        else:
            self._c = {}

    @classmethod
    def const(cls, a: int) -> "LaurentPoly":
        return cls({0: a})

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

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __neg__(self):
        return LaurentPoly({e: -a for e, a in self._c.items()})

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for e, a in other._c.items():
            v = c.get(e, 0) + a
            if v:
                c[e] = v
            elif e in c:
                del c[e]
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
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = {}
        for e1, a1 in self._c.items():
            for e2, a2 in other._c.items():
                e = e1 + e2
                v = c.get(e, 0) + a1 * a2
                if v:
                    c[e] = v
                elif e in c:
                    del c[e]
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

    def in_z_of_q(self) -> bool:
        """True when no negative exponent occurs (element of Z[q])."""
        return min(self._c, default=0) >= 0

    def in_q_z_of_q(self) -> bool:
        """True when all exponents are >= 1 (element of qZ[q])."""
        return min(self._c, default=1) >= 1

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
                ne = de + e
                v = num.get(ne, 0) - da * c
                if v:
                    num[ne] = v
                elif ne in num:
                    del num[ne]
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


class PolyAccumulator:
    """Mutable map {key: Laurent polynomial} that sums products in place.

    While terms are added the coefficients stay raw {exponent: int} maps,
    so a long run of multiply-adds allocates no LaurentPoly; zeros are
    pruned only when a coefficient is read or the map is frozen.
    """

    __slots__ = ("_raw",)

    def __init__(self):
        self._raw = {}

    def add_scaled(self, scalar: LaurentPoly, terms) -> None:
        """self[key] += scalar * poly for every (key, poly) in terms."""
        raw = self._raw
        sc = scalar._c.items()
        for key, poly in terms:
            c = raw.get(key)
            if c is None:
                c = raw[key] = {}
            for e2, a2 in poly._c.items():
                for e1, a1 in sc:
                    e = e1 + e2
                    c[e] = c.get(e, 0) + a1 * a2

    def coefficient(self, key) -> LaurentPoly:
        c = self._raw.get(key)
        return _pruned(c) if c else ZERO

    def freeze(self) -> dict:
        """{key: LaurentPoly} with zero coefficients dropped."""
        out = {}
        for key, c in self._raw.items():
            poly = _pruned(c)
            if poly:
                out[key] = poly
        return out


def _pruned(raw: dict) -> LaurentPoly:
    out = LaurentPoly.__new__(LaurentPoly)
    out._c = {e: a for e, a in raw.items() if a}
    return out


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
