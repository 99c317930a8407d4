"""The q-deformed Fock space: wedge words, straightening, generator actions.

A FockVector maps DP_h labels to LaurentPoly coefficients, held packed
and decoded on demand.  apply_f, apply_e, apply_t and apply_f_divided take
DP_h labels only (ValueError from partitions.check_dp_h otherwise) and stay
exact for coefficients and divided powers of any size; an inexact divided
power raises ExactDivisionError.  straighten normal-orders any wedge word
and raises UncoveredDisorderError where no rule applies.
"""

from __future__ import annotations

import functools
from bisect import bisect_left

from .laurent import (CoefficientBoundError, LaurentPoly, ONE, ZERO,
                      _accumulate, _add_cell, exact_quotient, freeze, pack,
                      q_factorial, unpack)
from . import laurent
from . import partitions as pt


class UncoveredDisorderError(RuntimeError):
    """A wedge word needed a commutation rule that is not available.

    The two straightening rules cover every word produced by generator
    actions; hitting this means an internal invariant broke.
    """

    def __init__(self, word):
        self.word = tuple(word)
        super().__init__(f"no straightening rule applies inside {self.word}")


class MixedWeightError(ValueError):
    """A vector whose labels carry different residue contents has no weight."""


UNIT = (0, 1, 1)        # the packed coefficient 1


class FockVector:
    """Finitely supported map {DP_h partition: LaurentPoly}, held packed:
    `rows` in decreasing lex and their normalized (e0, x, n) `entries` at
    digit width `bits` (laurent.pack, laurent.freeze), decoded on demand.

    FockVector(terms) takes LaurentPoly or int coefficients (an int is a
    constant; anything else raises TypeError), drops zeros, keeps labels
    as written, and packs at the narrowest width DIGIT_BITS * 2^k under
    which every coefficient reads back (exact l1 norm < 2^(b-1)).
    """

    __slots__ = ("rows", "entries", "bits")

    def __init__(self, terms=None):
        polys = {}
        for lam, c in (terms or {}).items():
            if isinstance(c, int):
                c = LaurentPoly({0: c})
            elif not isinstance(c, LaurentPoly):
                raise TypeError(f"coefficient of {lam} must be a LaurentPoly "
                                f"or an int, not {type(c).__name__}")
            if c:
                polys[tuple(lam)] = c
        norm = max((sum(map(abs, c._c.values())) for c in polys.values()),
                   default=0)
        b = laurent.DIGIT_BITS
        while norm >= 1 << (b - 1):
            b *= 2
        self._fill({lam: pack(c, b) for lam, c in polys.items()}, b)

    def _fill(self, entries, bits):
        self.rows = tuple(sorted(entries, reverse=True))
        self.entries = tuple(map(entries.__getitem__, self.rows))
        self.bits = bits

    @classmethod
    def packed(cls, entries, bits) -> "FockVector":
        """The vector of {label: normalized (e0, x, n)} at digit width bits,
        its rows sorted once."""
        out = cls.__new__(cls)
        out._fill(entries, bits)
        return out

    @classmethod
    def basis(cls, lam) -> "FockVector":
        """The vector |lam>; the label is kept as written, unchecked."""
        return cls.packed({tuple(lam): UNIT}, laurent.DIGIT_BITS)

    def terms(self) -> list:
        """(label, coefficient) pairs in decreasing lex order of labels."""
        b = self.bits
        return [(lam, unpack(c, b, lam))
                for lam, c in zip(self.rows, self.entries)]

    def least_exponents(self):
        """(label, least exponent of its coefficient) pairs."""
        return [(lam, c[0]) for lam, c in zip(self.rows, self.entries)]

    def coefficient(self, lam) -> LaurentPoly:
        lam, rows = tuple(lam), self.rows
        k = bisect_left(rows, True, key=lam.__ge__)     # the first row <= lam
        if k < len(rows) and rows[k] == lam:
            return unpack(self.entries[k], self.bits, lam)
        return ZERO

    def __len__(self):
        return len(self.rows)

    def __eq__(self, other):
        """Exact equality of the decoded polynomials, at any two widths (an
        unreadable entry raises CoefficientBoundError)."""
        return (isinstance(other, FockVector) and self.rows == other.rows
                and self.terms() == other.terms())

    def __add__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        return self._plus(other.terms())

    def __sub__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        return self._plus((lam, -poly) for lam, poly in other.terms())

    def _plus(self, terms):
        """self + the (label, LaurentPoly) pairs of terms, decoded once."""
        t = dict(self.terms())
        for lam, poly in terms:
            _accumulate(t, lam, poly)
        return FockVector(t)

    def __neg__(self):
        return self.scaled(-ONE)

    def scaled(self, poly) -> "FockVector":
        return FockVector({lam: c * poly for lam, c in self.terms()})

    def at_one(self) -> dict:
        """{label: nonzero c(1)}.  x = sum_k c_k 2^(bk) is c(1) modulo the
        odd 2^b - 1, and the bound n < 2^(b-1) (refused otherwise, as by
        laurent.packed_terms) puts |c(1)| below half of it, so c(1) is the
        balanced residue of x."""
        b = self.bits
        half, odd = 1 << (b - 1), (1 << b) - 1
        out = {}
        for lam, (_, x, n) in zip(self.rows, self.entries):
            if n >= half:
                raise CoefficientBoundError(n, lam, b)
            v = x % odd
            if v:
                out[lam] = v - odd if v >= half else v
        return out

    def __repr__(self):
        body = " + ".join(f"({poly})|{','.join(map(str, lam))}>"
                          for lam, poly in self.terms())
        return body or "0"


def straighten(word, h, rng=None):
    """Reduce a wedge word to canonical form.

    Returns (partition, swap_count) where each swap contributed a factor
    -q^2, or None when the word vanishes.  The two rules: an adjacent equal
    pair dies unless the letter is a multiple of h; an adjacent ascending
    pair (j, j+1) with j = 0 or -1 mod h swaps with the -q^2 factor.  Any
    other disorder raises UncoveredDisorderError.  `rng` randomizes which
    violation is fixed first (the result is order-independent).
    """
    w = list(word)
    swaps = 0
    while True:
        bad = [k for k in range(len(w) - 1)
               if w[k] < w[k + 1] or (w[k] == w[k + 1] and w[k] % h != 0)]
        if not bad:
            break
        k = bad[0] if rng is None else bad[rng.randrange(len(bad))]
        a, b = w[k], w[k + 1]
        if a == b:
            return None
        if b == a + 1 and a % h in (0, h - 1):
            w[k], w[k + 1] = b, a
            swaps += 1
        else:
            raise UncoveredDisorderError(word)
    while w and w[-1] == 0:
        w.pop()
    return tuple(w), swaps


def normal_order(word, h) -> FockVector:
    """Straighten a word into a single signed term (or the zero vector)."""
    res = straighten(word, h)
    if res is None:
        return FockVector()
    key, swaps = res
    sign = -1 if swaps % 2 else 1
    return FockVector({key: LaurentPoly({2 * swaps: sign})})


def _add_term(out, res, c, shift, double, b):
    """out[key] += c q^shift (-q^2)^swaps (q + 1/q if double), res = (key, swaps).

    `out` maps labels to cells and `c` is packed at width b (laurent.pack);
    res None (a vanished word) adds nothing.
    """
    if res is None:
        return
    key, swaps = res
    e, x, n = c
    e += shift + 2 * swaps
    if swaps % 2:
        x = -x
    if double:
        e -= 1
        x += x << (2 * b)
        n += n
    _add_cell(out, key, e, x, n, b)


def _raised(h, lam, k):
    """straighten(lam with letter k raised by one), by the local rule.

    lam must be a DP_h label.  Then only the raised letter j+1 can be out
    of order: it bubbles left through the run of equal letters j, one -q^2
    per swap, and the word vanishes if it then sits next to an equal j+1
    that is not a multiple of h.  The run is nonempty only when j repeats,
    so j = 0 mod h and straighten's swap rule holds.
    """
    j = lam[k]
    p = k
    while p and lam[p - 1] == j:
        p -= 1
    if p and lam[p - 1] == j + 1 and (j + 1) % h:
        return None
    return lam[:p] + (j + 1,) + lam[p:k] + lam[k + 1:], k - p


@functools.cache
def _color_tables(h, i):
    """Per residue j mod h: does f_i raise a letter j, and the exponent of
    q by which t_i scales it (its i-arrows out minus in, times 4 at node 0,
    else 2)."""
    hit = tuple(pt.residue(h, j) == i for j in range(h))
    scale = 4 if i == 0 else 2
    return hit, tuple(scale * (hit[j] - hit[j - 1]) for j in range(h))


def _f_raw(h, i, n, terms, b) -> dict:
    """f_i on {label: (e0, x, n)} packed at width b; returns a new map of
    cells at that width.

    Term k of the action raises letter k by one and twists it by t_i of
    every later letter and of the vacuum: one right-to-left pass per label
    sums that exponent as it goes.  For i = n an extra term appends a part 1
    coming from the vacuum, which vanishes on a last part 1.  Each raised
    word is normal-ordered by the local rule of `_raised`, so every label
    of `terms` must be a DP_h label.
    """
    hit, t_exp = _color_tables(h, i)
    out = {}
    for lam, c in terms.items():
        suffix = 1 if i == n else 0     # the vacuum's t_i
        for k in range(len(lam) - 1, -1, -1):
            j = lam[k] % h
            if hit[j]:
                _add_term(out, _raised(h, lam, k), c, suffix,
                          i == n and j == 0, b)
            suffix += t_exp[j]
        if i == n and (not lam or lam[-1] != 1):
            _add_term(out, (lam + (1,), 0), c, 0, False, b)
    return out


def _e_raw(h, i, n, terms, b) -> dict:
    """e_i on {label: (e0, x, n)} packed at width b, as cells at that
    width; letters left of the acted one pick up 1/t_i."""
    hit, t_exp = _color_tables(h, i)
    out = {}
    for lam, c in terms.items():
        prefix = 0
        for k, j in enumerate(lam):
            if hit[(j - 1) % h]:
                word = lam[:k] + (j - 1,) + lam[k + 1:]
                _add_term(out, straighten(word, h), c, prefix,
                          i == n and j % h == 0, b)
            prefix -= t_exp[j % h]
    return out


@functools.cache
def _packed_factorial(k, i, n, b):
    """pack([k]_i!) at digit width b; its bound is its exact l1 norm."""
    return pack(q_factorial(k, i, n), b)


def _f_divided(h, i, n, k, terms, b) -> dict:
    """f_i^(k) on {DP_h label: (e0, x, n)} packed at width b, as a map of
    normalized packed entries at that width.

    k kernel passes, one freeze (which checks and normalizes every bound),
    then each coefficient divided by [k]_i! as one checked integer division
    (laurent.exact_quotient).
    """
    raw = terms
    for _ in range(k):
        raw = _f_raw(h, i, n, raw, b)
    image = freeze(raw, b)
    if k == 1:
        return image
    fact = _packed_factorial(k, i, n, b)
    return {key: exact_quotient(c, fact, b, key) for key, c in image.items()}


def _act(h, v, image) -> FockVector:
    """The FockVector of image(entries of v at width b, b), every label of
    v checked to be a DP_h partition first.  b starts at v's own width and
    doubles on CoefficientBoundError, v's terms re-packed at each wider b,
    so no input is refused.
    """
    for lam in v.rows:
        pt.check_dp_h(h, lam)
    terms, b = dict(zip(v.rows, v.entries)), v.bits
    while True:
        try:
            return FockVector.packed(freeze(image(terms, b), b), b)
        except CoefficientBoundError:
            b *= 2
            terms = {lam: pack(c, b) for lam, c in v.terms()}


def apply_f(h: int, i: int, v: FockVector) -> FockVector:
    """Lowering operator f_i: one pass of the packed kernel `_f_raw`.

    Every label of v must be a DP_h partition (ValueError otherwise).  Only
    the raised letter can then break the order, so each term is
    straightened by a local rule (see `_raised`).
    """
    n = pt.check_color(h, i)
    return _act(h, v, lambda terms, b: _f_raw(h, i, n, terms, b))


def apply_e(h: int, i: int, v: FockVector) -> FockVector:
    """Raising operator e_i; letters left of the acted one pick up 1/t_i."""
    n = pt.check_color(h, i)
    return _act(h, v, lambda terms, b: _e_raw(h, i, n, terms, b))


def apply_t(h: int, i: int, v: FockVector, inverse: bool = False) -> FockVector:
    """Torus element t_i (or its inverse): scales each label by a q power."""
    n = pt.check_color(h, i)
    t_exp = _color_tables(h, i)[1]
    out = {}
    for lam, (e0, x, m) in zip(v.rows, v.entries):
        pt.check_dp_h(h, lam)
        e = sum(t_exp[j % h] for j in lam) + (1 if i == n else 0)
        out[lam] = (e0 - e if inverse else e0 + e, x, m)
    return FockVector.packed(out, v.bits)


def apply_f_divided(h: int, i: int, k: int, v: FockVector) -> FockVector:
    """Divided power f_i^(k) = f_i^k / [k]_i!, exact for any k.

    Non-divisibility raises ExactDivisionError; that always indicates a
    bug upstream, never legitimate data.
    """
    if k < 1:
        raise ValueError("divided power needs k >= 1")
    n = pt.check_color(h, i)
    return _act(h, v, lambda terms, b: _f_divided(h, i, n, k, terms, b))


def weight(h: int, v: FockVector) -> tuple:
    """Common residue content of the labels of a nonzero vector."""
    if not v:
        raise ValueError("the zero vector has no weight")
    contents = {pt.residue_content(h, lam) for lam in v.rows}
    if len(contents) > 1:
        raise MixedWeightError(f"labels carry {len(contents)} distinct contents")
    return contents.pop()


def norm_squared(h: int, lam) -> LaurentPoly:
    """Diagonal value of the natural bilinear form on a basis vector.

    Product over part values divisible by h of prod_{i<=mult} (1 - (-q^2)^i);
    vanishes at q = 1 exactly for labels with a repeated part.
    """
    lam = pt.check_dp_h(h, lam)
    out = ONE
    mult = {}
    for p in lam:
        if p % h == 0:
            mult[p] = mult.get(p, 0) + 1
    for _, m in sorted(mult.items()):
        for i in range(1, m + 1):
            sign = -1 if i % 2 == 0 else 1
            out = out * LaurentPoly({0: 1, 2 * i: sign})
    return out
