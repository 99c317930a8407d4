import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from spinfock.laurent import (
    DIGIT_BITS,
    CoefficientBoundError,
    LaurentPoly,
    ExactDivisionError,
    ZERO,
    _digits,
    add_scaled,
    exact_quotient,
    freeze,
    in_qzq,
    pack,
    unpack,
    ONE,
    q_integer,
    q_factorial,
    symmetrize_tail,
)


def poly(d):
    return LaurentPoly(d)


def in_q_z_of_q(p):
    return min(p.coeffs(), default=1) >= 1


B = DIGIT_BITS
polys = st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=6).map(poly)


class TestRing:
    @given(polys, polys, polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO

    @given(polys)
    def test_int_coercion(self, a):
        assert a + 0 == a
        assert 2 * a == a + a
        assert 1 - a == ONE - a

    @pytest.mark.parametrize("op, message", [
        (lambda a: 2.5 - a, "-: 'float' and 'LaurentPoly'"),
        (lambda a: a - 2.5, "-: 'LaurentPoly' and 'float'"),
        (lambda a: 2.5 + a, "+: 'float' and 'LaurentPoly'"),
        (lambda a: a * 2.5, "*: 'LaurentPoly' and 'float'"),
        (lambda a: "q" - a, "-: 'str' and 'LaurentPoly'")])
    def test_unsupported_operand_names_both_types(self, op, message):
        with pytest.raises(TypeError, match=re.escape(
                "unsupported operand type(s) for " + message)):
            op(poly({0: 1}))

    def test_no_zero_coefficients_stored(self):
        assert poly({3: 0, 1: 2})._c == {1: 2}
        assert not poly({5: 0})

    @pytest.mark.parametrize("coeffs", [{0: 0.5}, {0.7: 3}, {0: 2.0},
                                        {1: Fraction(1, 2)}, {"1": 1}],
                             ids=["half", "float-exponent", "float-integral",
                                  "fraction", "string-exponent"])
    def test_non_integers_rejected(self, coeffs):
        # int() would truncate 0.5 to a stored zero and 0.7 to q^0
        with pytest.raises(TypeError):
            poly(coeffs)

    def test_mul_example(self):
        # (q^2+1) + (q^2+1)(-q^2) = 1 - q^4
        a = poly({2: 1, 0: 1})
        assert a + a * poly({2: -1}) == poly({0: 1, 4: -1})

    def test_square_example(self):
        a = poly({1: 1, -1: 1})
        assert a * a == poly({2: 1, 0: 2, -2: 1})


class TestBar:
    def test_example(self):
        assert poly({2: 1, 6: -1}).bar() == poly({-2: 1, -6: -1})

    @given(polys)
    def test_involution(self, a):
        assert a.bar().bar() == a

    @given(polys, polys)
    def test_ring_morphism(self, a, b):
        assert (a + b).bar() == a.bar() + b.bar()
        assert (a * b).bar() == a.bar() * b.bar()

    def test_symmetric_fixed(self):
        a = poly({3: 1, -3: 1})
        assert a.bar() == a


class TestQuantumIntegers:
    def test_unit(self):
        for n in (1, 2, 3):
            for i in range(n + 1):
                assert q_integer(1, i, n) == ONE
        with pytest.raises(ValueError, match="color 3 out of range"):
            q_integer(2, 3, 1)

    def test_two_at_short_node(self):
        assert q_integer(2, 2, 2) == poly({1: 1, -1: 1})

    def test_two_at_long_node_rank_one(self):
        assert q_integer(2, 0, 1) == poly({4: 1, -4: 1})

    def test_middle_node(self):
        assert q_integer(2, 1, 3) == poly({2: 1, -2: 1})

    @given(st.integers(0, 6), st.integers(1, 3))
    def test_bar_invariant(self, k, n):
        for i in range(n + 1):
            p = q_integer(k, i, n)
            assert p.bar() == p

    def test_factorial(self):
        two = q_integer(2, 1, 1)
        three = q_integer(3, 1, 1)
        assert q_factorial(3, 1, 1) == two * three
        assert q_factorial(0, 1, 1) == ONE

    @pytest.mark.parametrize("k, i, message", [
        (-3, 1, "k >= 0"), (1, 9, "color 9 out of range")])
    def test_factorial_refuses_what_integers_refuse(self, k, i, message):
        # as q_integer(-1, 1, 1) and q_integer(1, 9, 1) do; k <= 1 builds
        # no [j]_i, so the product's loop alone checks nothing
        with pytest.raises(ValueError, match=message):
            q_factorial(k, i, 1)


class TestExactDiv:
    def test_simple(self):
        x = poly({0: 3, 2: -1})
        d = poly({1: 1, -1: 1})
        assert (x * d).exact_div(d) == x

    def test_example(self):
        assert poly({0: 1, 4: -1}).exact_div(poly({0: 1, 2: 1})) == poly({0: 1, 2: -1})

    def test_failure(self):
        with pytest.raises(ExactDivisionError):
            poly({1: 1}).exact_div(poly({0: 1, 1: 1}))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            ONE.exact_div(ZERO)

    @given(polys, polys)
    def test_roundtrip(self, a, d):
        if d:
            assert (a * d).exact_div(d) == a


class TestSymmetrizeTail:
    def test_example(self):
        c = poly({-2: 1, 0: 3, 5: 1})
        assert symmetrize_tail(c) == poly({0: 3, 2: 1, -2: 1})

    def test_positive_only(self):
        assert symmetrize_tail(poly({1: 4, 3: -2})) == ZERO

    @given(polys)
    def test_defining_property(self, c):
        g = symmetrize_tail(c)
        assert g.bar() == g
        assert in_q_z_of_q(c - g)

    @given(st.dictionaries(st.integers(0, 6), st.integers(-5, 5), max_size=4).map(poly))
    def test_symmetric_input(self, half):
        c = half + half.bar() - half.coefficient(0)
        g = symmetrize_tail(c)
        assert g == c
        assert (c - g) == ZERO

    @given(polys, st.dictionaries(st.integers(1, 6), st.integers(-5, 5),
                                  min_size=1, max_size=3).map(poly))
    def test_uniqueness(self, c, pos):
        # any other bar-invariant candidate leaves a tail outside qZ[q]
        if not pos:
            return
        delta = pos + pos.bar()
        g = symmetrize_tail(c)
        assert not in_q_z_of_q(c - (g + delta))


keyed = st.lists(st.tuples(st.sampled_from("abc"), polys), max_size=4)
scaled = st.lists(st.tuples(polys, keyed), max_size=4)


class TestPackedCells:
    """add_scaled on (scalar, terms) pairs, and freeze, on a dict of cells
    against LaurentPoly arithmetic."""

    @given(scaled, scaled)
    @example([], [(poly({1: 1}), [])])
    @example([(poly({-2: 3}), [])], [])
    def test_matches_poly_arithmetic(self, first, second):
        # two calls, the second summing into cells the first made; the
        # pairs and each terms are one-shot iterators, as the solver's are
        cells = {}
        expected = {}
        for pairs in (first, second):
            add_scaled(cells, ((pack(scalar, B),
                                ((key, pack(p, B)) for key, p in terms))
                               for scalar, terms in pairs), B)
            for scalar, terms in pairs:
                for key, p in terms:
                    expected[key] = expected.get(key, ZERO) + scalar * p
        assert set(cells) <= set(expected)
        for key in "abc":
            got = unpack(cells[key], B) if key in cells else ZERO
            assert got == expected.get(key, ZERO)
        frozen = freeze(cells, B)
        assert {k: unpack(c, B) for k, c in frozen.items()} == {
            k: v for k, v in expected.items() if v}
        # normalized: e0 is the least exponent
        assert all(e0 == min(expected[k].coeffs())
                   for k, (e0, _, _) in frozen.items())

    def test_cancellation_is_pruned(self):
        # one call whose second pair cancels the first pair's "a"
        cells = {}
        p = poly({-1: 2, 3: 1})
        add_scaled(cells, [(pack(ONE, B), [("a", pack(p, B)),
                                           ("b", pack(ONE, B))]),
                           (pack(-ONE, B), [("a", pack(p, B))])], B)
        assert unpack(cells["a"], B) == ZERO
        assert freeze(cells, B) == {"b": (0, 1, 1)}


HALF = 1 << (B - 1)
extreme = st.sampled_from([HALF - 1, -(HALF - 1)])
wide_polys = st.dictionaries(
    st.integers(-60, 60), st.one_of(st.integers(-9, 9), extreme),
    max_size=6).map(poly)


class TestPacked:
    """pack / unpack, the digit-bound guards and the checked division."""

    @given(wide_polys)
    def test_digits_round_trip(self, p):
        # balanced digits decode exactly while every |a| < 2^(B-1) ...
        e0, x, n = pack(p, B)
        assert n == sum(abs(a) for a in p.coeffs().values())
        digits = _digits(x, B)
        assert {e0 + k: d for k, d in enumerate(digits) if d} == p.coeffs()
        # ... and unpack reads them back only under its l1 bound
        if n < HALF:
            assert unpack((e0, x, n), B) == p
        else:
            with pytest.raises(CoefficientBoundError):
                unpack((e0, x, n), B)

    def test_unpack_refuses_at_the_bound(self):
        assert unpack((-3, HALF - 1, HALF - 1), B) == poly({-3: HALF - 1})
        with pytest.raises(CoefficientBoundError, match=r"row \(2, 1\)"):
            unpack((0, 1, HALF), B, (2, 1))

    def test_freeze_refuses_at_the_bound(self):
        cells = {"a": [0, 1, 1], "b": [0, 1, HALF]}
        with pytest.raises(CoefficientBoundError, match="row b"):
            freeze(cells, B)
        with pytest.raises(CoefficientBoundError, match="row b"):
            unpack(cells["b"], B, "b")

    def test_freeze_normalizes_and_tightens(self):
        x = (5 << (2 * B)) - (3 << (3 * B))
        cells = {"a": [-4, x, 1 << 20], "z": [0, 0, 7]}
        assert freeze(cells, B) == {"a": (-2, 5 - (3 << B), 8)}

    @given(polys, st.integers(2, 4), st.integers(0, 2))
    def test_exact_quotient_inverts_multiplication(self, p, k, i):
        fact = q_factorial(k, i, 2)
        e0, x, n = exact_quotient(pack(p * fact, B), pack(fact, B), B)
        assert unpack((e0, x, n), B) == p
        if p:
            assert e0 == min(p.coeffs())

    def test_exact_quotient_refuses_a_remainder(self):
        with pytest.raises(ExactDivisionError):
            exact_quotient(pack(poly({1: 1}), B),
                           pack(q_factorial(2, 1, 1), B), B)

    def test_integer_divisibility_is_not_enough(self):
        # with t = 2^(B-2), t + 2q at q = 2^B is 9t = 3 * (2^B - t), yet
        # t + 2q = 2(q - t) + 3t is no multiple of q - t: the quotient 3
        # fails the digit check and is refused; at 2B the remainder shows
        t = 1 << (B - 2)
        c, d = poly({0: t, 1: 2}), poly({0: -t, 1: 1})
        assert pack(c, B)[1] % pack(d, B)[1] == 0
        with pytest.raises(CoefficientBoundError):
            exact_quotient(pack(c, B), pack(d, B), B)
        with pytest.raises(ExactDivisionError):
            exact_quotient(pack(c, 2 * B), pack(d, 2 * B), 2 * B)

    def test_unproven_quotient_is_refused_then_widened(self):
        # c = Q d is readable at B (its l1 norm is 3 * 2^29 < 2^(B-1)), but
        # max|Q| * ||d||_1 = 9 * 2^28 is not, so the digits cannot prove
        # d Q = c: the quotient is refused like any unreadable value, and
        # at twice the width it is exact
        d = q_integer(3, 1, 1)
        Q = poly({0: 3 << 28, 2: -(3 << 28)})
        c = Q * d
        assert pack(c, B)[2] < HALF
        with pytest.raises(CoefficientBoundError, match="row x"):
            exact_quotient(pack(c, B), pack(d, B), B, "x")
        assert exact_quotient(pack(c, 2 * B), pack(d, 2 * B), 2 * B) == pack(
            Q, 2 * B)

    def test_exact_quotient_refuses_at_the_bound(self):
        fact = pack(q_factorial(2, 1, 1), B)
        with pytest.raises(CoefficientBoundError, match="row x"):
            exact_quotient((0, fact[1], HALF), fact, B, "x")


class TestInQZq:
    """in_qzq, the solver's undecoded test that symmetrize_tail is 0, on
    unnormalized cells: low zero digits, any e0, x = 0 and negative x."""

    @pytest.mark.parametrize("b", [B, 4])
    @given(data=st.data())
    def test_says_skip_exactly_when_the_tail_is_zero(self, b, data):
        half = 1 << (b - 1)
        digit = (st.integers(-half, half - 1) if b < 8 else
                 st.one_of(st.integers(-9, 9),
                           st.sampled_from([-half, half - 1])))
        e0 = data.draw(st.integers(-6, 6))
        digits = data.draw(st.lists(digit, max_size=6))
        slack = data.draw(st.integers(0, 2))
        cell = [e0, sum(d << (b * k) for k, d in enumerate(digits)),
                sum(map(abs, digits)) + slack]
        if cell[2] < half:
            tail = symmetrize_tail(unpack(cell, b))
            assert in_qzq(cell, b) == (tail == ZERO)
        else:
            assert not in_qzq(cell, b)
            with pytest.raises(CoefficientBoundError):
                unpack(cell, b)

    @pytest.mark.parametrize("b", [B, 4])
    def test_never_skips_at_the_bound(self, b):
        # q^5, q and 0 lie in qZ[q], but a bound at 2^(b-1) leaves their
        # digits unread, so the solver decodes them and unpack refuses
        half = 1 << (b - 1)
        for cell in ([5, 1, half], [0, 1 << b, half + 3], [2, 0, half]):
            assert not in_qzq(cell, b)
            with pytest.raises(CoefficientBoundError):
                unpack(cell, b)
        assert in_qzq([5, 1, half - 1], b)          # q^5
        assert in_qzq([0, 1 << b, 1], b)            # q, a low zero digit
        assert not in_qzq([-1, 1 << b, 1], b)       # 1, a low zero digit


class TestEvalAndJson:
    def test_at_one(self):
        assert poly({1: 1, 5: -1}).at_one() == 0
        assert poly({0: 1, 2: 2}).at_one() == 3
        assert poly({2: 1, 4: 1}).at_one() == 2

    def test_json_roundtrip(self):
        p = poly({-3: 2, 0: -1, 7: 5})
        assert p.to_json() == {"-3": 2, "0": -1, "7": 5}
        assert LaurentPoly.from_json(p.to_json()) == p

    def test_str(self):
        assert str(poly({1: 1, 5: -1})) == "q-q^5"
        assert str(poly({2: 2})) == "2q^2"
        assert str(ZERO) == "0"
        assert str(poly({0: 1, -2: 1})) == "q^-2+1"
