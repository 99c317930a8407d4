import random
import re

import pytest

from spinfock import laurent
from spinfock.laurent import (DIGIT_BITS as B, CoefficientBoundError,
                              LaurentPoly, ONE, pack, q_factorial, unpack)
from spinfock.fock import (
    FockVector,
    UncoveredDisorderError,
    MixedWeightError,
    straighten,
    normal_order,
    apply_f,
    apply_e,
    apply_t,
    apply_f_divided,
    weight,
    norm_squared,
)
from spinfock import fock, verify
from spinfock.modular import character_image
from spinfock import partitions as pt
from spinfock import fixtures as fx


def vec(data):
    return fx.fock_vector(data)


class TestNormalOrder:
    def test_cross_term(self):
        # (5,6,2) at h=5: one swap across the multiple-of-5 boundary
        assert normal_order((5, 6, 2), 5) == vec({(6, 5, 2): {2: -1}})

    def test_already_ordered(self):
        assert normal_order((3, 1), 5) == vec({(3, 1): {0: 1}})

    def test_equal_pair_dies(self):
        assert not normal_order((4, 4), 3)

    def test_equal_pair_at_multiple_survives(self):
        assert normal_order((3, 3), 3) == vec({(3, 3): {0: 1}})

    def test_trailing_zeros_trimmed(self):
        assert normal_order((4, 2, 0), 3) == vec({(4, 2): {0: 1}})

    def test_repeated_swaps(self):
        # (3,3,4) bubbles the 4 through two multiples of 3: (-q^2)^2
        assert normal_order((3, 3, 4), 3) == vec({(4, 3, 3): {4: 1}})

    def test_uncovered_disorder(self):
        with pytest.raises(UncoveredDisorderError):
            straighten((1, 3), 5)

    def test_confluence_randomized(self, rng):
        for _ in range(300):
            h = rng.choice((3, 5, 7))
            m = rng.randrange(1, 12)
            pool = pt.enumerate_dp_h(h, m)
            lam = pool[rng.randrange(len(pool))]
            k = rng.randrange(len(lam))
            w = list(lam)
            w[k] += rng.choice((1, -1))
            if w[k] < 0:
                continue
            base = straighten(tuple(w), h)
            for _ in range(5):
                assert straighten(tuple(w), h, rng=rng) == base

    @staticmethod
    def _per_word(rng, count):
        """verify's word generator enumerating DP_h afresh for every word."""
        words = []
        while len(words) < count:
            h = rng.choice((3, 5, 7))
            m = rng.randrange(1, 13)
            pool = pt.enumerate_dp_h(h, m)
            lam = pool[rng.randrange(len(pool))]
            k = rng.randrange(len(lam))
            delta = rng.choice((1, -1))
            w = list(lam)
            w[k] += delta
            if w[k] < 0:
                continue
            words.append((tuple(w), h))
        return words

    @pytest.mark.parametrize("seed", [0, 3, 7, 101])
    @pytest.mark.parametrize("count", [1, 40, 2000])
    def test_pooled_words_match_per_word_route(self, seed, count):
        pooled, fresh = random.Random(seed), random.Random(seed)
        assert (verify._random_generator_words(pooled, count)
                == self._per_word(fresh, count))
        assert pooled.getstate() == fresh.getstate()


class TestLoweringFixtures:
    def test_f2_542(self):
        assert apply_f(5, 2, FockVector.basis((5, 4, 2))) == vec(fx.F2_ON_542)

    def test_f2_552(self):
        assert apply_f(5, 2, FockVector.basis((5, 5, 2))) == vec(fx.F2_ON_552)

    @pytest.mark.parametrize("h", [3, 5, 7])
    def test_vacuum(self, h):
        n = pt.rank(h)
        vac = FockVector.basis(())
        assert apply_f(h, n, vac) == FockVector.basis((1,))
        for i in range(n):
            assert not apply_f(h, i, vac)
        for i in range(n + 1):
            assert not apply_e(h, i, vac)
        assert apply_t(h, n, vac) == vac.scaled(LaurentPoly({1: 1}))


def _f_reference(h, i, lam):
    """f_i|lam> built term by term with normal_order, from the defining
    action: raise a letter of color i, twist the later letters and the
    vacuum by t_i, (q + 1/q) at the short node on a multiple of h, and for
    i = n the vacuum term appending a part 1."""
    from conftest import oracle_residue as res
    n = pt.rank(h)
    out = FockVector()
    for k, j in enumerate(lam):
        if res(h, j) != i:
            continue
        tail = sum((4 if i == 0 else 2) * ((res(h, x) == i) - (res(h, x - 1) == i))
                   for x in lam[k + 1:]) + (i == n)
        c = LaurentPoly({tail: 1})
        if i == n and j % h == 0:
            c = c * LaurentPoly({1: 1, -1: 1})
        out = out + normal_order(lam[:k] + (j + 1,) + lam[k + 1:], h).scaled(c)
    if i == n:
        out = out + normal_order(lam + (1,), h)
    return out


class TestLocalRule:
    """The local straightening of f_i against the generic `straighten`.

    The canonical solver's fast and slow routes share the f_i kernel, so
    test_paths_agree cannot catch a wrong local rule; these tests can.
    """

    DEGREES = {3: 28, 5: 26, 7: 26}

    @staticmethod
    def _labels(h):
        for m in range(TestLocalRule.DEGREES[h] + 1):
            yield from pt.enumerate_dp_h(h, m)

    @pytest.mark.parametrize("h", [3, 5, 7])
    def test_raised_letter_matches_straighten(self, h):
        # every position of every label: each is eligible for its own color
        for lam in self._labels(h):
            for k, j in enumerate(lam):
                want = straighten(lam[:k] + (j + 1,) + lam[k + 1:], h)
                assert fock._raised(h, lam, k) == want, (lam, k)

    @pytest.mark.parametrize("h", [3, 5, 7])
    def test_apply_f_matches_term_by_term_reference(self, h):
        for lam in self._labels(h):
            v = FockVector.basis(lam)
            for i in range(pt.rank(h) + 1):
                assert apply_f(h, i, v) == _f_reference(h, i, lam), (lam, i)

    @pytest.mark.parametrize("h", [3, 5, 7])
    def test_packed_divided_powers_match_reference(self, h):
        # the solver's packed f_i^(k)|lam>, decoded, against k reference
        # passes and one LaurentPoly.exact_div by [k]_i!
        n = pt.rank(h)
        for i in range(n + 1):
            images = {}

            def f_ref(v):
                out = {}
                for lam, c in v.terms():
                    if lam not in images:
                        images[lam] = _f_reference(h, i, lam)
                    for mu, d in images[lam].terms():
                        fock._accumulate(out, mu, c * d)
                return FockVector(out)

            for lam in self._labels(h):
                v = FockVector.basis(lam)
                for k in range(1, 5):
                    v = f_ref(v)
                    fact = q_factorial(k, i, n)
                    want = FockVector({mu: c.exact_div(fact)
                                       for mu, c in v.terms()})
                    image = fock._f_divided(h, i, n, k, {lam: fock.UNIT}, B)
                    got = FockVector({mu: unpack(c, B)
                                      for mu, c in image.items()})
                    assert got == want, (lam, i, k)
                    if not v:
                        break

    def test_non_dp_h_label_rejected(self):
        # the local rule needs DP_5 labels; every action refuses any other
        # word at entry instead of straightening it
        actions = [apply_f, apply_e, apply_t,
                   lambda h, i, v: apply_f_divided(h, i, 2, v)]
        for lam in [(1, 3), (4, 4), (4, 4, 4), (2, 2, 1), (6, 6, 5), (3, 0)]:
            v = FockVector({lam: ONE, (5, 4, 2): ONE})
            for i in range(3):
                for act in actions:
                    with pytest.raises(ValueError, match="is not a DP_5 partition"):
                        act(5, i, v)


class TestRaising:
    # expected values worked out by hand from the letter rules and the
    # positional coproduct (prefix twists, suffix untouched)
    def test_e2_642(self):
        assert apply_e(5, 2, FockVector.basis((6, 4, 2))) == vec(
            {(5, 4, 2): {0: 1}})

    def test_e2_552(self):
        # both letters 5 accept e_2 with (q + 1/q); the first lands out of
        # order and picks up -q^2 from the swap
        assert apply_e(5, 2, FockVector.basis((5, 5, 2))) == vec(
            {(5, 4, 2): {-1: 1, 3: -1}})

    def test_e2_542_dies(self):
        # the only removable 2-cell creates a forbidden repeat
        assert not apply_e(5, 2, FockVector.basis((5, 4, 2)))

    def test_e0_52(self):
        # h=3: both letters sit in the active class; the prefix twist on the
        # second term inverts the -4 eigenvalue of the letter 5
        assert apply_e(3, 0, FockVector.basis((5, 2))) == vec(
            {(4, 2): {0: 1}, (5, 1): {4: 1}})


class TestTorusEigenvalues:
    def test_t2_542(self):
        # letters 5, 4, 2 contribute 0, +2, 0 and the vacuum +1
        got = apply_t(5, 2, FockVector.basis((5, 4, 2)))
        assert got == vec({(5, 4, 2): {3: 1}})

    def test_t0_41(self):
        # h=3: letter 4 = 1 mod 3 gives +4, letter 1 gives +4, no vacuum term
        got = apply_t(3, 0, FockVector.basis((4, 1)))
        assert got == vec({(4, 1): {8: 1}})


class TestDegreesAndWeights:
    @pytest.mark.parametrize("h", [3, 5])
    def test_f_raises_degree(self, h):
        n = pt.rank(h)
        for m in range(0, 9):
            for lam in pt.enumerate_dp_h(h, m):
                v = FockVector.basis(lam)
                for i in range(n + 1):
                    for lam2, _ in apply_f(h, i, v).terms():
                        assert sum(lam2) == m + 1
                    for lam2, _ in apply_e(h, i, v).terms():
                        assert sum(lam2) == m - 1
                    assert [mu for mu, _ in apply_t(h, i, v).terms()] == [lam]

    def test_weight_vacuum(self):
        assert weight(3, FockVector.basis(())) == (0, 0)

    def test_weight_increment(self):
        for lam in pt.enumerate_dp_h(3, 6):
            v = FockVector.basis(lam)
            w = weight(3, v)
            for i in range(2):
                out = apply_f(3, i, v)
                if out:
                    got = weight(3, out)
                    want = tuple(w[j] + (1 if j == i else 0) for j in range(2))
                    assert got == want

    def test_mixed_weight_rejected(self):
        v = FockVector.basis((2,)) + FockVector.basis((1, 1, 1))
        with pytest.raises(MixedWeightError):
            weight(3, v)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            weight(3, FockVector())


class TestTorusConsistency:
    @pytest.mark.parametrize("h", [3, 5])
    def test_t_inverse(self, h):
        n = pt.rank(h)
        for lam in pt.enumerate_dp_h(h, 7):
            v = FockVector.basis(lam)
            for i in range(n + 1):
                assert apply_t(h, i, apply_t(h, i, v), inverse=True) == v


class TestDividedPowers:
    def test_k1_is_plain(self):
        v = FockVector.basis((2,))
        assert apply_f_divided(3, 1, 1, v) == apply_f(3, 1, v)

    def test_square_on_vacuum_rank_one(self):
        # f_1 twice from the vacuum dies: the appended parts collide
        assert not apply_f_divided(3, 1, 2, FockVector.basis(()))

    def test_square_on_two(self):
        got = apply_f_divided(3, 1, 2, FockVector.basis((2,)))
        assert got == vec({(4,): {2: 1}, (3, 1): {0: 1}})

    def test_exactness_on_ladder_monomials(self):
        # every h-regular label of small degree builds with exact division
        for h in (3, 5):
            for m in range(0, 10):
                for mu in pt.enumerate_dpr_h(h, m):
                    v = FockVector.basis(())
                    for res, cnt in pt.ladders(h, mu).steps:
                        v = apply_f_divided(h, res, cnt, v)
                    assert v.coefficient(mu) == ONE


class TestArbitraryCoefficients:
    """Public actions stay exact: their packing widens for any coefficient."""

    HUGE = LaurentPoly({-50: 10**40})

    @pytest.mark.parametrize("action", [
        apply_f, apply_e,
        lambda h, i, v: apply_f_divided(h, i, 2, v),
        lambda h, i, v: apply_f_divided(h, i, 3, v)])
    def test_huge_coefficient_scales_exactly(self, action):
        c2 = LaurentPoly({3: -(2**200) + 1, 7: 5})
        for lam in [(5, 4, 2), (5, 5, 2), (6, 5, 4, 3, 1)]:
            for i in range(3):
                a, b = FockVector.basis(lam), FockVector.basis((6, 4, 3))
                v = a.scaled(self.HUGE) + b.scaled(c2)
                want = (action(5, i, a).scaled(self.HUGE)
                        + action(5, i, b).scaled(c2))
                assert action(5, i, v) == want, (lam, i)

    def test_huge_coefficient_survives_a_divided_power(self):
        v = FockVector.basis((2,)).scaled(self.HUGE)
        got = apply_f_divided(3, 1, 2, v)
        assert got == vec({(4,): {-48: 10**40}, (3, 1): {-50: 10**40}})

    def test_narrow_digits_widen_instead_of_refusing(self, monkeypatch):
        # at 4-bit digits the packed actions overflow; each is repeated at
        # doubled widths, so every public action still answers exactly
        labels = [(5, 4, 2), (6, 5, 4, 3, 1), (10, 9, 6, 5, 4, 1)]
        actions = [apply_f, apply_e] + [
            lambda h, i, v, k=k: apply_f_divided(h, i, k, v)
            for k in (2, 3, 4)]
        want = [action(5, i, FockVector.basis(lam)) for action in actions
                for lam in labels for i in range(3)]
        monkeypatch.setattr(laurent, "DIGIT_BITS", 4)
        with pytest.raises(CoefficientBoundError):
            fock._f_divided(5, 2, 2, 3, {(5, 4, 2): fock.UNIT}, 4)
        assert [action(5, i, FockVector.basis(lam)) for action in actions
                for lam in labels for i in range(3)] == want


class TestCommutators:
    @pytest.mark.parametrize("h", [3, 5])
    def test_relation_on_random_vectors(self, h, rng):
        from spinfock.verify import commutator_holds
        res = commutator_holds(h, 9, trials=15, seed=rng.randrange(10**6))
        assert res.ok, res.detail


def _t_exponent(h, i, lam):
    """e with t_i|lam> = q^e |lam>."""
    (e, a), = apply_t(h, i, FockVector.basis(lam)).coefficient(lam).coeffs().items()
    assert a == 1
    return e


def cartan_matrix(h, max_m=6):
    """a_ij read off the action: f_j moves the t_i eigenvalue by q^(-d_i a_ij),
    d_i = generator_scale(i, n), on every label of degree <= max_m."""
    n = pt.rank(h)
    seen = {}
    for m in range(max_m + 1):
        for lam in pt.enumerate_dp_h(h, m):
            for j in range(n + 1):
                for mu, _ in apply_f(h, j, FockVector.basis(lam)).terms():
                    for i in range(n + 1):
                        a, r = divmod(_t_exponent(h, i, lam) - _t_exponent(h, i, mu),
                                      laurent.generator_scale(i, n))
                        assert not r, (h, i, j, lam, mu)
                        seen.setdefault((i, j), set()).add(a)
    assert all(len(v) == 1 for v in seen.values()), seen
    return [[seen[i, j].pop() for j in range(n + 1)] for i in range(n + 1)]


class TestSerreRelations:
    """The Fock action is a U_q(A^(2)_2n) action only if the quantum Serre
    relations hold; the Cartan matrix is read off the engine itself."""

    def test_cartan_matrix_h3(self):
        assert cartan_matrix(3) == [[2, -1], [-4, 2]]

    @pytest.mark.parametrize("h", [3, 5, 7])
    def test_cartan_matrix_symmetrizable(self, h):
        a = cartan_matrix(h)
        n = pt.rank(h)
        d = [laurent.generator_scale(i, n) for i in range(n + 1)]
        for i in range(n + 1):
            assert a[i][i] == 2
            for j in range(n + 1):
                assert d[i] * a[i][j] == d[j] * a[j][i]
                assert (a[i][j] < 0) == (abs(i - j) == 1)

    @pytest.mark.parametrize("h,max_m", [(3, 14), (5, 12), (7, 9)])
    def test_serre_relations(self, h, max_m):
        # sum_k (-1)^k f_i^(k) f_j f_i^(1-a_ij-k) = 0 for i != j
        def divided(i, k, v):
            return apply_f_divided(h, i, k, v) if k else v

        a = cartan_matrix(h)
        n = pt.rank(h)
        for m in range(max_m + 1):
            for lam in pt.enumerate_dp_h(h, m):
                v = FockVector.basis(lam)
                for i in range(n + 1):
                    for j in range(n + 1):
                        if i == j:
                            continue
                        top = 1 - a[i][j]
                        total = FockVector()
                        for k in range(top + 1):
                            term = divided(i, k, apply_f(h, j, divided(i, top - k, v)))
                            total = total - term if k % 2 else total + term
                        assert not total, (lam, i, j, total)


class TestNorm:
    def test_single_part_at_h(self):
        assert norm_squared(3, (3,)) == LaurentPoly({0: 1, 2: 1})

    def test_repeated_part(self):
        want = LaurentPoly({0: 1, 2: 1}) * LaurentPoly({0: 1, 4: -1})
        assert norm_squared(3, (3, 3)) == want

    def test_strict_no_multiples(self):
        assert norm_squared(3, (5, 4, 2)) == ONE

    @pytest.mark.parametrize("h", [3, 5])
    def test_ghost_detection(self, h):
        for m in range(0, 11):
            for lam in pt.enumerate_dp_h(h, m):
                vanishes = norm_squared(h, lam).at_one() == 0
                assert vanishes == (not pt.is_strict(lam))


class TestVectorApi:
    def test_basis_keeps_label_as_written(self):
        assert FockVector.basis((3, 0)) == FockVector({(3, 0): ONE})

    def test_linear_ops(self):
        a = FockVector.basis((2,))
        b = FockVector.basis((1,))
        s = a + b.scaled(LaurentPoly({1: 2}))
        assert s.coefficient((1,)) == LaurentPoly({1: 2})
        assert (s - s) == FockVector()
        assert not (a - a)

    @pytest.mark.parametrize("op, message", [
        (lambda v: v + 1, "+: 'FockVector' and 'int'"),
        (lambda v: v - 1, "-: 'FockVector' and 'int'"),
        (lambda v: 1 + v, "+: 'int' and 'FockVector'"),
        (lambda v: 1 - v, "-: 'int' and 'FockVector'"),
        (lambda v: v + ONE, "+: 'FockVector' and 'LaurentPoly'"),
        (lambda v: v - ONE, "-: 'FockVector' and 'LaurentPoly'")])
    def test_unsupported_operand_names_both_types(self, op, message):
        with pytest.raises(TypeError, match=re.escape(
                "unsupported operand type(s) for " + message)):
            op(FockVector.basis((1,)))

    def test_at_one(self):
        v = vec({(6, 5, 2): {0: 1, 4: -1}, (5, 5, 2, 1): {0: 1}})
        assert v.at_one() == {(5, 5, 2, 1): 1}

    def test_coefficients_are_integral(self):
        # an int is a constant; any other coefficient is refused, naming
        # the label and the type
        assert FockVector({(1,): 3}) == FockVector.basis((1,)).scaled(3)
        assert repr(FockVector({(2,): -1, (1,): 0})) == "(-1)|2>"
        with pytest.raises(TypeError, match=r"^coefficient of \(1,\) .* "
                                            r"not float$"):
            FockVector({(1,): 1.5})
        with pytest.raises(TypeError, match="not str"):
            FockVector({(): "1"})

    def test_int_coefficients_act(self):
        two, vacuum = FockVector({(): 2}), FockVector.basis(())
        assert apply_f(3, 1, two) == apply_f(3, 1, vacuum).scaled(2)
        assert character_image(3, two) == {
            lam: 2 * v for lam, v in character_image(3, vacuum).items()}

    def test_narrowest_readable_width(self):
        # the exact l1 norm must stay below 2^(b-1)
        quarter = LaurentPoly({0: 1 << (B - 2), 3: -(1 << (B - 2))})
        assert FockVector({(1,): (1 << (B - 1)) - 1}).bits == B
        assert FockVector({(1,): quarter, (2,): 1}).bits == 2 * B
        assert FockVector({(1,): 1 << (2 * B - 1)}).bits == 4 * B


def packed_at(polys, b):
    """FockVector.packed of {label: LaurentPoly} at digit width b."""
    return FockVector.packed({lam: pack(p, b) for lam, p in polys.items()}, b)


class TestOneVectorType:
    """Every FockVector is packed: rows, entries and a digit width."""

    POLYS = {(3, 1): LaurentPoly({-2: 5, 3: -7}), (2,): ONE,
             (1,): LaurentPoly({4: 1 << 20})}

    def test_widths_compare_by_polynomial(self):
        wide = packed_at(self.POLYS, 2 * B)
        narrow = FockVector(self.POLYS)
        assert (narrow.bits, wide.bits) == (B, 2 * B)
        assert wide == narrow and narrow == wide
        assert narrow.terms() == wide.terms() == sorted(
            self.POLYS.items(), reverse=True)

    @pytest.mark.parametrize("lam, poly", [
        ((3, 1), LaurentPoly({-2: 5, 3: -6})),      # one coefficient
        ((2,), LaurentPoly({1: 1})),                # one exponent
        ((2, 1), ONE),                              # one more row
    ])
    def test_one_coefficient_apart_is_unequal(self, lam, poly):
        other = FockVector({**self.POLYS, lam: poly})
        for v in (FockVector(self.POLYS),           # one width, then two
                  packed_at(self.POLYS, 2 * B)):
            assert other != v and v != other

    def test_equality_refuses_an_entry_at_the_bound(self):
        # two identical (e0, x) are not read as equal once n reaches
        # 2^(b-1): the digits might not be the coefficients
        half = 1 << (B - 1)
        at_bound = FockVector.packed({(1,): (0, 5, half)}, B)
        for other in (FockVector.packed({(1,): (0, 5, half)}, B),
                      FockVector.packed({(1,): (0, 5, 1)}, B),
                      FockVector({(1,): 5})):
            with pytest.raises(CoefficientBoundError):
                at_bound == other
            with pytest.raises(CoefficientBoundError):
                other == at_bound

    def test_reads_from_the_packed_entries(self):
        v = FockVector(self.POLYS)
        assert v.rows == ((3, 1), (2,), (1,))
        assert v.least_exponents() == [((3, 1), -2), ((2,), 0), ((1,), 4)]
        assert v.coefficient([3, 1]) == self.POLYS[(3, 1)]
        assert v.coefficient((4,)) == laurent.ZERO
        assert v.at_one() == {(3, 1): -2, (2,): 1, (1,): 1 << 20}
        assert apply_t(5, 1, apply_t(5, 1, v), inverse=True).entries == (
            v.entries)
