"""Mod-l factorization, Hensel lifting, finite fields, integer factoring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import trial_division_factors
from latcert import intfactor, modular
from latcert.errors import InvalidInputError
from latcert.intfactor import is_prime, prime_factors, prime_power
from latcert.modular import FiniteField

P_INT = (1, -3, -1, 1)  # x^3 - x^2 - 3x + 1


class TestIntFactor:
    def test_is_prime_frozen(self):
        assert is_prime(2) and is_prime(3) and is_prime(37)
        assert is_prime(2**31 - 1)
        assert not is_prime(1)
        assert not is_prime(561)  # Carmichael
        assert not is_prime(2**32 + 1)

    def test_prime_factors_frozen(self):
        assert prime_factors(148) == {2: 2, 37: 1}
        assert prime_factors(3319595008) == {2: 16, 37: 3}
        assert prime_factors(810448) == {2: 4, 37: 3}
        assert prime_factors(-12) == {2: 2, 3: 1}

    def test_small_integers_match_trial_division(self):
        # trial division stops once p^2 > n, so every n here is settled
        # before the small primes run out
        for n in range(1, 50_000):
            factors = trial_division_factors(n)
            assert prime_factors(n) == factors, n
            assert is_prime(n) == (factors == {n: 1}), n

    @pytest.mark.parametrize(
        "n",
        [
            197 * 199, 199**2, 199 * 211, 211**2, 211 * 223, 199**3, 2 * 199**2,
            197 * 211**2, 199 * 211 * 223, 211, 223, 199**2 - 2, 211**2 - 2, 211**2 + 2,
        ],
    )
    def test_integers_around_the_last_small_prime(self, n):
        # 199 is the last trial divisor; past 199^2 the Miller-Rabin test and
        # Pollard rho take over
        factors = trial_division_factors(n)
        assert prime_factors(n) == factors
        assert is_prime(n) == (factors == {n: 1})

    @pytest.mark.parametrize(
        "factors",
        [
            {1000003: 1, 7000003: 1},
            {10000019: 1, 30000001: 1},
            {100000007: 1, 700000001: 1},
            {3000017: 1, 300000007: 1},
            {100003: 2},
            {1000003: 2},
            {70000027: 2},
        ],
    )
    def test_rho_splits_products_of_large_primes(self, factors):
        # no prime factor below 10^5, so Pollard rho does the splitting
        n = 1
        for p, e in factors.items():
            n *= p**e
        assert prime_factors(n) == factors

    @pytest.mark.parametrize(
        "p, k",
        # the 21-digit prime 10^20 + 39, and the four prime squares whose
        # factoring took rho in the degree-4 search at bound 4
        [(10**20 + 39, 2), (10**20 + 39, 3), (223, 2), (257, 2), (269, 2), (307, 2)],
    )
    def test_prime_powers_never_reach_rho(self, monkeypatch, p, k):
        # exact k-th roots read p^k; rho would take about sqrt(p) steps
        def refuse(n):
            raise AssertionError(f"rho on {n}")

        monkeypatch.setattr(intfactor, "_pollard_rho", refuse)
        assert prime_factors(p**k) == {p: k}

    def test_rho_splits_only_composites_that_are_no_prime_powers(self, monkeypatch):
        rho = intfactor._pollard_rho
        seen = []

        def recorded(n):
            seen.append(n)
            return rho(n)

        monkeypatch.setattr(intfactor, "_pollard_rho", recorded)
        p, q = 1000003, 7000003
        assert prime_factors(p**2 * q**3) == {p: 2, q: 3}
        assert prime_factors(p * q) == {p: 1, q: 1}
        assert seen and all(not is_prime(n) and prime_power(n) is None for n in seen)

    @given(st.integers(2, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_factorization_multiplies_back(self, n):
        fs = prime_factors(n)
        prod = 1
        for p, e in fs.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


class TestPolyMod:
    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=6),
        st.lists(st.integers(0, 6), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_divmod_identity(self, a, b):
        ell = 7
        a, b = modular.normalize(a, ell), modular.normalize(b, ell)
        if not b:
            return
        q, r = modular.divmod_poly(a, b, ell)
        assert modular.add(modular.mul(q, b, ell), r, ell) == a
        assert modular.degree(r) < modular.degree(b)

    def test_ext_gcd_bezout(self):
        ell = 5
        a = modular.normalize((1, 0, 1), ell)
        b = modular.normalize((1, 1), ell)  # coprime to x^2+1 mod 5
        g, s, t = modular.ext_gcd(a, b, ell)
        lhs = modular.add(modular.mul(s, a, ell), modular.mul(t, b, ell), ell)
        assert lhs == g == (1,)
        # and a case with a common factor: x+2 divides x^2+1 mod 5
        g2, _, _ = modular.ext_gcd(a, (2, 1), ell)
        assert g2 == (2, 1)


class TestFactorMod:
    def test_frozen_mod2(self):
        # p = (x+1)^3 mod 2
        assert modular.factor_monic(P_INT, 2) == [((1, 1), 3)]

    def test_frozen_mod37(self):
        # p = (x-4)^2 (x-30) mod 37
        assert modular.factor_monic(P_INT, 37) == [((7, 1), 1), ((33, 1), 2)]

    def test_frozen_mod5(self):
        # p = (x-3)(x^2+2x+3) mod 5
        assert modular.factor_monic(P_INT, 5) == [((2, 1), 1), ((3, 2, 1), 1)]

    def test_frozen_inert_primes(self):
        for ell in (3, 7, 11):
            factors = modular.factor_monic(P_INT, ell)
            assert len(factors) == 1 and factors[0][1] == 1
            assert modular.degree(factors[0][0]) == 3

    def test_frozen_mod13_and_19(self):
        f13 = modular.factor_monic(P_INT, 13)
        assert [(modular.degree(g), e) for g, e in f13] == [(1, 1), (2, 1)]
        value = 0
        for c in reversed(P_INT):
            value = (value * 10 + c) % 13
        assert value == 0  # the linear factor's root, 10 mod 13
        f19 = modular.factor_monic(P_INT, 19)
        assert [(modular.degree(g), e) for g, e in f19] == [(1, 1), (2, 1)]

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=6), st.sampled_from([2, 3, 5, 13]))
    @settings(max_examples=80, deadline=None)
    def test_factorization_reconstructs(self, lower, ell):
        f = tuple(lower) + (1,)
        factors = modular.factor_monic(f, ell)
        prod = (1,)
        for g, e in factors:
            assert g[-1] == 1
            assert modular.is_irreducible_mod(g, ell)
            for _ in range(e):
                prod = modular.mul(prod, g, ell)
        assert prod == modular.normalize(f, ell)

    def test_squarefree_decomposition_char_p(self):
        # x^2 mod 2 : derivative vanishes, needs the x^p descent.
        assert modular.squarefree_factorization((0, 0, 1), 2) == [((0, 1), 2)]
        # (x+1)^4 (x+2) mod 3
        f = modular.normalize(
            modular.mul((1, 4, 6, 4, 1), (2, 1), 3**2 * 10**6), 3
        )
        got = modular.squarefree_factorization(f, 3)
        assert ((2, 1), 1) in got and ((1, 1), 4) in got


class TestHensel:
    def test_lift_reconstructs_product(self):
        blocks = [g for g, _ in modular.factor_monic(P_INT, 5)]
        lifted = modular.hensel_lift_blocks(P_INT, blocks, 5, 6)
        modulus = 5**6
        prod = (1,)
        for b in lifted:
            prod = modular.mul(prod, b, modulus)
        assert prod == modular.normalize(P_INT, modulus)
        for b, orig in zip(lifted, blocks):
            assert modular.normalize(b, 5) == orig
            assert b[-1] == 1

    def test_single_block_is_exact(self):
        lifted = modular.hensel_lift_blocks(P_INT, [modular.normalize(P_INT, 2)], 2, 9)
        assert lifted == [modular.normalize(P_INT, 2**9)]

    def test_ramified_block_lift(self):
        # p mod 37 has blocks (x-4)^2 and (x-30): lift the multiplicity-2
        # block as a single unit.
        g2 = modular.mul((33, 1), (33, 1), 37)
        lifted = modular.hensel_lift_blocks(P_INT, [g2, (7, 1)], 37, 4)
        modulus = 37**4
        prod = modular.mul(lifted[0], lifted[1], modulus)
        assert prod == modular.normalize(P_INT, modulus)

    def test_rejects_non_coprime(self):
        with pytest.raises(InvalidInputError):
            modular.hensel_lift_blocks((0, 0, 1), [(0, 1), (0, 1)], 5, 3)


class TestFiniteField:
    def test_f4_table(self):
        f4 = FiniteField(2, (1, 1, 1))
        els = list(f4.elements())
        assert len(els) == 4
        t = (0, 1)
        assert f4.mul(t, t) == f4.add(t, f4.one)  # t^2 = t + 1
        assert f4.pow(t, 3) == f4.one

    def test_f9_squares(self):
        f9 = FiniteField(3, modular.find_irreducible(3, 2))
        squares = {f9.mul(e, e) for e in f9.elements()}
        assert len(squares) == 5  # (9-1)/2 nonzero squares plus zero
        # Euler's criterion: a nonzero a is a square iff a^((9-1)/2) = 1
        for e in filter(None, f9.elements()):
            assert (f9.pow(e, 4) == f9.one) is (e in squares)

    def test_minus_one_square_iff_q_mod_4(self):
        # Classical: -1 is a square in F_q (q odd) iff q = 1 mod 4.
        for ell, d, expect in [(5, 1, True), (3, 1, False), (3, 2, True), (7, 1, False), (13, 1, True)]:
            field = FiniteField(ell, modular.find_irreducible(ell, d))
            minus_one = (ell - 1,)
            assert any(field.mul(e, e) == minus_one for e in field.elements()) is expect

    def test_frobenius_fixes_prime_field(self):
        f8 = FiniteField(2, modular.find_irreducible(2, 3))
        assert f8.frobenius(f8.one) == f8.one
        # Frobenius cubed is the identity on F_8.
        for e in f8.elements():
            assert f8.frobenius(e, 3) == e

    def test_rejects_reducible_modulus(self):
        with pytest.raises(InvalidInputError):
            FiniteField(2, (1, 0, 1))  # x^2+1 = (x+1)^2 mod 2


class TestIrreducibleSearch:
    def test_deterministic_and_correct(self):
        g1 = modular.find_irreducible(2, 2)
        assert g1 == (1, 1, 1)
        assert modular.find_irreducible(2, 2) == g1
        for ell, d in [(2, 3), (3, 2), (5, 2), (19, 2)]:
            g = modular.find_irreducible(ell, d)
            assert modular.degree(g) == d
            assert modular.is_irreducible_mod(g, ell)
