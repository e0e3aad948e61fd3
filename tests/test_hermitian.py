"""Diagonal hermitian forms: signatures, equivalence, verdicts, seed pairs."""

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcert import hermitian, local
from latcert.errors import InconclusiveError, InvalidInputError
from latcert.hermitian import (
    FAIL,
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    PASS,
    UNKNOWN,
    ComponentCheck,
    HermitianForm,
    SeedVerdict,
    forms_equivalent,
    group_isomorphism_verdict,
    indefinite_places,
    seed_pair_check,
    signature_pattern,
    twist_pattern,
)
from latcert.number_field import CMExtension, FieldElement, NumberField
from latcert.polynomials import Polynomial
from latcert.search import SearchConfig, field_candidates

F = NumberField(Polynomial((1, -3, -1, 1)))
ALPHA = F.generator()
EXT = CMExtension(F, F.from_rational(-1))
H1 = HermitianForm(EXT, (-ALPHA, -ALPHA, F.from_rational(-1)))
H2 = HermitianForm(EXT, (2 - ALPHA * ALPHA, 2 - ALPHA * ALPHA, F.from_rational(-1)))
TAU = (1, 0, 2)


def components(verdict):
    """The verdict's component checks by name."""
    return {c.name: c for c in verdict.components}


class TestForms:
    def test_rejects_zero_entry(self):
        with pytest.raises(InvalidInputError):
            HermitianForm(EXT, (ALPHA, F.zero(), ALPHA))

    def test_rejects_empty_diagonal(self):
        with pytest.raises(InvalidInputError):
            HermitianForm(EXT, ())

    def test_coerces_rational_entries(self):
        h = HermitianForm(EXT, (1, Fraction(-2, 3), 5))
        assert h.rank == 3 and all(not a.is_zero() for a in h.diag)

    def test_rejects_foreign_entries(self):
        other = NumberField(Polynomial((-2, 0, 1)))
        for entry in (other.generator(), 0.5, "1"):
            with pytest.raises(InvalidInputError):
                HermitianForm(EXT, (entry,))
            with pytest.raises(InvalidInputError):
                H1.scale(entry)

    def test_scale_by_zero(self):
        with pytest.raises(InvalidInputError):
            H1.scale(0)


class TestSignatures:
    def test_first_form_pattern(self):
        assert signature_pattern(H1) == ((2, 1), (0, 3), (0, 3))

    def test_second_form_pattern(self):
        assert signature_pattern(H2) == ((0, 3), (2, 1), (0, 3))

    def test_identity_form_pattern(self):
        ones = HermitianForm(EXT, (1, 1, 1))
        assert signature_pattern(ones) == ((3, 0), (3, 0), (3, 0))

    def test_indefinite_places_differ(self):
        assert indefinite_places(H1) == (0,)
        assert indefinite_places(H2) == (1,)

    def test_each_distinct_entry_is_evaluated_once_per_place(self, monkeypatch):
        calls = []
        sign_at = FieldElement.sign_at

        def counted(self, place):
            calls.append(place)
            return sign_at(self, place)

        monkeypatch.setattr(FieldElement, "sign_at", counted)
        h = HermitianForm(EXT, (-ALPHA,) * 4 + (F.from_rational(-1),))
        # two distinct entries at three places, not five entries at three
        assert len(calls) == 6
        assert h.signatures == ((4, 1), (0, 5), (0, 5))

    def test_pattern_entries_sum_to_rank(self):
        for h in (H1, H2):
            assert all(p + q == h.rank for p, q in signature_pattern(h))

    def test_scaling_flips_but_preserves_gap(self):
        # |pos - neg| per place is invariant under any nonzero scaling
        for lam in (ALPHA, -ALPHA, ALPHA * ALPHA - 2, F.from_rational(-7)):
            scaled = H1.scale(lam)
            for (p1, q1), (p2, q2) in zip(signature_pattern(H1), signature_pattern(scaled)):
                assert abs(p1 - q1) == abs(p2 - q2)

    def test_permutation_of_entries_preserves_pattern(self):
        a, b, c = ALPHA, ALPHA + 1, F.from_rational(-1)
        assert signature_pattern(HermitianForm(EXT, (a, b, c))) == signature_pattern(
            HermitianForm(EXT, (b, a, c))
        )


class TestGlobalInvariant:
    def test_discriminant_of_first_form(self):
        assert H1.rank == 3
        assert H1.disc == -(ALPHA * ALPHA)

    def test_definite_form_invariant(self):
        h = HermitianForm(EXT, (-1, -1, -1))
        assert h.disc == F.from_rational(-1)
        assert h.signatures == ((0, 3), (0, 3), (0, 3))

    def test_scaling_multiplies_disc_by_lambda_cubed(self):
        lam = ALPHA + 2
        assert H1.scale(lam).disc == lam**3 * H1.disc

    def test_invariants_are_not_arguments(self):
        with pytest.raises(TypeError):
            HermitianForm(EXT, (1, 1, 1), signatures=((3, 0),) * 3)
        with pytest.raises(TypeError):
            HermitianForm(EXT, (1, 1, 1), disc=F.one())

    def test_equality_and_hash_ignore_invariants(self):
        twin = HermitianForm(EXT, H1.diag)
        object.__setattr__(twin, "signatures", ())
        object.__setattr__(twin, "disc", F.one())
        assert twin == H1 and hash(twin) == hash(H1)
        assert twin != HermitianForm(EXT, (1, 1, 1))


class TestEquivalence:
    def test_reflexive(self):
        assert forms_equivalent(H1, H1)
        assert forms_equivalent(H2, H2)

    def test_reference_pair_not_equivalent(self):
        assert not forms_equivalent(H1, H2)

    def test_entry_permutation_equivalent(self):
        a, b, c = ALPHA, ALPHA + 1, F.from_rational(-1)
        assert forms_equivalent(
            HermitianForm(EXT, (a, b, c)), HermitianForm(EXT, (b, a, c))
        )

    def test_square_scaled_twin(self):
        # (alpha - alpha^2) and (2 - alpha^2) have matching signs everywhere
        # and square discriminant ratio
        twin = HermitianForm(EXT, (ALPHA - ALPHA * ALPHA, ALPHA - ALPHA * ALPHA, -1))
        assert forms_equivalent(H2, twin)

    def test_rank_mismatch(self):
        assert not forms_equivalent(H1, HermitianForm(EXT, (ALPHA,)))

    def test_different_extensions_rejected(self):
        other = CMExtension(F, F.from_rational(-2))
        with pytest.raises(InvalidInputError):
            forms_equivalent(H1, HermitianForm(other, (ALPHA, ALPHA, -1)))

    def test_symmetric(self):
        twin = HermitianForm(EXT, (ALPHA - ALPHA * ALPHA, ALPHA - ALPHA * ALPHA, -1))
        assert forms_equivalent(twin, H2)

    @given(st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=25, deadline=None)
    def test_scaling_by_nonzero_rational_square(self, n, d):
        if n == 0 or d == 0:
            return
        lam = Fraction(n * n, d * d)
        # odd rank: disc changes by lam^3 ~ lam mod squares, and a rational
        # square is a norm, so equivalence with the original must hold
        scaled = H1.scale(lam)
        assert scaled.signatures == signature_pattern(scaled) == H1.signatures
        assert forms_equivalent(scaled, H1)


class TestVerdict:
    def test_reference_pair_not_isomorphic(self):
        v = group_isomorphism_verdict(H1, H2)
        assert v.status == NOT_ISOMORPHIC
        assert v.witness_place == 0

    def test_self_isomorphic_with_identity_scaling(self):
        v = group_isomorphism_verdict(H1, H1)
        assert v.status == ISOMORPHIC
        assert v.scaling == F.one()

    def test_negated_form_isomorphic(self):
        v = group_isomorphism_verdict(H1, -H1)
        assert v.status == ISOMORPHIC
        assert v.scaling == F.from_rational(-1)

    def test_unit_scaled_form_isomorphic(self):
        unit = ALPHA * ALPHA - 2
        scaled = H1.scale(unit)
        v = group_isomorphism_verdict(scaled, H1)
        assert v.status == ISOMORPHIC
        assert v.scaling == unit ** -3
        assert forms_equivalent(scaled.scale(v.scaling), H1)

    def test_even_rank_rejected(self):
        pair = HermitianForm(EXT, (ALPHA, -1))
        with pytest.raises(InvalidInputError):
            group_isomorphism_verdict(pair, pair)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            group_isomorphism_verdict(H1, HermitianForm(EXT, (ALPHA,)))

    def test_non_norm_discriminant_ratio_is_the_scaling(self):
        # both forms are positive definite everywhere, but their
        # discriminants differ by the non-norm alpha^2 + 2, so the forms are
        # not equivalent; scaling by that ratio makes them so
        c = ALPHA * ALPHA + 2
        report = local.hilbert_product_check(EXT, c)
        assert report.conclusive and report.minus_count > 0
        a = HermitianForm(EXT, (1, 1, 1))
        b = HermitianForm(EXT, (1, 1, c))
        assert not forms_equivalent(a, b)
        v = group_isomorphism_verdict(a, b)
        assert (v.status, v.scaling, v.witness_place) == (ISOMORPHIC, c, None)
        assert forms_equivalent(a.scale(v.scaling), b)

    def test_undecidable_product_check_needs_no_search(self):
        # 2 divides the index of Z[sqrt 5], so the product check on 3 in
        # Q(sqrt 5) is undecidable at the place above 2; the verdict needs
        # no product check, and the scaled discriminant ratio is 9
        field = NumberField(Polynomial((-5, 0, 1)))
        ext = CMExtension(field, field.from_rational(-1))
        assert local.hilbert_product_check(ext, 3).unknown_labels == ("prime 2",)
        a = HermitianForm(ext, (1, 1, 1))
        b = HermitianForm(ext, (1, 1, 3))
        v = group_isomorphism_verdict(a, b)
        assert (v.status, v.scaling, v.detail) == (
            ISOMORPHIC, field.from_rational(3), "lambda = 3,0"
        )
        assert forms_equivalent(a.scale(v.scaling), b)


def census_fields():
    """The fields of the cubic search at bound 4, the 10 in which 2 divides
    the index of the polynomial order among them, and Q(sqrt 5) as Z[sqrt 5]."""
    fields = field_candidates(SearchConfig(degree=3, coefficient_bound=4))
    return [*fields, NumberField(Polynomial((-5, 0, 1)))]


@functools.lru_cache(maxsize=None)
def small_census():
    """The fields of the searches at degree 3 and 4, bound 3."""
    return tuple(
        field
        for degree in (3, 4)
        for field in field_candidates(SearchConfig(degree=degree, coefficient_bound=3))
    )


@st.composite
def nonzero_elements(draw, field):
    coords = draw(st.lists(st.integers(-2, 2), min_size=field.degree, max_size=field.degree))
    if not any(coords):
        coords[0] = 1
    return field.element(coords)


class TestLandherr:
    def test_rank_five_signature_sets_differ(self):
        # (4, 1) against (3, 2): indefinite at every place on both sides
        a = HermitianForm(EXT, (1, 1, 1, 1, -1))
        b = HermitianForm(EXT, (1, 1, 1, -1, -1))
        v = group_isomorphism_verdict(a, b)
        assert (v.status, v.witness_place, v.scaling) == (NOT_ISOMORPHIC, 0, None)
        assert v.detail == "real place 0: signatures (4, 1) vs (3, 2)"

    def test_rank_five_scaling_is_the_discriminant_ratio(self):
        # (4, 1) against (1, 4) at every place; the ratio is pinned, since
        # its inverse lies in the same square class and would pass the
        # equivalence check as well
        c = ALPHA * ALPHA + 2
        a = HermitianForm(EXT, (1, 1, 1, 1, -1))
        b = HermitianForm(EXT, (-1, -1, -1, -1, c))
        v = group_isomorphism_verdict(a, b)
        assert (v.status, v.scaling) == (ISOMORPHIC, -c)
        assert forms_equivalent(a.scale(v.scaling), b)

    def test_self_comparison_over_every_census_field(self):
        fields = census_fields()
        index_two = 0
        for field in fields:
            ext = CMExtension(field, field.from_rational(-1))
            h = HermitianForm(ext, (1, field.generator(), -1))
            v = group_isomorphism_verdict(h, h)
            assert (v.status, v.scaling) == (ISOMORPHIC, field.one())
            assert forms_equivalent(h, h)
            index_two += not local.hilbert_product_check(ext, 3).conclusive
        assert (len(fields), index_two) == (87, 11)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_never_a_wrong_verdict(self, data):
        field = data.draw(st.sampled_from(small_census()))
        delta = data.draw(st.sampled_from((-1, -2, -3)))
        rank = data.draw(st.sampled_from((3, 5)))
        ext = CMExtension(field, field.from_rational(delta))
        entries = st.lists(nonzero_elements(field), min_size=rank, max_size=rank)
        h1 = HermitianForm(ext, data.draw(entries))
        if data.draw(st.booleans()):
            # a scaled copy with permuted, square-weighted entries
            mu = data.draw(nonzero_elements(field))
            weights = data.draw(entries)
            order = data.draw(st.permutations(range(rank)))
            h2 = HermitianForm(ext, [mu * h1.diag[i] * weights[i] ** 2 for i in order])
        else:
            h2 = HermitianForm(ext, data.draw(entries))
        differ = [
            j for j, (pq1, pq2) in enumerate(zip(h1.signatures, h2.signatures))
            if sorted(pq1) != sorted(pq2)
        ]
        v = group_isomorphism_verdict(h1, h2)
        if differ:
            assert (v.status, v.witness_place) == (NOT_ISOMORPHIC, differ[0])
            return
        assert v.status == ISOMORPHIC
        assert v.scaling == h2.disc / h1.disc
        try:
            assert forms_equivalent(h1.scale(v.scaling), h2)
        except InconclusiveError:
            pass


class TestTwist:
    def test_identity(self):
        s = signature_pattern(H1)
        assert twist_pattern(s, (0, 1, 2)) == s

    def test_reference_transposition(self):
        assert twist_pattern(signature_pattern(H1), TAU) == signature_pattern(H2)

    def test_involution(self):
        s = signature_pattern(H1)
        assert twist_pattern(twist_pattern(s, TAU), TAU) == s

    def test_size_mismatch(self):
        with pytest.raises(InvalidInputError):
            twist_pattern(signature_pattern(H1), (1, 0))

    def test_non_permutation(self):
        with pytest.raises(InvalidInputError):
            twist_pattern(signature_pattern(H1), (0, 0, 2))

    @given(st.permutations(range(3)), st.permutations(range(3)))
    @settings(max_examples=36, deadline=None)
    def test_group_action(self, t1, t2):
        s = signature_pattern(H1)
        lhs = twist_pattern(twist_pattern(s, t1), t2)
        rhs = twist_pattern(s, tuple(t1[t2[i]] for i in range(3)))  # t2 first, then t1
        assert lhs == rhs


class TestSeedPair:
    def probe(self):
        return local.factor_prime(F, 5)[0]

    def test_reference_seed_passes_all_components(self):
        v = seed_pair_check(H1, H2, TAU, probe_place=self.probe())
        assert v.status == PASS
        assert [c.status for c in v.components] == [PASS, PASS, PASS, PASS]
        names = [c.name for c in v.components]
        assert names == [
            "standing-assumption",
            "non-isomorphism",
            "twist-match",
            "local-rule",
        ]

    def test_no_scaling_search_when_automorphisms_are_nontrivial(self, monkeypatch):
        # x^3 - 3x + 1 is cyclic, so a verdict on the identity composition
        # alone would not settle non-isomorphism.
        cyclic = NumberField(Polynomial((1, -3, 0, 1)))
        beta = cyclic.generator()
        ext = CMExtension(cyclic, cyclic.from_rational(-1))
        h1 = HermitianForm(ext, (beta, beta, -1))
        h2 = HermitianForm(ext, (-beta, -beta, -1))
        calls = []
        verdict = hermitian.group_isomorphism_verdict

        def counted(*args, **kwargs):
            calls.append(args)
            return verdict(*args, **kwargs)

        monkeypatch.setattr(hermitian, "group_isomorphism_verdict", counted)
        v = seed_pair_check(h1, h2, (0, 1, 2))
        assert calls == []
        component = components(v)["non-isomorphism"]
        assert component.status == UNKNOWN
        assert component.detail == "3 field automorphisms; compositions not enumerated"

    @pytest.mark.parametrize(
        "prime, detail",
        [
            (5, "place is split (residue square test), rank 3 odd"),
            (3, "place is inert (residue square test), rank 3 odd"),
            (2, "place is ramified (unit symbol scan), rank 3 odd"),
        ],
    )
    def test_local_rule_names_the_splitting(self, prime, detail):
        place = local.factor_prime(F, prime)[0]
        v = seed_pair_check(H1, H2, TAU, probe_place=place)
        assert components(v)["local-rule"].status == PASS
        assert components(v)["local-rule"].detail == detail
        assert v.status == PASS

    def test_undecided_splitting_leaves_local_rule_unknown(self, monkeypatch):
        def undecided(ext, place):
            raise InconclusiveError("splitting undecided at 5#0")

        monkeypatch.setattr(hermitian, "splitting_in_E", undecided)
        v = seed_pair_check(H1, H2, TAU, probe_place=self.probe())
        assert components(v)["local-rule"].status == UNKNOWN
        assert components(v)["local-rule"].detail == "splitting undecided at 5#0"
        assert v.status == UNKNOWN

    def test_self_pair_fails_non_isomorphism(self):
        v = seed_pair_check(H1, H1, (0, 1, 2))
        assert v.status == FAIL
        assert components(v)["non-isomorphism"].status == FAIL
        assert components(v)["standing-assumption"].status == PASS

    def test_definite_partner_fails_standing_assumption(self):
        v = seed_pair_check(H1, HermitianForm(EXT, (1, 1, 1)), TAU)
        assert v.status == FAIL
        assert components(v)["standing-assumption"].status == FAIL

    def test_wrong_twist_fails(self):
        v = seed_pair_check(H1, H2, (0, 1, 2))
        assert components(v)["twist-match"].status == FAIL

    def test_even_rank_rejected(self):
        pair = HermitianForm(EXT, (ALPHA, -1))
        with pytest.raises(InvalidInputError):
            seed_pair_check(pair, pair, (0, 1, 2))

    def test_result_string_mentions_components(self):
        v = seed_pair_check(H1, H2, TAU)
        assert "twist-match" in str(v)


def worst(statuses):
    """FAIL over UNKNOWN over PASS, the rule a seed verdict follows."""
    return FAIL if FAIL in statuses else UNKNOWN if UNKNOWN in statuses else PASS


class TestSeedVerdict:
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_status_is_the_worst_component(self, size):
        for statuses in itertools.product((PASS, FAIL, UNKNOWN), repeat=size):
            checks = tuple(ComponentCheck(f"c{i}", s, "") for i, s in enumerate(statuses))
            status = SeedVerdict(checks).status
            assert status == worst(statuses)
            assert status != PASS or set(statuses) == {PASS}

    def test_no_components_is_no_verdict(self):
        with pytest.raises(InvalidInputError):
            SeedVerdict(())

    def test_seed_pair_check_status_is_the_worst_component(self):
        # x^3 - 3x + 1 is cyclic, so its seed leaves non-isomorphism UNKNOWN
        cyclic = NumberField(Polynomial((1, -3, 0, 1)))
        beta = cyclic.generator()
        ext = CMExtension(cyclic, cyclic.from_rational(-1))
        seeds = [
            ((H1, H2, TAU, local.factor_prime(F, 5)[0]), PASS),
            ((H1, H2, TAU, local.factor_prime(F, 2)[0]), PASS),
            ((H1, H1, (0, 1, 2), None), FAIL),
            ((H1, HermitianForm(EXT, (1, 1, 1)), TAU, None), FAIL),
            ((H1, H2, (0, 1, 2), None), FAIL),
            ((HermitianForm(ext, (beta - 1, beta - 1, -1)),
              HermitianForm(ext, (-beta - 1, -beta - 1, -1)), (2, 1, 0), None), UNKNOWN),
        ]
        for (h1, h2, tau, probe), expected in seeds:
            v = seed_pair_check(h1, h2, tau, probe_place=probe)
            assert v.status == expected == worst({c.status for c in v.components})
