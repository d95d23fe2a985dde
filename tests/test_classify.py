import random

import pytest

from pathcoalg import classify, hopf
from pathcoalg.classify import (
    IsoWitness,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    centralizer_index,
    compose,
    rho_representation,
    verify_witness,
    witness_from_matrix,
)
from pathcoalg.errors import NotCanonical, NotClosed, NotDiscreteParams
from pathcoalg.hopf import validate_params
from pathcoalg.scalar import ONE, ZERO, cyc


def P(m, n, lam, s, t, k):
    return validate_params(m, n, lam, s, t, k)


class TestAreIsomorphic:
    def test_reflexive(self):
        p = P(0, 0, 1, 1, 1, 5)
        w = are_isomorphic(p, p)
        assert w == IsoWitness("phi", 1, 1)
        assert verify_witness(w, p, p)

    def test_square_rescaling(self):
        p1 = P(0, 0, 1, 4, 9, 0)
        p2 = P(0, 0, 1, 1, 1, 0)
        w = are_isomorphic(p1, p2)
        assert w == IsoWitness("phi", 2, 3)
        assert verify_witness(w, p1, p2)

    def test_k_compatibility_obstruction(self):
        p1 = P(0, 0, 1, 1, 1, 1)
        p2 = P(0, 0, 1, 1, 1, "z3")
        assert are_isomorphic(p1, p2) is None

    def test_k_sign_choice(self):
        p1 = P(0, 0, 1, 1, 1, -6)
        p2 = P(0, 0, 1, 1, 1, 6)
        w = are_isomorphic(p1, p2)
        assert w is not None
        assert verify_witness(w, p1, p2)

    def test_zero_pattern_mismatch(self):
        assert are_isomorphic(P(4, 2, 1, 1, 0, 0), P(4, 2, 1, 0, 1, 0)) is None

    def test_lambda_invariant(self):
        assert are_isomorphic(P(2, 0, 1, 0, 0, 0), P(2, 0, -1, 0, 0, 0)) is None

    def test_grid_pair_invariant(self):
        assert are_isomorphic(P(2, 0, 1, 0, 0, 0), P(4, 2, 1, 0, 0, 0)) is None

    def test_swap_case(self):
        p1 = P(0, 0, 1, 0, 1, 0)
        p2 = P(0, 0, 1, 1, 0, 0)
        w = are_isomorphic(p1, p2)
        assert w is not None and w.kind == "psi"
        assert verify_witness(w, p1, p2)

    def test_swap_needs_matching_pair(self):
        assert are_isomorphic(P(4, 2, 1, 0, 1, 0), P(4, 2, 1, 1, 0, 0)) is None

    def test_swap_on_swapped_pair(self):
        p1 = P(2, -2, 1, 0, 9, 0)
        p2 = P(2, -2, 1, 1, 0, 0)
        w = are_isomorphic(p1, p2)
        assert w is not None and w.kind == "psi" and w.beta == cyc(3)
        assert verify_witness(w, p1, p2)

    def test_symmetric_and_transitive_sample(self):
        rng = random.Random(7)
        squares = [1, 4, 9, "1/4"]
        pool = []
        for _ in range(12):
            s, t = rng.choice([0] + squares), rng.choice([0] + squares)
            k = rng.choice([0, 1, 2]) if (s and t) else 0
            pool.append(P(0, 0, 1, s, t, k))
        for p1 in pool:
            for p2 in pool:
                w12 = are_isomorphic(p1, p2)
                w21 = are_isomorphic(p2, p1)
                assert (w12 is None) == (w21 is None)
                if w12 is not None:
                    assert verify_witness(w12, p1, p2)


class TestVerifyWitness:
    def test_rejects_wrong_lambda(self):
        p1 = P(0, 0, 1, 0, 0, 0)
        p2 = P(0, 0, -1, 0, 0, 0)
        assert not verify_witness(IsoWitness("phi", 1, 1), p1, p2)

    def test_rejects_zero_scale(self):
        p = P(0, 0, 1, 0, 0, 0)
        assert not verify_witness(IsoWitness("phi", 0, 1), p, p)

    def test_rejects_wrong_scale(self):
        p1 = P(0, 0, 1, 4, 0, 0)
        p2 = P(0, 0, 1, 1, 0, 0)
        assert not verify_witness(IsoWitness("phi", 3, 1), p1, p2)

    def test_psi_on_swapped_grid(self):
        p1 = P(3, 1, 1, 1, 1, 0)
        p2 = P(1, 3, 1, 1, 1, 0)
        assert verify_witness(IsoWitness("psi", 1, 1), p1, p2)

    def test_psi_relation_check_wider_than_lemma(self):
        # The relation-level check accepts the swap whenever the two skewing
        # scalars are mutually inverse; the classification procedures restrict
        # the swap to skewing scalar 1 and never emit such witnesses.
        p = P(2, -2, -1, 0, 0, 0)
        assert verify_witness(IsoWitness("psi", 1, 1), p, p)
        assert are_isomorphic(P(2, -2, -1, 0, 1, 0), P(2, -2, -1, 1, 0, 0)) is None

    def test_witness_family_is_built_once_per_key(self, monkeypatch):
        calls = []
        build = hopf._generic_params

        def counting(m, n):
            calls.append((m, n))
            return build(m, n)

        monkeypatch.setattr(hopf, "_generic_params", counting)
        p1, p2 = P(3, 1, 1, 1, 1, 1), P(3, 1, 1, 4, 1, 2)
        assert verify_witness(IsoWitness("phi", 1, 1), p1, p1)
        assert calls == [(3, 1), (3, 1)]
        assert verify_witness(are_isomorphic(p1, p2), p1, p2)
        assert not verify_witness(IsoWitness("phi", 3, 1), p1, p2)
        assert not verify_witness(IsoWitness("phi", "z4", 1), P(3, 1, 1, 0, 0, 0), p2)
        assert len(calls) == 2
        q = P(2, -2, 1, 1, 0, 0)
        assert verify_witness(IsoWitness("psi", 1, 1), q, P(2, -2, 1, 0, 1, 0))
        assert not verify_witness(IsoWitness("phi", 1, 1), q, P(2, -2, 1, 0, 1, 0))
        assert not verify_witness(IsoWitness("phi", 1, 1), p1, q)
        assert calls == [(3, 1)] * 2 + [(2, -2)] * 4 + [(3, 1), (2, -2)]
        for kind in ("phi", "psi"):
            verify_witness(IsoWitness(kind, 2, -1), q, q)
        assert len(calls) == 8
        assert classify._witness_family.cache_info().currsize == 4

    def test_psi_fails_at_mismatched_skewing(self):
        p1 = P(4, -4, "z4", 0, 0, 0)
        assert not verify_witness(IsoWitness("psi", 1, 1), p1, p1)
        p2 = P(4, -4, "-z4", 0, 0, 0)  # inverse skewing scalar
        assert verify_witness(IsoWitness("psi", 1, 1), p1, p2)


class TestCanonicalForm:
    CASES = [
        ((0, 0, 1, 0, 0, 0), "1", (0, 0, 1, 0, 0, 0)),
        ((4, 0, "z4", 0, 0, 0), "1", (4, 0, "z4", 0, 0, 0)),
        ((2, 0, -1, 0, 4, 0), "2", (2, 0, -1, 0, 1, 0)),
        ((2, 0, -1, 9, 0, 0), "3", (2, 0, -1, 1, 0, 0)),
        ((4, 2, -1, 4, 9, 0), "4", (4, 2, -1, 1, 1, 0)),
        ((0, 0, 1, 4, 1, 0), "5", (0, 0, 1, 1, 1, 0)),
        ((0, 0, 1, 1, 1, 3), "5", (0, 0, 1, 1, 1, 3)),
        ((3, 1, 1, 9, 0, 0), "6", (3, 1, 1, 1, 0, 0)),
        ((3, 1, 1, 0, 9, 0), "6'", (3, 1, 1, 0, 1, 0)),
        ((0, 0, 1, 0, 9, 0), "6", (0, 0, 1, 1, 0, 0)),
        ((0, 0, 1, 1, 0, 3), "7", (0, 0, 1, 1, 0, 1)),
        ((3, 1, 1, 0, 4, 5), "7'", (3, 1, 1, 0, 1, 1)),
        ((2, -2, 1, 0, 4, 5), "7", (2, -2, 1, 1, 0, 1)),
        ((4, 2, 1, 0, 0, 7), "8", (4, 2, 1, 0, 0, 1)),
    ]

    @pytest.mark.parametrize("raw,tag,canon", CASES)
    def test_examples(self, raw, tag, canon):
        got_tag, got, w = canonical_form(P(*raw))
        assert got_tag == tag
        assert got == P(*canon)
        assert verify_witness(w, P(*raw), got)

    def test_idempotent(self):
        for raw, tag, canon in self.CASES:
            tag2, again, _ = canonical_form(P(*canon))
            assert tag2 == tag
            assert again == P(*canon)

    def test_k_sign_identification(self):
        t1, c1, _ = canonical_form(P(0, 0, 1, 1, 1, -3))
        t2, c2, _ = canonical_form(P(0, 0, 1, 1, 1, 3))
        assert t1 == t2 == "5"
        assert c1 == c2

    def test_requires_discrete(self):
        with pytest.raises(NotDiscreteParams):
            canonical_form(P(2, 2, 1, 0, 0, 0))

    def test_representatives_pairwise_non_isomorphic(self):
        reps = [
            P(2, 0, 1, 0, 0, 0),
            P(2, 0, -1, 0, 1, 0),
            P(2, 0, -1, 1, 0, 0),
            P(2, 0, -1, 1, 1, 0),
            P(2, 0, 1, 1, 1, 0),
            P(2, 0, 1, 1, 1, 1),
            P(2, 0, 1, 1, 0, 0),
            P(2, 0, 1, 0, 1, 0),
            P(2, 0, 1, 1, 0, 1),
            P(2, 0, 1, 0, 1, 1),
            P(2, 0, 1, 0, 0, 1),
        ]
        for i, p1 in enumerate(reps):
            for j, p2 in enumerate(reps):
                if i != j:
                    assert are_isomorphic(p1, p2) is None

    def test_primed_merge_only_at_opposite_pair(self):
        # m + n = 0: primed families collapse
        assert canonical_form(P(2, -2, 1, 0, 1, 0))[0] == "6"
        assert canonical_form(P(2, -2, 1, 0, 1, 1))[0] == "7"
        # m + n != 0: they stay distinct
        assert canonical_form(P(4, 2, 1, 0, 1, 0))[0] == "6'"
        assert canonical_form(P(4, 2, 1, 0, 1, 1))[0] == "7'"


class TestAutomorphismGroup:
    TABLE_I = [
        ((4, 2, 1, 0, 0, 0), "1", "Kx x Kx", False),
        ((4, 2, -1, 0, 1, 0), "2", "Kx x Z/2", False),
        ((4, 2, -1, 1, 0, 0), "3", "Kx x Z/2", False),
        ((4, 2, -1, 1, 1, 0), "4", "Z/2 x Z/2", False),
        ((4, 2, 1, 1, 1, 0), "5A", "Z/2 x Z/2", False),
        ((4, 2, 1, 1, 1, 1), "5B", "Z/2", False),
        ((4, 2, 1, 1, 0, 0), "6", "Kx x Z/2", False),
        ((4, 2, 1, 0, 1, 0), "6'", "Kx x Z/2", False),
        ((4, 2, 1, 1, 0, 1), "7", "Z/2", False),
        ((4, 2, 1, 0, 1, 1), "7'", "Z/2", False),
        ((4, 2, 1, 0, 0, 1), "8", "Kx", False),
    ]
    TABLE_II = [
        ((2, -2, 1, 0, 0, 0), "1", "(Kx x Kx) : Z/2", True),
        ((2, -2, -1, 0, 0, 0), "1", "Kx x Kx", False),
        ((2, -2, -1, 0, 1, 0), "2", "Kx x Z/2", False),
        ((2, -2, -1, 1, 0, 0), "3", "Kx x Z/2", False),
        ((2, -2, -1, 1, 1, 0), "4", "Z/2 x Z/2", False),
        ((2, -2, 1, 1, 1, 0), "5A", "D_4", True),
        ((2, -2, 1, 1, 1, 1), "5B", "Z/2 x Z/2", True),
        ((2, -2, 1, 1, 0, 0), "6", "Kx x Z/2", False),
        ((2, -2, 1, 1, 0, 1), "7", "Z/2", False),
        ((2, -2, 1, 0, 0, 1), "8", "Dih(Kx)", True),
    ]

    @pytest.mark.parametrize("raw,family,name,swap", TABLE_I + TABLE_II)
    def test_table_rows(self, raw, family, name, swap):
        aut = automorphism_group(P(*raw))
        assert aut.family == family
        assert aut.group_name == name
        assert aut.includes_swap == swap

    def test_zero_pair_is_table_two(self):
        assert automorphism_group(P(0, 0, 1, 0, 0, 0)).includes_swap
        assert automorphism_group(P(0, 0, 1, 1, 1, 0)).group_name == "D_4"
        assert automorphism_group(P(0, 0, 1, 0, 0, 1)).group_name == "Dih(Kx)"

    def test_not_canonical(self):
        with pytest.raises(NotCanonical):
            automorphism_group(P(0, 0, 1, 4, 1, 0))
        with pytest.raises(NotCanonical):
            automorphism_group(P(2, -2, 1, 0, 1, 0))  # merges into family 6

    def test_aut_elements_are_automorphisms(self):
        p = P(0, 0, 1, 1, 1, 0)  # D_4 row
        elements = _d4_elements()
        for w in elements:
            assert verify_witness(w, p, p)


def _d4_elements():
    out = []
    for kind in ("phi", "psi"):
        for a in (1, -1):
            for b in (1, -1):
                out.append(IsoWitness(kind, a, b))
    return out


class TestRhoRepresentation:
    def test_phi_diagonal(self):
        (mat,) = rho_representation([IsoWitness("phi", 2, 3)])
        assert mat == [[cyc(2), ZERO], [ZERO, cyc(3)]]

    def test_psi_antidiagonal(self):
        (mat,) = rho_representation([IsoWitness("psi", 2, 3)])
        assert mat == [[ZERO, cyc(2)], [cyc(3), ZERO]]

    def test_identity(self):
        (mat,) = rho_representation([IsoWitness("phi", 1, 1)])
        assert mat == [[ONE, ZERO], [ZERO, ONE]]

    def test_composition_swaps(self):
        w = compose(IsoWitness("psi", 1, 1), IsoWitness("phi", 2, 3))
        assert w.kind == "psi"
        back = compose(w, IsoWitness("psi", 1, 1))
        assert back.kind == "phi"
        # conjugation by the swap exchanges the diagonal entries
        conj = compose(compose(IsoWitness("psi", 1, 1), IsoWitness("phi", 2, 3)),
                       IsoWitness("psi", 1, 1))
        assert conj == IsoWitness("phi", 3, 2)

    def test_two_psi_compose_to_phi(self):
        w = compose(IsoWitness("psi", "a", 2) if False else IsoWitness("psi", 5, 2),
                    IsoWitness("psi", 3, 7))
        assert w.kind == "phi"
        assert (w.alpha, w.beta) == (cyc(35), cyc(6))

    def test_witness_from_matrix_rejects_mixed(self):
        assert witness_from_matrix([[ONE, ONE], [ZERO, ONE]]) is None

    def test_d4_multiplicative(self):
        mats = rho_representation(_d4_elements())
        assert len(mats) == 8


class TestCentralizerIndex:
    def test_all_phi(self):
        ws = [IsoWitness("phi", a, b) for a in (1, -1) for b in (1, -1)]
        assert centralizer_index(ws) == 1

    def test_with_swap(self):
        assert centralizer_index(_d4_elements()) == 2

    def test_not_closed(self):
        with pytest.raises(NotClosed):
            centralizer_index([IsoWitness("phi", 1, 1), IsoWitness("phi", 2, 1)])
