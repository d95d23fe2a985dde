import random

import pytest

from pathcoalg import hopf
from pathcoalg.classify import (
    IsoWitness,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    verify_witness,
)
from pathcoalg.errors import NotCanonical, NotDiscreteParams
from pathcoalg.hopf import validate_params
from pathcoalg.scalar import cyc


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

    @pytest.mark.parametrize("raw1, raw2, witness", [
        ((0, 0, 1, 1, 0, 1), (0, 0, 1, 4, 0, 2), ("phi", "1/2", 1)),  # t = 0: beta = k/alpha
        ((0, 0, 1, 0, 1, 1), (0, 0, 1, 0, 9, 3), ("phi", 1, "1/3")),  # s = 0: alpha = k/beta
        ((0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 5), ("phi", 1, "1/5")),  # s = t = 0
        ((0, 0, 1, 0, 4, "z4"), (0, 0, 1, 0, 1, 1), ("phi", "1/2*z4", 2)),
        ((2, -2, 1, 1, 0, 1), (2, -2, 1, 0, 4, 2), ("psi", "1/2", 1)),
    ])
    def test_k_with_a_zero_skew_parameter(self, raw1, raw2, witness):
        # k != 0 with s2 or t2 zero: the scale with no square root is read off k
        p1, p2 = P(*raw1), P(*raw2)
        kind, alpha, beta = witness
        w = are_isomorphic(p1, p2)
        assert w == IsoWitness(kind, cyc(alpha), cyc(beta))
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

    @pytest.mark.parametrize("kind, pair1, pair2", [
        ("phi", (4, 0), (2, 0)),
        ("phi", (0, 0), (2, 0)),
        ("phi", (2, 0), (4, 0)),
        ("phi", (6, 2), (3, 1)),
        ("psi", (0, 0), (0, 2)),
        ("psi", (6, 2), (1, 3)),
    ])
    def test_rejects_a_quotient_map(self, kind, pair1, pair2):
        # Each map but B(2, 0) -> B(4, 0), where a^2 = 1 fails, sends every
        # relation of the source to 0: it maps the grouplike group (Z/4 x Z
        # for B(4, 0), Z^2 for B(0, 0)) onto a proper quotient (Z/2 x Z for
        # B(2, 0)), so it is no isomorphism
        p1, p2 = P(*pair1, 1, 0, 0, 0), P(*pair2, 1, 0, 0, 0)
        assert not verify_witness(IsoWitness(kind, 1, 1), p1, p2)
        assert are_isomorphic(p1, p2) is None

    @pytest.mark.parametrize("kind, raw1, raw2", [
        ("phi", (2, 0, 1, 1, 0, 0), (2, 0, 1, 0, 0, 0)),  # s(1 - a^2), a^2 = 1
        ("phi", (0, 2, 1, 1, 1, 0), (0, 2, 1, 1, 0, 0)),  # t(1 - b^2), b^2 = 1
        ("phi", (1, -1, 1, 1, 1, 1), (1, -1, 1, 1, 1, 0)),  # k(1 - ab), ab = 1
        ("psi", (2, 0, 1, 1, 0, 0), (0, 2, 1, 0, 0, 0)),  # x -> y, y^2 = t(1 - b^2) void
    ])
    def test_void_term_is_waived(self, kind, raw1, raw2):
        # the term is 0 in the target, so the parameter in front of it is free
        assert verify_witness(IsoWitness(kind, 1, 1), P(*raw1), P(*raw2))

    def test_same_lattice_other_generator(self):
        # (m, n) and (-m, -n) span one lattice, as do (m, n) and (n, m) for psi
        p = P(2, -2, 1, 0, 0, 0)
        q = hopf.BmnParams(-2, 2, *map(cyc, (1, 0, 0, 0)))
        assert verify_witness(IsoWitness("phi", 1, 1), p, q)
        assert verify_witness(IsoWitness("psi", 1, 1), P(3, 1, 1, 0, 0, 0), P(1, 3, 1, 0, 0, 0))

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

    @pytest.mark.parametrize("raw,family,name,swap", TABLE_I + TABLE_II)
    def test_constraints_match_witnesses(self, raw, family, name, swap):
        # phi(alpha, beta) is an automorphism iff alpha and beta meet the
        # row's constraints; psi is one on the same scalars iff the row has
        # the swap (at skewing scalar -1 the relation check also admits psi,
        # see TestVerifyWitness)
        p = P(*raw)
        constraints = automorphism_group(p).to_json()["constraints"]
        scalars = [cyc(c) for c in (1, -1, 2, "1/2", "z4", "z4^3")]

        def allowed(alpha, beta):
            square = {"any": lambda c: True, "square is 1": lambda c: c * c == cyc(1)}
            return (square[constraints["alpha"]](alpha) and square[constraints["beta"]](beta)
                    and (constraints["alpha_beta"] is None or alpha * beta == cyc(1)))

        for alpha in scalars:
            for beta in scalars:
                assert verify_witness(IsoWitness("phi", alpha, beta), p, p) == allowed(alpha, beta)
                psi = verify_witness(IsoWitness("psi", alpha, beta), p, p)
                if swap:
                    assert psi == allowed(alpha, beta)
                elif p.lam == cyc(1):
                    assert not psi


def _d4_elements():
    out = []
    for kind in ("phi", "psi"):
        for a in (1, -1):
            for b in (1, -1):
                out.append(IsoWitness(kind, a, b))
    return out



def compose(second, first):
    """The witness `second` after `first`: each generator's image under
    `first`, scaled, then mapped by `second` (phi fixes x and y, psi swaps
    them; alpha scales the image of x and beta that of y)."""
    def image(w, gen):
        target = gen if w.kind == "phi" else {"x": "y", "y": "x"}[gen]
        return target, w.alpha if gen == "x" else w.beta

    scaled = {}
    for gen in ("x", "y"):
        mid, c = image(first, gen)
        target, d = image(second, mid)
        scaled[gen] = (target, c * d)
    kind = "phi" if scaled["x"][0] == "x" else "psi"
    return IsoWitness(kind, scaled["x"][1], scaled["y"][1])


class TestWitnessComposition:
    def test_automorphisms_closed_under_composition(self):
        for p, elements in [
            (P(0, 0, 1, 1, 1, 0), _d4_elements()),
            (P(2, -2, 1, 0, 0, 1), [IsoWitness(kind, c, cyc(c).inverse())
                                    for kind in ("phi", "psi") for c in (1, -1, 2, "z4")]),
        ]:
            assert all(verify_witness(w, p, p) for w in elements)
            for w1 in elements:
                for w2 in elements:
                    assert verify_witness(compose(w1, w2), p, p)

    def test_two_swaps_compose_to_phi(self):
        w = compose(IsoWitness("psi", 5, 2), IsoWitness("psi", 3, 7))
        assert w == IsoWitness("phi", 6, 35)
        assert compose(IsoWitness("psi", 1, 1), IsoWitness("phi", 2, 3)) == IsoWitness("psi", 2, 3)
        # conjugation by the swap exchanges the scalars
        conj = compose(IsoWitness("psi", 1, 1),
                       compose(IsoWitness("phi", 2, 3), IsoWitness("psi", 1, 1)))
        assert conj == IsoWitness("phi", 3, 2)

    def test_isomorphisms_compose(self):
        # B(3, 1) -> B(1, 3) by a swap, then a rescaling of s inside B(1, 3)
        p1, p2, p3 = P(3, 1, 1, 1, 1, 0), P(1, 3, 1, 1, 1, 0), P(1, 3, 1, 4, 1, 0)
        w12, w23 = are_isomorphic(p1, p2), are_isomorphic(p2, p3)
        assert w12.kind == "psi" and w23.kind == "phi"
        assert verify_witness(compose(w23, w12), p1, p3)
        # the order matters: the rescaling first scales the wrong generator
        assert not verify_witness(compose(w12, w23), p1, p3)
        assert not verify_witness(compose(w23, w12), p1, p2)
