"""End-to-end acceptance checks: one test per criterion."""

import itertools
import math
import random
import time
from fractions import Fraction

from pathcoalg.classify import (
    are_isomorphic as params_isomorphic,
    automorphism_group,
    canonical_form,
    verify_witness,
)
from pathcoalg.coalgebra import (
    CoElement,
    diamond_basis,
    dualize,
    ext_quiver,
    gabriel_quiver,
    localize,
    path_element,
    separability_check,
    verify_covering,
)
from pathcoalg.comodules import (
    Comodule,
    are_isomorphic,
    build_band_family,
    decide_discrete,
    direct_sum,
    enumerate_indecomposables,
    hom,
    is_indecomposable,
)
from pathcoalg.errors import (
    ConstraintViolation,
    ForbiddenPair,
    LambdaOrderViolation,
    NotCanonical,
    ParityViolation,
    PathcoalgError,
)
from pathcoalg.hopf import (
    contains_path_combination,
    truncate_to_subcoalgebra,
    validate_params,
    verify_hopf_axioms,
)
from pathcoalg.linalg import SparseBasis, nullspace
from pathcoalg.quiver import (
    Path,
    check_homogeneous,
    classify_link_component,
    find_nondynkin_cover,
    graph_class,
    grid_vertex_label,
    grid_window,
)
from pathcoalg.scalar import ONE, ZERO, cyc

import pytest

import test_classify
from test_coalgebra import covering_example, localization_example
from test_quiver import square_with_loops

PAIRS = [(0, 0), (2, 0), (3, 1), (4, 2), (2, -2)]

FAMILY_TAGS = {"1", "2", "3", "4", "5", "6", "6'", "7", "7'", "8"}


def _family_representatives(m, n):
    """One representative (lambda, s, t, k) per family, for a given (m, n)."""
    if (m, n) == (0, 0):
        lam1 = "z3"
    elif math.gcd(abs(m), abs(n)) % 2 == 0:
        lam1 = -1
    else:
        lam1 = 1
    return [
        (lam1, 0, 0, 0),
        (-1, 0, 1, 0),
        (-1, 1, 0, 0),
        (-1, 1, 1, 0),
        (1, 1, 1, 1),
        (1, 1, 0, 0),
        (1, 1, 0, 1),
        (1, 0, 0, 1),
    ]


def _valid_grid():
    out = []
    for m, n in PAIRS:
        for rep in _family_representatives(m, n):
            try:
                out.append(validate_params(m, n, *rep))
            except PathcoalgError:
                continue
    return out


def test_criterion_1_hopf_axiom_suite():
    start = time.monotonic()
    grid = _valid_grid()
    assert len(grid) >= 30
    for params in grid:
        report = verify_hopf_axioms(params, 2)
        assert report["ok"] is True
        assert report["basis_checked"] == 4 * len(grid_window(params.m, params.n, 2))
    assert time.monotonic() - start < 60


def test_criterion_1_representatives_are_their_own_canonical_form():
    """`canonical_form` hands a representative back as the very object, with
    no validated copy; any other input gets a fresh validated one, which
    `automorphism_group` still refuses to take it for."""
    for params in _valid_grid():
        assert canonical_form(params)[1] is params
        assert automorphism_group(params).family[0] == canonical_form(params)[0][0]
    params = validate_params(0, 0, 1, 4, 1, 0)
    _, canon, _ = canonical_form(params)
    assert canon is not params and canon == validate_params(0, 0, 1, 1, 1, 0)
    assert canonical_form(canon)[1] is canon
    with pytest.raises(NotCanonical):
        automorphism_group(params)


def test_criterion_2_truncation_rank():
    seen = set()
    for params in _valid_grid():
        key = (params.m, params.n, str(params.lam))
        if key in seen:
            continue
        seen.add(key)
        trunc = truncate_to_subcoalgebra(params, 2)
        engine = SparseBasis()
        for img in trunc.images.values():
            engine.add(dict(img.terms))
        assert engine.dim == 4 * len(trunc.window)
        assert trunc.rank == 4 * len(trunc.window)


def test_criterion_3_path_membership():
    for lam in ("1", "-1", "z4"):
        params = validate_params(0, 0, lam, 0, 0, 0)
        trunc = truncate_to_subcoalgebra(params, 1)
        rng = random.Random(3)
        for trial in range(20):
            c1 = cyc(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            if trial % 2 == 0:
                c2 = -params.lam * c1
            else:
                c2 = cyc(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            expected = (c2 + params.lam * c1).is_zero()
            got = contains_path_combination(
                params, 1, 0, 0, c1, c2, truncation=trunc
            )
            assert got == expected
        v = grid_vertex_label(0, 0)
        va = grid_vertex_label(1, 0)
        vb = grid_vertex_label(0, 1)
        rejected = [
            (f"x@{v}", f"x@{va}"),
            (f"y@{v}", f"y@{vb}"),
            (f"x@{v}", f"y@{va}"),
            (f"y@{v}", f"x@{vb}"),
        ]
        for arrows in rejected:
            probe = path_element(trunc.quiver, Path(v, arrows))
            assert not trunc.coalgebra.contains(probe)


def test_criterion_4_discreteness_decision():
    seen = set()
    for m in range(-6, 7):
        for n in range(-6, 7):
            try:
                params = validate_params(m, n, 1, 0, 0, 0)
            except PathcoalgError:
                continue
            if params.as_tuple() in seen:
                continue
            seen.add(params.as_tuple())
            verdict = decide_discrete(params)
            expected = params.m != params.n or params.m == 0
            assert verdict["discrete"] == expected
            if not expected:
                witness = verdict["witness"]
                assert len(witness["modules"]) >= 3
                assert witness["dimension_vectors_equal"] is True
                assert witness["pairwise_hom_orthogonal"] is True
                assert witness["all_indecomposable"] is True
    # independent re-check of the band witnesses at m = n in {2, 4}
    for nn in (2, 4):
        params = validate_params(nn, nn, 1, 0, 0, 0)
        mods = build_band_family(params, nn, [1, 2, 3])
        assert len(mods) == 3
        assert all(is_indecomposable(mod) for mod in mods)
        base = mods[0].dimension_vector()
        assert all(mod.dimension_vector() == base for mod in mods)
        for i, j in itertools.permutations(range(3), 2):
            assert hom(mods[i], mods[j]).dim == 0


def test_criterion_5_classification_round_trip():
    pairs = [
        (0, 0), (2, 0), (0, 2), (3, 1), (4, 2),
        (2, -2), (5, 1), (6, 2), (4, 0), (3, -1),
    ]
    squares = [0, 1, 4, 9, Fraction(1, 4)]
    rng = random.Random(5)
    samples = [
        validate_params(4, 0, "z4", 0, 0, 0),
        validate_params(0, 0, "z4", 0, 0, 0),
        validate_params(8, 4, "z4", 0, 0, 0),
    ]
    while len(samples) < 53:
        m, n = pairs[rng.randrange(len(pairs))]
        g = math.gcd(abs(m), abs(n))
        if (m, n) != (0, 0) and g % 2 == 1:
            lam = 1
        else:
            lam = (1, -1)[rng.randrange(2)]
        s = squares[rng.randrange(len(squares))]
        t = squares[rng.randrange(len(squares))]
        k = (0, 1, 2, -3)[rng.randrange(4)] if lam == 1 else 0
        samples.append(validate_params(m, n, lam, s, t, k))
    for params in samples:
        tag, canon, witness = canonical_form(params)
        assert tag in FAMILY_TAGS
        tag2, canon2, _ = canonical_form(canon)
        assert (tag2, canon2) == (tag, canon)  # idempotent
        assert verify_witness(witness, params, canon)
    # representatives of distinct families are pairwise non-isomorphic
    reps = [validate_params(*raw) for raw, _, _, _ in test_classify.TestAutomorphismGroup.TABLE_I]
    for p1, p2 in itertools.combinations(reps, 2):
        assert params_isomorphic(p1, p2) is None
    # automorphism groups match every row of both tables
    rows = test_classify.TestAutomorphismGroup.TABLE_I + test_classify.TestAutomorphismGroup.TABLE_II
    for raw, family, name, swap in rows:
        aut = automorphism_group(validate_params(*raw))
        assert aut.family == family
        assert aut.group_name == name
        assert aut.includes_swap == swap
    assert any(name == "D_4" for _, _, name, _ in rows)
    assert any(name == "Dih(Kx)" for _, _, name, _ in rows)


def test_criterion_6_covering_and_localization():
    c, d, pi = covering_example()
    ok, report = verify_covering(pi, diamond_basis(c), diamond_basis(d))
    assert ok and report["counterexample"] is None
    assert separability_check(pi) is True
    found = find_nondynkin_cover(square_with_loops(), 6)
    assert found is not None
    cover, phi = found
    assert len(cover.vertices) <= 6
    assert phi.is_valid()
    assert not graph_class(cover).is_dynkin
    coalg = localization_example()
    alg = dualize(coalg)
    inner = [label for label, _ in alg.idempotents if label not in ("a", "b")]
    corner = localize(alg, inner)
    assert str(graph_class(gabriel_quiver(corner))) == "D~7"


def test_criterion_7_ext_quiver_constraints():
    for m, n in [(0, 0), (3, 1), (2, -2)]:
        params = validate_params(m, n, 1, 0, 0, 0)
        trunc = truncate_to_subcoalgebra(params, 2)
        quiver = ext_quiver(trunc.coalgebra)
        seen = set()
        for _, src, dst in quiver.arrows:
            assert (src, dst) not in seen  # Schurian: no parallel arrows
            seen.add((src, dst))
        interior = sorted(grid_vertex_label(i, j) for i, j in grid_window(params.m, params.n, 1))
        report = check_homogeneous(quiver, vertices=interior)
        assert report["is_homogeneous"] is True
        assert report["out_degree"] == 2
        assert report["in_degree"] == 2
    assert classify_link_component(0, 0, 0) == 1
    assert classify_link_component(0, 0, 1, cyclic_order=5) == 2
    assert classify_link_component(0, 0, 1, cyclic_order=None) == 3
    assert classify_link_component(2, 0, 2) == 4


def _top_column_basis(coalg, top_label):
    """Coalgebra basis elements all of whose paths end at the chosen vertex
    and vanish under the counit: the only places a one-dimensional top can
    attach in a coaction matrix column."""
    quiver = coalg.quiver
    return [
        b
        for b in coalg.basis
        if b.counit().is_zero()
        and all(p.target(quiver) == top_label for p in b.terms)
    ]


def _extension_columns(coalg, radical, column_basis, top_label):
    """All comatrix-compatible columns phi gluing a one-dimensional top over
    top_label onto the radical: solutions of
    Delta(phi_j) = sum_l rho_jl (x) phi_l + phi_j (x) e_top."""
    dm = radical.dim
    nb = len(column_basis)
    if nb == 0:
        return []

    def unk(j, bi):
        return j * nb + bi

    rows = {}

    def bump(key, u, value):
        row = rows.setdefault(key, {})
        new = row.get(u, ZERO) + value
        if new.is_zero():
            row.pop(u, None)
        else:
            row[u] = new

    top_path = Path(top_label)
    for j in range(dm):
        for bi, b in enumerate(column_basis):
            for (lp, rp), cval in b.delta_dict().items():
                bump((j, lp, rp), unk(j, bi), cval)
            for p, cval in b.terms.items():
                bump((j, p, top_path), unk(j, bi), -cval)
        for l in range(dm):
            entry = radical.coaction[j][l]
            if entry.is_zero():
                continue
            for p, cp in entry.terms.items():
                for bi, b in enumerate(column_basis):
                    for q, cq in b.terms.items():
                        bump((j, p, q), unk(l, bi), -cp * cq)
    sols = nullspace([r for r in rows.values() if r], dm * nb)
    if not sols:
        return []
    weight_sets = []
    if len(sols) <= 4:
        for mask in range(1, 2 ** len(sols)):
            weight_sets.append(
                [ONE if mask >> i & 1 else ZERO for i in range(len(sols))]
            )
    else:
        for i in range(len(sols)):
            w = [ZERO] * len(sols)
            w[i] = ONE
            weight_sets.append(w)
        for i, j in itertools.combinations(range(len(sols)), 2):
            w = [ZERO] * len(sols)
            w[i] = w[j] = ONE
            weight_sets.append(w)
        weight_sets.append([ONE] * len(sols))
        for trial in (2, 3):
            weight_sets.append([cyc(trial ** i) for i in range(len(sols))])
    columns = []
    zero = CoElement(coalg.quiver, {})
    for weights in weight_sets:
        phis = []
        for j in range(dm):
            e = zero
            for bi in range(nb):
                total = ZERO
                for w, sol in zip(weights, sols):
                    if not w.is_zero():
                        total = total + sol[unk(j, bi)] * w
                if not total.is_zero():
                    e = e + column_basis[bi] * total
            phis.append(e)
        columns.append(phis)
    return columns


def _glue_top(radical, phis, top_label):
    quiver = radical.coalgebra.quiver
    d = radical.dim + 1
    zero = CoElement(quiver, {})
    c = [[zero] * d for _ in range(d)]
    for i in range(radical.dim):
        for j in range(radical.dim):
            c[i][j] = radical.coaction[i][j]
        c[i][d - 1] = phis[i]
    c[d - 1][d - 1] = path_element(quiver, Path(top_label))
    return Comodule(radical.coalgebra, c, validate=True)


def test_criterion_8_enumeration_oracle():
    """Layered brute force: every indecomposable of dimension <= 6 arises by
    gluing a one-dimensional top onto a direct sum of strictly smaller
    indecomposables (already verified at lower dimension), so closing the
    inventory under all such extensions and finding nothing new proves it
    complete.  Each top vertex has only two in-arrows plus one length-two
    diamond direction, so at most three summands can couple to it."""
    start = time.monotonic()
    params = validate_params(0, 0, 1, 0, 0, 0)
    trunc = truncate_to_subcoalgebra(params, 1)
    inventory = enumerate_indecomposables(params, 1, 6, truncation=trunc)
    by_dim = {}
    for item in inventory:
        by_dim.setdefault(item["module"].dim, []).append(item["module"])
    window = sorted(grid_window(params.m, params.n, 1))
    column_cache = {
        grid_vertex_label(i, j): _top_column_basis(
            trunc.coalgebra, grid_vertex_label(i, j)
        )
        for i, j in window
    }
    found_indecomposable = 0
    for d in range(2, 7):
        for i, j in window:
            top = grid_vertex_label(i, j)
            feeders = {
                grid_vertex_label(i - 1, j),
                grid_vertex_label(i, j - 1),
                grid_vertex_label(i - 1, j - 1),
            }
            pool = [
                mod
                for dd in range(1, d)
                for mod in by_dim.get(dd, [])
                if feeders & set(mod.dimension_vector())
            ]
            for count in (1, 2, 3):
                for combo in itertools.combinations_with_replacement(
                    range(len(pool)), count
                ):
                    mods = [pool[x] for x in combo]
                    if sum(mod.dim for mod in mods) != d - 1:
                        continue
                    radical = mods[0]
                    blocks = [(0, mods[0].dim)]
                    for extra in mods[1:]:
                        offset = radical.dim
                        radical = direct_sum(radical, extra)
                        blocks.append((offset, offset + extra.dim))
                    columns = _extension_columns(
                        trunc.coalgebra, radical, column_cache[top], top
                    )
                    for phis in columns:
                        # every summand must couple to the top, else split
                        if any(
                            all(phis[x].is_zero() for x in range(lo, hi))
                            for lo, hi in blocks
                        ):
                            continue
                        glued = _glue_top(radical, phis, top)
                        if not is_indecomposable(glued):
                            continue
                        found_indecomposable += 1
                        assert any(
                            are_isomorphic(glued, known)
                            for known in by_dim.get(d, [])
                        ), f"missing indecomposable of dimension {d} over {top}"
    assert found_indecomposable > 0
    assert time.monotonic() - start < 300


def test_criterion_9_parameter_laws():
    with pytest.raises(ForbiddenPair):
        validate_params(1, 1, 1, 0, 0, 0)
    with pytest.raises(ForbiddenPair):
        validate_params(-1, -1, 1, 0, 0, 0)
    with pytest.raises(ParityViolation):
        validate_params(2, 1, 1, 0, 0, 0)
    with pytest.raises(ParityViolation):
        validate_params(3, 0, 1, 0, 0, 0)
    with pytest.raises(LambdaOrderViolation):
        validate_params(4, 2, "z3", 0, 0, 0)
    with pytest.raises(LambdaOrderViolation):
        validate_params(2, 0, "z4", 0, 0, 0)
    with pytest.raises(LambdaOrderViolation):
        validate_params(2, 0, 0, 0, 0, 0)
    with pytest.raises(ConstraintViolation):
        validate_params(2, 0, -1, 0, 0, 1)
    with pytest.raises(ConstraintViolation):
        validate_params(4, 0, "z4", 1, 0, 0)
    for raw, _, _, _ in test_classify.TestAutomorphismGroup.TABLE_I + test_classify.TestAutomorphismGroup.TABLE_II:
        validate_params(*raw)
