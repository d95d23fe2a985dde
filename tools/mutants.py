"""Source mutants that the tier-1 tests must catch: `python3 tools/mutants.py`
exits 0 when every mutant is caught, 1 otherwise.

Each catalogue entry is (file, old text, new text, test IDs): the file under
src/pathcoalg/, the IDs under tests/, space-separated.  The checkout is copied
once, without .git and what .gitignore lists, into a temporary directory, and
every listed test must pass there.  Then each mutant in turn replaces its old
text, which must occur exactly once in its file, runs only its own tests in
one pytest process, and restores the file; every one of those tests must
fail, or the process outlast TIMEOUT.  An ID may name a test, a parametrized
test or a class; it fails when one of its cases does.  A change that records
a caught source mutant adds it to the catalogue.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = [p.strip("/") for p in (ROOT / ".gitignore").read_text().split() if p[0] != "#"]
SKIP = shutil.ignore_patterns(".git", ".venv", "venv", *IGNORED)
TIMEOUT = 900  # seconds for one pytest process


def run_tests(tree, ids):
    """The IDs among `ids` with a failed case, and pytest's exit code; all of
    them and "timeout" when the run outlasts TIMEOUT, as a hung test fails."""
    path = os.pathsep.join(filter(None, ("src", os.environ.get("PYTHONPATH"))))
    try:
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *ids],
            cwd=tree, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
            timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return set(ids), "timeout"
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", out.stdout, re.M)
    caught = {i for i in ids for f in failed if f == i or f.startswith((i + "[", i + "::"))}
    return caught, out.returncode


def node_ids(ids):
    return ["tests/" + i for i in ids.split()]


def main():
    start, bad = time.time(), 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp, "checkout")
        shutil.copytree(ROOT, tree, ignore=SKIP)
        every = sorted({i for entry in CATALOGUE for i in node_ids(entry[3])})
        caught, code = run_tests(tree, every)
        if code != 0:
            print(f"unmutated tests fail (exit {code}):", *sorted(caught), sep="\n  ")
            return 1
        for number, (name, old, new, ids) in enumerate(CATALOGUE, 1):
            ids, target = node_ids(ids), tree / "src" / "pathcoalg" / name
            text = target.read_text()
            if text.count(old) == 1:
                target.write_text(text.replace(old, new))
                try:
                    caught, code = run_tests(tree, ids)
                finally:
                    target.write_text(text)
            else:
                caught, code = set(), "the old text does not occur exactly once"
            survived = [i for i in ids if i not in caught]
            bad += bool(survived)
            print(f"#{number} {name}: {'SURVIVED' if survived else 'caught'} ({code})",
                  *survived, sep="\n  ")
    seconds = time.time() - start
    print(f"{len(CATALOGUE) - bad} of {len(CATALOGUE)} mutants caught in {seconds:.0f} s")
    return 1 if bad else 0


# the tests that catch the Hopf certificate's mutants, and shared old texts
CERTIFICATE = "test_hopf.py::TestCertificate::test_certificate_accepts_mutant_params"
SWEEP = "test_hopf.py::TestCertificate::test_sweep_accepts_mutant_params"
WITNESS_IMAGES = "test_hopf.py::TestEvaluator::test_witness_images_match_oracle"
BOTH = CERTIFICATE + " " + SWEEP
WITNESS = BOTH + " " + WITNESS_IMAGES
LAWS = "test_hopf.py::TestCertificate::test_each_law_is_checked"
RULES = "s, t, k, li = map(bare, (params.s, params.t, params.k, params.lam_inv))"
HOM_N = "for j in over1.get(w2[k], ()) if e.terms else ():"
SHARED = "if d1.source == d2.source or d1.sink == d2.sink:"

CATALOGUE = [
    # BENCH_35: hom drops the terms of a vertex pair, or hands nullspace every row twice
    ("comodules.py", HOM_N,
     HOM_N.replace("e.terms", "e.terms and (w2[l], w2[k]) != ('a0b0', 'a1b0')"),
     "test_comodules.py::TestIndecomposability::test_diamond "
     "test_comodules.py::TestHomBlocks::test_bands_match_full_system"),
    ("comodules.py", "for l in over2.get(w1[i], ()) if e.terms else ():",
     "for l in over2.get(w1[i], ()) if e.terms and (w1[i], w1[j]) != ('a0b0', 'a1b0') else ():",
     "test_comodules.py::TestIndecomposability::test_diamond "
     "test_acceptance.py::test_criterion_4_discreteness_decision"),
    ("comodules.py", HOM_N,
     HOM_N.replace("e.terms", "e.terms and (w2[l], w2[k]) != ('a0b0', 'a1b1')"),
     "test_comodules.py::TestHomBlocks::test_unknowns_are_same_vertex_pairs"),
    ("comodules.py", "[row for lj in sorted(eqs) for row in eqs[lj].values() if row]",
     "[r for lj in sorted(eqs) for row in eqs[lj].values() if row for r in (row, row)]",
     "test_comodules.py::TestHomBlocks::test_bands_match_full_system"),
    # BENCH_36: an irrational product that skips the divisor search
    ("scalar.py", "        return _canonical(n, _reduce_mod_cyclo(prod, n))",
     "        vec = _reduce_mod_cyclo(prod, n)\n"
     "        return _canonical(n, vec) if not any(vec[1:]) else CycScalar(n, tuple(map(_q, vec)))",
     "test_scalar.py::TestNormalForm::test_every_result_is_normal "
     "test_scalar.py::TestBasics::test_canonical_demotion"),
    # BENCH_41: group_canonical_pair with k off by one, the wrong sign of n, and
    # the m = 0 branch reducing i
    ("quiver.py", "        k = i // m\n", "        k = i // m + 1\n",
     "test_hopf_family.py::TestCanonLaws::test_laws_hold test_quiver.py::TestGridQuiver"),
    ("quiver.py", "return (i - k * m, j + k * n)", "return (i - k * m, j - k * n)",
     "test_hopf_family.py::TestCanonLaws::test_laws_hold test_quiver.py::TestGridQuiver"),
    ("quiver.py", "k = j // n\n        return (i, j - k * n)",
     "k = i // n\n        return (i - k * n, j)",
     "test_hopf_family.py::TestCanonLaws::test_laws_hold test_quiver.py::TestGridQuiver"),
    # BENCH_41: the builders with the first arrow's letter swapped (a walk, a
    # diamond), and the diamond's -lam with its sign flipped
    ("comodules.py", "arrows.append((k, k + 1, (di, dj), 1) if down else (k + 1, k, (di, dj), 1))",
     "step = (dj, di) if k == 0 else (di, dj)\n"
     "        arrows.append((k, k + 1, step, 1) if down else (k + 1, k, step, 1))",
     "test_comodules.py::TestFormerRoutes::test_builders_on_every_spec "
     "test_comodules.py::TestFormerRoutes::test_band_families"),
    ("comodules.py", "entries = [(0, 1, (1, 0), 1), (0, 2, (0, 1), 1),",
     "entries = [(0, 1, (0, 1), 1), (0, 2, (0, 1), 1),",
     "test_comodules.py::TestFormerRoutes::test_builders_on_every_spec"),
    ("comodules.py", "(2, 3, (1, 0), -bare(params.lam))", "(2, 3, (1, 0), bare(params.lam))",
     "test_comodules.py::TestFormerRoutes::test_builders_on_every_spec"),
    # BENCH_45: verify_covering with one clause of the shared-end test, and
    # without the check that the image covers the codomain basis
    ("coalgebra.py", SHARED, "if d1.source == d2.source:",
     "test_coalgebra.py::TestCovering::test_collapse_rejected[shared-sink] "
     "test_coalgebra.py::TestSeparabilityReference::"
     "test_oracle_accepts_every_covering[random-folds]"),
    ("coalgebra.py", SHARED, "if d1.sink == d2.sink:",
     "test_coalgebra.py::TestCovering::test_collapse_rejected[shared-source] "
     "test_coalgebra.py::TestSeparabilityReference::"
     "test_oracle_accepts_every_covering[random-folds]"),
    ("coalgebra.py", '    if {i for i in images.values()} != cod_elems:\n'
     '        return fail("basis image does not cover the codomain basis")\n', "",
     "test_coalgebra.py::TestCovering::test_image_must_cover_the_codomain_basis "
     "test_cli.py::TestCovering::test_glued_counterexample"),
    # BENCH_44, BENCH_48: the cover search with one copy per vertex, trees of one
    # branch called Dynkin, the held end's degree not raised, a cycle queued as
    # a tree, and without the degree >= 4 or the two-branch shortcut
    ("quiver.py", '(src, "+"), (dst, "-"))', '(src, "+"), (dst, "+"))',
     "test_quiver.py::TestNonDynkinCover::test_square_with_loops_has_six_cycle_cover "
     "test_cli.py::TestQuiver::test_three_arrows_cover"),
    ("quiver.py", "(d == 3 or branched) and not", "False and not",
     "test_quiver.py::TestDynkinRule::test_euclidean_stars_cover_themselves "
     "test_quiver.py::TestIncrementalDynkinTest::test_only_one_branch_trees_are_classified"),
    ("quiver.py", "degrees[:held] + (d,) + degrees[held + 1:] + (1,)", "degrees + (1,)",
     "test_quiver.py::TestDynkinRule::test_euclidean_stars_cover_themselves "
     "test_quiver.py::TestCoverAnswerIdentity::test_covers_and_morphisms_unchanged"),
    ("quiver.py", "if new not in (u, w) or d > 3", "if d > 3",
     "test_quiver.py::TestNonDynkinCover::test_kronecker_covers_itself "
     "test_quiver.py::TestCoverAnswerIdentity::test_covers_and_morphisms_unchanged"),
    ("quiver.py", "or d > 3 or d == 3 and branched or", "or d == 3 and branched or",
     "test_quiver.py::TestIncrementalDynkinTest::test_only_one_branch_trees_are_classified"),
    ("quiver.py", "or d > 3 or d == 3 and branched or", "or d > 3 or",
     "test_quiver.py::TestIncrementalDynkinTest::test_only_one_branch_trees_are_classified"),
    # BENCH_47: the mixed-label-type check dropped, or limited to vertices
    ("quiver.py", 'raise InvalidDescription("vertex labels, and arrow ids, must each be of one',
     "pass  #", "test_quiver.py::TestSerialization::test_mixed_label_types_are_refused"),
    ("quiver.py", " or len({type(a[0]) for a in self.arrows}) > 1:", ":",
     "test_quiver.py::TestSerialization::test_mixed_label_types_are_refused"),
    # BENCH_47: _image_of_key's box check without gab, with >= for >, without g
    # or without the pair a degree-one image passes; a cycle through the
    # truncation, and a repr that reads the images
    ("hopf.py", "passed = ga + gb + gab", "passed = ga + gb",
     "test_hopf.py::TestLazyTruncation::test_image_validity_is_path_validity"),
    ("hopf.py", "+ passed)) > quiver.shape[2]", "+ passed)) >= quiver.shape[2]",
     "test_hopf.py::TestTruncation::test_rank_free_case"),
    ("hopf.py", "max(map(abs, (i, j) + passed))", "max(map(abs, passed or (0,)))",
     "test_hopf.py::TestLazyTruncation::test_image_validity_is_path_validity"),
    ("hopf.py", "passed = canon(i + p, j + q) if p or q else ()", "passed = ()",
     "test_hopf.py::TestTruncation::test_rank_free_case"),
    ("hopf.py", "        self._built, self._owner = {}, {}\n",
     "        self._built, self._owner = {}, {}\n        self._check = self._image\n",
     "test_comodules.py::TestLazyWindows::test_dropped_truncations_leave_no_cycle"),
    ("hopf.py", 'return f"Truncation({self.params!r}, radius {self.radius})"',
     "return super().__repr__()", "test_comodules.py::TestLazyWindows::test_repr_builds_nothing"),
    # BENCH_43: lam^2 on the xy image of one group part other than 1, no
    # ab-shift of the group parts or b-shift of the x keys among the keys, and
    # a doubled image away from the representatives
    ("hopf.py", 'Path(g, (f"y@{g}", f"x@{b}")): -params._lam}',
     'Path(g, (f"y@{g}", f"x@{b}")): -params._lam * (params._lam if (i, j) == (1, 0) else 1)}',
     "test_hopf.py::TestWindowEmbedding::test_both_certificates_accept"),
    ("hopf.py", "_KEY_SHIFTS = {(0, 0): ((0, 0), (1, 0), (0, 1), (1, 1)),",
     "_KEY_SHIFTS = {(0, 0): ((0, 0), (1, 0), (0, 1)),",
     "test_hopf.py::TestTruncation::test_boundary_keys "
     "test_hopf.py::TestWindowEmbedding::test_both_certificates_accept"),
    ("hopf.py", "(1, 0): ((0, 0), (0, 1)),", "(1, 0): ((0, 0),),",
     "test_hopf.py::TestTruncation::test_boundary_keys"),
    ("hopf.py", "terms = {Path(g, [aid for aid, _, _ in arrows]): 1}",
     "terms = {Path(g, [aid for aid, _, _ in arrows]): 2 if (i, j, p) == (1, 0, 1) else 1}",
     "test_hopf.py::TestWindowEmbedding::test_both_certificates_accept"),
    # one oracle for _stars_isomorphic: loop counts, profiles not compared
    ("quiver.py", "if loops1 != loops2 or Counter(", "if Counter(",
     "test_quiver.py::test_stars_isomorphic_matches_backtracking"),
    ("quiver.py", "if loops1 != loops2 or Counter(p1.values()) != Counter(p2.values()):",
     "if loops1 != loops2 or len(p1) != len(p2):",
     "test_quiver.py::test_stars_isomorphic_matches_backtracking "
     "test_quiver.py::TestHomogeneityIdentity::test_random_quivers"),
    # one oracle for graph_class: Dynkin read as Euclidean, a cycle missed, E read as D
    ("quiver.py", "    if total == pqr:", "    if total >= pqr:",
     "test_quiver.py::TestGraphClassOracle test_quiver.py::TestDynkinRule::test_random_trees"),
    ("quiver.py", "    if len(edges) >= nv:", "    if len(edges) > nv:",
     "test_quiver.py::TestGraphClassOracle test_quiver.py::TestGraphClass::test_kronecker"),
    ("quiver.py", 'family = "D" if p == q == 2 else "E"', 'family = "D" if p == 2 else "E"',
     "test_quiver.py::TestGraphClass::test_d_and_e_types"),
    # one route to P(g, h): the e_g - e_h term dropped
    ("coalgebra.py", "basis = [] if g == h else [CoElement(quiver, {Path(g): 1, Path(h): -1})]",
     "basis = []", "test_coalgebra.py::TestSkewPrimitives::test_against_full_solve "
     "test_hopf.py::TestTruncation::test_skew_primitive_dimensions"),
    # P(g, h) with one elimination per call, not one per coalgebra
    ("coalgebra.py", "    coalg._levels = levels\n", "",
     "test_coalgebra.py::TestSkewPrimitives::test_one_elimination_for_every_pair"),
    # one oracle for verify_witness: chi_x(b) = -1, the k-term waived, k2/lam2
    # for psi read as k2; one for the span gate: rows divided without M' | M
    ("classify.py", "chi_x(*b) == -lam1", "chi_x(*b) == -1", WITNESS_IMAGES),
    ("classify.py", "or k1 == alpha * beta * k2))", "or True))", WITNESS_IMAGES),
    ("classify.py", "lam_ok, k2 = lam1 == p2._lam_inv, k2 * p2._lam_inv",
     "lam_ok = lam1 == p2._lam_inv",
     "test_hopf_family.py::TestSpanGate::test_closed_form_matches_per_residue_witness"),
    ("hopf.py", "v % v2 == 0 and all(map(le, m2, m))", "v % v2 == 0",
     "test_hopf_family.py::TestSpanGate::test_a_dropped_row_is_caught "
     "test_hopf_family.py::TestAgainstNumericCertificate::test_sweep"),
    # the sweep's own target, the element maps: Delta(u) Delta(v) with the factors swapped
    ("hopf.py", "_tensor_mul(self.params, self.terms, other.terms))",
     "_tensor_mul(self.params, other.terms, self.terms))",
     "test_hopf.py::TestCertificate::test_agrees_with_sweep_on_grid"),
    # Hopf certificate mutants: the signs of x*x, y*y, the k-term (another
    # Hopf algebra, B(m, n; lam, -s, t, k) and so on, which the sweep accepts),
    # the commutation and the shifted term of yx; x past b with lam^-1
    ("hopf.py", RULES, RULES.replace("(params.s,", "(-params.s,"),
     CERTIFICATE + " " + WITNESS_IMAGES),
    ("hopf.py", RULES, RULES.replace("params.t,", "-params.t,"),
     CERTIFICATE + " " + WITNESS_IMAGES),
    ("hopf.py", RULES, RULES.replace("params.k,", "-params.k,"),
     CERTIFICATE + " " + WITNESS_IMAGES),
    ("hopf.py", "((0, 0), 1, 1, -li)],", "((0, 0), 1, 1, li)],", WITNESS),
    ("hopf.py", "((1, 1), 0, 0, -li * k),", "((1, 1), 0, 0, li * k),", WITNESS),
    ("hopf.py", "c = _power(-self._lam, j)", "c = _power(-self._lam_inv, j)", WITNESS),
    # Delta x = 1 (x) x + x (x) b, Delta y = 1 (x) y + y (x) a, Delta(y) on the left
    ("hopf.py", "{(one, x): 1, (x, a): 1}", "{(one, x): 1, (x, b): 1}", WITNESS),
    ("hopf.py", "{(one, y): 1, (y, b): 1}", "{(one, y): 1, (y, a): 1}", WITNESS),
    ("hopf.py", "_tensor_mul(params, dx if p else d1, dy if q else d1)",
     "_tensor_mul(params, dy if q else d1, dx if p else d1)", BOTH),
    # S(x) S(y) in place of S(y) S(x), S(x) = x a^-1, epsilon(x) = 1
    ("hopf.py", "_mul_terms(params, s_y if q else u1, s_x if p else u1)",
     "_mul_terms(params, s_x if p else u1, s_y if q else u1)", BOTH),
    ("hopf.py", "s_x = (-(gen_x(params) * group_element(params, -1, 0))).terms",
     "s_x = (gen_x(params) * group_element(params, -1, 0)).terms", WITNESS),
    ("hopf.py", "if p == 0 and q == 0), 0)", "if q == 0), 0)", WITNESS),
    # Delta(u) = 1 (x) u, epsilon(g) = 2, Delta(g) = 2 g (x) g for g != 1
    ("hopf.py", "c * c2)\n    return out\n",
     "c * c2)\n    return {((params.canon(0, 0), 0, 0), key): c for key, c in terms.items()}\n",
     WITNESS),
    ("hopf.py", "return {(params.canon(0, 0), 0, 0): total} if total else {}",
     "return {(params.canon(0, 0), 0, 0): 2 * total} if total else {}", WITNESS),
    ("hopf.py", "_shift(params, g, r)), c * c2)", "_shift(params, g, r)), c * c2"
     " * (2 if (p, q) == (0, 0) and g != params.canon(0, 0) else 1))", WITNESS),
    # the certificate without the left or the right counit law, or the antipode laws
    ("hopf.py", ' ("counit law fails", left, u),', "", LAWS + "[left-counit]"),
    ("hopf.py", '("counit law fails", right, u), ', "", LAWS + "[right-counit]"),
    ("hopf.py", '("antipode law fails", conv_l, target),\n'
     '                ("antipode law fails", conv_r, target)]', "]", LAWS + "[antipode]"),
]


if __name__ == "__main__":
    sys.exit(main())
