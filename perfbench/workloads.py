"""Set-up fixtures and query execution for the three workloads.

Every library call goes through a module attribute (`hopf.verify_hopf_axioms`,
not a name imported from it), so the tracer's wrappers see it.  Each
operation's answer is checked against `oracle`; a failed operation is
recorded and the query goes on with its next operation.
"""

from __future__ import annotations

import traceback
from collections import Counter

from pathcoalg import classify, coalgebra, comodules, hopf, quiver, scalar
from pathcoalg.errors import SquareRootUnavailable

import oracle
import queries as Q


class Tally:
    """Operations attempted, known-defect failures, and wrong answers."""

    def __init__(self):
        self.attempted = 0
        self.defects = Counter()
        self.wrong = []
        self.last_defect = None

    @property
    def failed(self):
        return sum(self.defects.values()) + len(self.wrong)

    def op(self, what, call, check, defect=None):
        """Attempt one operation.  `check(result)` returns None or what is
        wrong; `defect(result or exception)` names the known defect a failure
        is, if it is one.  Returns the result, or None when it failed."""
        self.attempted += 1
        try:
            result = call()
        except Exception as exc:  # a failed operation must not end the query
            self._fail(what, defect and defect(exc), traceback.format_exc(limit=3))
            return None
        problem = check(result)
        if problem is None:
            return result
        self._fail(what, defect and defect(result), problem)
        return None

    def skip(self, what, defect=None):
        """An operation that cannot run because one it depends on failed."""
        self.attempted += 1
        self._fail(what, defect, "an operation it depends on failed")

    def _fail(self, what, defect, detail):
        self.last_defect = defect
        if defect:
            self.defects[defect] += 1
        else:
            self.wrong.append(f"{what}: {detail}")


def _expect(value, wanted, what):
    return None if value == wanted else f"{what} is {value!r}, expected {wanted!r}"


def warm_scalar_caches():
    """Fill the scalar module's cyclotomic-polynomial and embedding caches for
    the conductors the workloads meet (3, 4 and their lcm 12)."""
    roots = [
        scalar.CycScalar.root_of_unity(n, e) for n in (2, 3, 4, 6, 12) for e in range(n)
    ]
    for a in roots:
        for b in roots:
            a * b + b
        a.inverse()


# -- fixtures rebuilt from public constructors ----------------------------------


def _path(q, start, *arrows):
    return coalgebra.path_element(q, quiver.Path(start, arrows))


def covering_example():
    """The square path coalgebra (paths of length <= 2) folding onto the
    two-loop subcoalgebra."""
    square = quiver.Quiver(
        ["1", "2", "3", "4"],
        [("bt", "1", "2"), ("gt", "2", "4"), ("at", "1", "3"), ("dt", "3", "4")],
    )
    loops = quiver.Quiver(
        ["1", "2"], [("al", "1", "1"), ("be", "1", "2"), ("ga", "2", "2")]
    )
    two_loop = coalgebra.SubCoalgebra(loops, [
        _path(loops, "1"), _path(loops, "2"), _path(loops, "1", "al"),
        _path(loops, "1", "be"), _path(loops, "2", "ga"),
        _path(loops, "1", "al", "be"), _path(loops, "1", "be", "ga"),
    ])
    domain = coalgebra.path_coalgebra(square, 2)
    fold = quiver.QuiverMorphism(
        square, loops,
        {"1": "1", "2": "2", "3": "1", "4": "2"},
        {"bt": "be", "gt": "ga", "at": "al", "dt": "be"},
    )
    images = []
    for b in domain.basis:
        ((p, coeff),) = b.terms.items()
        images.append(
            coalgebra.path_element(loops, coalgebra.map_path(fold, p), coeff)
        )
    return coalgebra.CoalgebraMap(domain, two_loop, images)


def localization_example(lam):
    """Two diamonds x y - lam u v glued by a zig-zag; localizing away from the
    two diamond middles a, b gives a corner algebra of type D~7."""
    q = quiver.Quiver(
        ["a", "1", "2", "4", "5", "6", "7", "8", "9", "b"],
        [("x1", "4", "a"), ("y1", "a", "1"), ("u1", "4", "2"), ("v1", "2", "1"),
         ("c1", "2", "5"), ("c2", "6", "5"), ("c3", "6", "7"), ("x2", "8", "7"),
         ("y2", "7", "9"), ("u2", "8", "b"), ("v2", "b", "9")],
    )
    elems = [coalgebra.grouplike(q, v) for v in q.vertices]
    elems += [_path(q, src, aid) for aid, src, _ in q.arrows]
    elems += [
        _path(q, "4", "x1", "y1") - coalgebra.path_element(
            q, quiver.Path("4", ("u1", "v1")), lam),
        _path(q, "8", "x2", "y2") - coalgebra.path_element(
            q, quiver.Path("8", ("u2", "v2")), lam),
        _path(q, "4", "u1", "c1"),
        _path(q, "6", "c3", "y2"),
    ]
    return coalgebra.SubCoalgebra(q, elems)


class Fixtures:
    """What set-up builds for a workload before timing starts."""

    def __init__(self, workload):
        self.inventories = []
        self.pools = []
        self.bands = {}
        self.probe_truncations = {}
        if workload == "comodule-hom":
            self._comodule_hom()
        elif workload == "coalgebra-window":
            self._coalgebra_window()

    def _comodule_hom(self):
        for raw, radius, max_dim in Q.INVENTORIES:
            params = hopf.validate_params(*raw)
            found = comodules.enumerate_indecomposables(params, radius, max_dim)
            by_dim = {}
            for item in found:
                by_dim.setdefault(item["module"].dim, []).append(item["module"])
            self.inventories.append(by_dim)
            small = [item["module"] for item in found if item["module"].dim <= 2]
            self.pools.append(small[: Q.ISO_POOL])
        for m in Q.BAND_MS:
            params = hopf.validate_params(m, m, "1", "0", "0", "0")
            trunc = hopf.truncate_to_subcoalgebra(params, m)
            self.bands[m] = comodules.build_band_family(
                params, m, list(Q.BAND_MUS), truncation=trunc
            )

    def _coalgebra_window(self):
        for lam in Q.PROBE_LAMBDAS:
            params = hopf.validate_params(0, 0, lam, "0", "0", "0")
            self.probe_truncations[lam] = (
                params, hopf.truncate_to_subcoalgebra(params, 1)
            )

    def module(self, ref):
        kind = ref[0]
        if kind == "inv":
            _, inv, dim, pick = ref
            mods = self.inventories[inv][dim]
            return mods[int(pick * len(mods))]
        if kind == "pool":
            return self.pools[ref[1]][ref[2]]
        return self.bands[ref[1]][ref[2]]


# -- hopf-axioms ---------------------------------------------------------------


def _canonical_defect(raw):
    def named(outcome):
        non_square = not all(oracle.is_rational_square(x) for x in raw[3:5])
        if isinstance(outcome, SquareRootUnavailable) and non_square:
            return oracle.DEFECT_SQRT
        return None

    return named


def run_hopf(query, fx, tally):
    """validate_params -> verify_hopf_axioms -> canonical_form ->
    verify_witness -> automorphism_group, as the CLI's verify-hopf, classify
    and aut do.  The Hopf check runs first so that a fix to classification
    does not change how much work a query does."""
    _, raw, radius, pair_seed = query
    m, n = raw[:2]
    family, group_name, swap = oracle.expected_aut_group(*raw)
    params = tally.op(
        "validate_params", lambda: hopf.validate_params(*raw),
        lambda p: _expect((p.m, p.n), oracle.normalized_pair(m, n), "(m, n)"),
    )
    if params is None:
        for what in ("verify_hopf_axioms", "canonical_form", "verify_witness",
                     "automorphism_group"):
            tally.skip(what)
        return
    checked = 4 * oracle.window_size(m, n, radius)
    tally.op(
        "verify_hopf_axioms",
        lambda: hopf.verify_hopf_axioms(params, radius, seed=pair_seed),
        lambda r: _expect((r["ok"], r["basis_checked"]), (True, checked),
                          "(ok, basis_checked)"),
    )
    tag = family[0] if family.startswith("5") else family

    def check_canonical(result):
        got_tag, canon, _ = result
        again = classify.canonical_form(canon)[:2]
        return _expect(got_tag, tag, "family tag") or _expect(
            again, (got_tag, canon), "canonical form of the canonical form")

    defect = _canonical_defect(raw)
    result = tally.op("canonical_form", lambda: classify.canonical_form(params),
                      check_canonical, defect)
    if result is None:
        tally.skip("verify_witness", tally.last_defect)
        target = params
    else:
        _, target, witness = result
        tally.op("verify_witness",
                 lambda: classify.verify_witness(witness, params, target),
                 lambda ok: _expect(ok, True, "verify_witness"))
    tally.op(
        "automorphism_group", lambda: classify.automorphism_group(target),
        lambda a: _expect((a.family, a.group_name, a.includes_swap),
                          (family, group_name, swap), "automorphism group"),
        defect,
    )


# -- comodule-hom --------------------------------------------------------------


def run_comodule(query, fx, tally):
    kind = query[0]
    if kind == "decide":
        m = query[1]
        params = hopf.validate_params(m, m, "1", "0", "0", "0")
        expect_discrete = m == 0

        def check(verdict):
            problem = _expect(verdict["discrete"], expect_discrete, "discrete")
            if problem or expect_discrete:
                return problem
            w = verdict["witness"]
            flags = (w["dimension_vectors_equal"], w["pairwise_hom_orthogonal"],
                     w["all_indecomposable"], len(w["modules"]) >= 3)
            return _expect(flags, (True,) * 4, "band witness flags")

        tally.op("decide_discrete", lambda: comodules.decide_discrete(params), check)
        return
    mods = [fx.module(ref) for ref in query[1:]]
    if kind == "indec":
        tally.op("is_indecomposable",
                 lambda: comodules.is_indecomposable(mods[0]),
                 lambda r: _expect(r, True, "is_indecomposable"))
    elif kind == "indec_sum":
        tally.op("is_indecomposable",
                 lambda: comodules.is_indecomposable(comodules.direct_sum(*mods)),
                 lambda r: _expect(r, False, "is_indecomposable of a sum"))
    elif kind == "hom_double":
        mod = mods[0]
        tally.op("hom", lambda: comodules.hom(mod, comodules.direct_sum(mod, mod)).dim,
                 lambda d: _expect(d, 2, "dim Hom(M, M+M)"))
    elif kind == "hom_orth":
        tally.op("hom", lambda: comodules.hom(*mods).dim,
                 lambda d: _expect(d, 0, "dim Hom between distinct bands"))
    elif kind == "iso_swap":
        a, b = mods

        def defect(result):
            return oracle.DEFECT_ISO_SELF_SUM if result is False and a is b else None

        tally.op(
            "are_isomorphic",
            lambda: comodules.are_isomorphic(
                comodules.direct_sum(a, b), comodules.direct_sum(b, a)),
            lambda r: _expect(r, True, "are_isomorphic(M+N, N+M)"),
            defect,
        )
    else:
        raise ValueError(f"unknown comodule-hom query {kind!r}")


# -- coalgebra-window ----------------------------------------------------------


def _check_truncation(raw, radius):
    m, n = raw[:2]
    size = oracle.window_size(m, n, radius)

    def check(trunc):
        problem = _expect(trunc.rank, 4 * size, "truncation rank") or _expect(
            len(trunc.window), size, "window size")
        if problem:
            return problem
        outside = [k for k, img in trunc.images.items()
                   if not trunc.coalgebra.contains(img)]
        return _expect(outside, [], "images outside the subcoalgebra")

    return check


def _check_ext_quiver(raw):
    m, n = raw[:2]
    interior = {f"a{i}b{j}" for i, j in oracle.window_pairs(m, n, 1)}

    def check(ext):
        pairs = [(src, dst) for _, src, dst in ext.arrows]
        if len(set(pairs)) != len(pairs):
            return "parallel arrows in the Ext-quiver"
        out_deg = Counter(src for src, _ in pairs)
        in_deg = Counter(dst for _, dst in pairs)
        degrees = {(out_deg[v], in_deg[v]) for v in interior}
        return _expect(degrees, {(2, 2)}, "interior (out, in) degrees")

    return check


def _corner_algebra(lam):
    alg = coalgebra.dualize(localization_example(lam))
    inner = [label for label, _ in alg.idempotents if label not in ("a", "b")]
    return coalgebra.gabriel_quiver(coalgebra.localize(alg, inner))


def _check_corner(gq):
    edges = [(src, dst) for _, src, dst in gq.arrows]
    if not oracle.is_extended_d(gq.vertices, edges, 7):
        return "Gabriel quiver of the corner is not D~7"
    return _expect(str(quiver.graph_class(gq)), "D~7", "graph_class")


def _cover_check(vertices, arrows):
    def check(found):
        if found is None:
            return "no non-Dynkin cover found"
        cover, phi = found
        if quiver.graph_class(cover).is_dynkin:
            return "graph_class calls the cover Dynkin"
        return oracle.check_cover(cover.vertices, cover.arrows, phi.vertex_map,
                                  phi.arrow_map, arrows, 6)

    return check


def run_coalgebra(query, fx, tally):
    kind = query[0]
    if kind == "truncate":
        _, raw, radius = query
        tally.op("truncate_to_subcoalgebra",
                 lambda: hopf.truncate_to_subcoalgebra(hopf.validate_params(*raw), radius),
                 _check_truncation(raw, radius))
    elif kind == "ext":
        raw = query[1]
        tally.op("ext_quiver",
                 lambda: coalgebra.ext_quiver(hopf.truncate_to_subcoalgebra(
                     hopf.validate_params(*raw), 2).coalgebra),
                 _check_ext_quiver(raw))
    elif kind == "probe":
        _, lam, batch = query
        params, trunc = fx.probe_truncations[lam]
        for i, j, c1, c2, member in batch:
            tally.op("contains_path_combination",
                     lambda: hopf.contains_path_combination(
                         params, 1, i, j, c1, c2, truncation=trunc),
                     lambda r: _expect(r, member, f"membership of ({c1}, {c2})"))
    elif kind == "corner":
        tally.op("dualize/localize/gabriel_quiver",
                 lambda: _corner_algebra(query[1]), _check_corner)
    elif kind == "covering":
        pi = covering_example()
        tally.op("verify_covering",
                 lambda: coalgebra.verify_covering(
                     pi, coalgebra.diamond_basis(pi.domain),
                     coalgebra.diamond_basis(pi.codomain)),
                 lambda r: _expect((r[0], r[1]["counterexample"]), (True, None),
                                   "(covering, counterexample)"))
        tally.op("separability_check", lambda: coalgebra.separability_check(pi),
                 lambda r: _expect(r, True, "separability_check"))
    elif kind == "cover":
        for vertices, arrows in query[1]:
            tally.op("find_nondynkin_cover",
                     lambda: quiver.find_nondynkin_cover(
                         quiver.Quiver(vertices, arrows), 6),
                     _cover_check(vertices, arrows))
    else:
        raise ValueError(f"unknown coalgebra-window query {kind!r}")


RUNNERS = {
    "hopf-axioms": run_hopf,
    "comodule-hom": run_comodule,
    "coalgebra-window": run_coalgebra,
}
