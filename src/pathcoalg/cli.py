"""Command-line interface: JSON on stdout, logs on stderr.

Exit codes: 0 affirmative/successful verdict, 1 negative verdict,
2 error (with machine-readable {"error", "detail"} JSON).
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import are_isomorphic, automorphism_group, canonical_form, family_label
from .coalgebra import (
    CoalgebraMap,
    SubCoalgebra,
    diamond_basis,
    push_forward,
    separability_check,
    verify_covering,
)
from .comodules import decide_discrete, enumerate_indecomposables
from .errors import (
    AxiomFailure,
    Disconnected,
    InvalidMorphism,
    NotDiscreteParams,
    ParseError,
    PathcoalgError,
    UsageError,
)
from .hopf import validate_params, verify_hopf_axioms
from .quiver import Quiver, QuiverMorphism, check_homogeneous, find_nondynkin_cover, graph_class


def _log(message):
    print(message, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as UsageError, so it ends in the error JSON, and
    lets each (sub)parser attach the values of its scalar flags."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else args
        return super().parse_known_args(
            _attach_scalar_values(args, self._option_string_actions), namespace
        )


_SCALAR_FLAGS = {
    f"--{name}{suffix}" for name in ("lambda", "s", "t", "k") for suffix in ("", "2")
}


def _is_scalar_flag(token, options):
    """Whether argparse reads `token` as a scalar flag among `options`: by its
    full name, or by a prefix that starts only one option (`--lam`)."""
    named = [token] if token in options else [o for o in options if o.startswith(token)]
    return token.startswith("--") and len(named) == 1 and named[0] in _SCALAR_FLAGS


def _attach_scalar_values(argv, options):
    """Write `--s -1/4` as `--s=-1/4`: argparse takes a separate value with a
    leading '-' that is not a plain number for a flag."""
    out = []
    for token in argv:
        if out and _is_scalar_flag(out[-1], options):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _add_param_flags(sub, suffix=""):
    sub.add_argument(f"-m{suffix}" if suffix else "-m", type=int, required=True)
    sub.add_argument(f"-n{suffix}" if suffix else "-n", type=int, required=True)
    sub.add_argument(f"--lambda{suffix}", dest=f"lam{suffix}", default="1")
    sub.add_argument(f"--s{suffix}", default="0")
    sub.add_argument(f"--t{suffix}", default="0")
    sub.add_argument(f"--k{suffix}", default="0")


def _params_from(args, suffix=""):
    return validate_params(
        getattr(args, f"m{suffix}"),
        getattr(args, f"n{suffix}"),
        getattr(args, f"lam{suffix}"),
        getattr(args, f"s{suffix}"),
        getattr(args, f"t{suffix}"),
        getattr(args, f"k{suffix}"),
    )


def cmd_verify_hopf(args):
    params = _params_from(args)
    _log(f"verifying Hopf axioms for {params} at radius {args.radius}")
    try:
        report = verify_hopf_axioms(params, args.radius)
    except AxiomFailure as exc:
        return {"ok": False, "detail": exc.detail, "witness": exc.witness}, False
    return report, bool(report["ok"])


def cmd_classify(args):
    params = _params_from(args)
    _log(f"classifying {params}")
    tag, canonical, witness = canonical_form(params)
    return {
        "family": family_label(tag, canonical),
        "canonical_params": canonical.to_json(),
        "witness": witness.to_json(),
    }, True


def cmd_iso(args):
    p1 = _params_from(args)
    p2 = _params_from(args, "2")
    _log(f"testing isomorphism {p1} vs {p2}")
    witness = are_isomorphic(p1, p2)
    if witness is None:
        return {"isomorphic": False}, False
    return {"isomorphic": True, "witness": witness.to_json()}, True


def cmd_aut(args):
    params = _params_from(args)
    _log(f"computing automorphism group of {params}")
    return automorphism_group(params).to_json(), True


def cmd_enumerate(args):
    params = _params_from(args)
    _log(
        f"enumerating indecomposables for {params}, radius {args.radius}, "
        f"max dimension {args.max_dim}"
    )
    try:
        found = enumerate_indecomposables(params, args.radius, args.max_dim)
    except NotDiscreteParams:
        verdict = decide_discrete(params)
        return {"discrete": False, "witness": verdict["witness"]}, False
    modules = [
        {
            "kind": item["kind"],
            "dimension": item["module"].dim,
            "labels": item["module"].labels,
            "dimension_vector": {
                v: str(c) for v, c in item["module"].dimension_vector().items()
            },
        }
        for item in found
    ]
    return {"discrete": True, "count": len(modules), "modules": modules}, True


def _load_quiver(path):
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return Quiver.from_json(json.loads(text))
    return Quiver.from_text(text)


def cmd_quiver(args):
    quiver = _load_quiver(args.quiver_file)
    _log(f"analyzing quiver with {len(quiver.vertices)} vertices")
    try:
        gclass = str(graph_class(quiver))
    except Disconnected:
        gclass = "Disconnected"
    homo = check_homogeneous(quiver)
    cover = find_nondynkin_cover(quiver, args.bound)
    result = {
        "graph_class": gclass,
        "is_homogeneous": homo["is_homogeneous"],
        "degrees": homo["per_vertex"],
        "nondynkin_cover": None,
        "verdict": "no obstruction found",
    }
    if cover is not None:
        cq, morphism = cover
        result["nondynkin_cover"] = {
            "quiver": cq.to_json(),
            "graph_class": str(graph_class(cq)),
            "morphism": morphism.to_json(),
        }
        result["verdict"] = "infinite type"
    return result, True


def _load_coalgebra(path):
    with open(path) as handle:
        return SubCoalgebra.from_json(json.load(handle))


def cmd_covering(args):
    dom = _load_coalgebra(args.domain)
    cod = _load_coalgebra(args.codomain)
    with open(args.map_file) as handle:
        raw = json.load(handle)
    maps = [raw.get(k) if isinstance(raw, dict) else None for k in ("vertex_map", "arrow_map")]
    if not all(isinstance(m, dict) and all(isinstance(x, str) for x in m.values()) for m in maps):
        raise ParseError("bad map JSON: want vertex_map and arrow_map objects of strings")
    fold = QuiverMorphism(dom.quiver, cod.quiver, *maps)
    if not fold.is_valid():
        raise InvalidMorphism("the map file does not define a quiver morphism")
    _log(f"checking covering {dom!r} -> {cod!r}")
    pi = CoalgebraMap(dom, cod, push_forward(dom, fold))
    ok, report = verify_covering(pi, diamond_basis(dom), diamond_basis(cod))
    result = {"covering": ok, "report": report}
    if args.separability and ok:
        result["separability"] = separability_check(pi)
    return result, ok


def build_parser():
    parser = _Parser(
        prog="pathcoalg",
        description="Exact computations with grid-window path coalgebras",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser(
        "verify-hopf",
        help="prove the Hopf axioms by a finite certificate: the relations, "
        "the structure maps on them, and the axioms on the generators",
    )
    _add_param_flags(p)
    p.add_argument(
        "-N", dest="radius", type=int, default=2,
        help="window radius; the report counts its monomials in basis_checked",
    )
    p.set_defaults(func=cmd_verify_hopf)

    for name, func, text, suffixes in (
            ("classify", cmd_classify, "canonical form and family tag", [""]),
            ("iso", cmd_iso, "isomorphism test between two parameter sets", ["", "2"]),
            ("aut", cmd_aut, "automorphism group of a canonical form", [""])):
        p = subs.add_parser(name, help=text)
        for suffix in suffixes:
            _add_param_flags(p, suffix)
        p.set_defaults(func=func)

    p = subs.add_parser("enumerate", help="indecomposable comodule inventory")
    _add_param_flags(p)
    p.add_argument("-N", dest="radius", type=int, default=2)
    p.add_argument("--max-dim", dest="max_dim", type=int, default=6)
    p.set_defaults(func=cmd_enumerate)

    p = subs.add_parser("quiver", help="graph class, homogeneity, cover search")
    p.add_argument("quiver_file")
    p.add_argument("--bound", type=int, default=6)
    p.set_defaults(func=cmd_quiver)

    p = subs.add_parser("covering", help="verify a coalgebra covering map")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("map_file")
    p.add_argument("--separability", action="store_true")
    p.set_defaults(func=cmd_covering)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
        result, ok = args.func(args)
    except PathcoalgError as exc:
        print(json.dumps({"error": exc.code, "detail": exc.detail}, sort_keys=True))
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "InputError", "detail": str(exc)}, sort_keys=True))
        return 2
    print(json.dumps(result, sort_keys=True, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
