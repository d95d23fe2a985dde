"""Outside-in layer tracing of pathcoalg, installed from the benchmark only.

Each layer is one module of the package.  `Tracer.install` replaces the
layer's public entry points with wrappers at every place a caller resolves
them: the class attribute for methods (`SparseBasis.add`,
`CycScalar.__mul__`) and every module global bound to the function
(`comodules.nullspace`, `classify.comultiply`).  Nothing in pathcoalg is
edited.

A wrapped call records a span (name, start, end, parent) in memory.  The
scalar layer makes millions of calls per pass, so it records no spans: its
calls are counted and timed in aggregate and the time is charged as child
time to the enclosing span.  A span's self time is its duration minus the
time its child spans and scalar calls cover.
"""

from __future__ import annotations

import functools
import json
import time

from pathcoalg import classify, coalgebra, comodules, hopf, linalg, quiver, scalar

LAYERS = ("scalar", "linalg", "quiver", "coalgebra", "hopf", "comodules", "classify")
PACKAGE = {
    "scalar": scalar, "linalg": linalg, "quiver": quiver,
    "coalgebra": coalgebra, "hopf": hopf, "comodules": comodules,
    "classify": classify,
}

# Span-recording entry points per layer: the algorithms a caller asks for,
# not the per-element helpers (path labels, group canonicalization) whose
# call rate would make tracing cost more than the work.
ENTRY_POINTS = {
    "linalg": ["nullspace", "rref", "SparseBasis.add", "SparseBasis.residue",
               "SparseBasis.contains", "SparseBasis.coords"],
    "quiver": ["graph_class", "find_nondynkin_cover", "check_homogeneous",
               "grid_quiver", "quotient", "Quiver.paths_up_to"],
    "coalgebra": ["SubCoalgebra.__init__", "SubCoalgebra.contains",
                  "SubCoalgebra.coords", "path_coalgebra", "span_subcoalgebra",
                  "diamond_basis", "skew_primitives", "coradical_filtration",
                  "ext_quiver", "verify_covering", "separability_check",
                  "dualize", "localize", "gabriel_quiver",
                  "CoalgebraMap.coalgebra_map_failure", "CoalgebraMap.apply",
                  "DualAlgebra.multiply", "DualAlgebra.radical_chain"],
    "hopf": ["validate_params", "verify_hopf_axioms", "truncate_to_subcoalgebra",
             "contains_path_combination", "multiply", "comultiply", "antipode",
             "counit"],
    "comodules": ["hom", "is_indecomposable", "are_isomorphic", "direct_sum",
                  "build_simple", "build_string", "build_diamond",
                  "build_band_family", "enumerate_indecomposables",
                  "decide_discrete"],
    "classify": ["canonical_form", "verify_witness", "are_isomorphic",
                 "automorphism_group"],
}

# Aggregated (span-free) scalar entry points; the arithmetic ones are "ops".
SCALAR_OPS = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__neg__", "__truediv__", "__rtruediv__", "__pow__",
              "inverse"]
SCALAR_FUNCTIONS = ["sqrt", "root_of_unity_order", "parse_scalar"]

# per-layer metrics: inclusive time of one entry point, reported in seconds
TIMED = {
    "hopf.verify_s": "hopf.verify_hopf_axioms",
    "hopf.truncate_s": "hopf.truncate_to_subcoalgebra",
    "comodules.hom_s": "comodules.hom",
    "comodules.indecomposable_s": "comodules.is_indecomposable",
    "comodules.isomorphic_s": "comodules.are_isomorphic",
    "coalgebra.ext_quiver_s": "coalgebra.ext_quiver",
    "coalgebra.dualize_s": "coalgebra.dualize",
    "quiver.cover_search_s": "quiver.find_nondynkin_cover",
    "classify.canonical_form_s": "classify.canonical_form",
}
# per-layer metrics: call counts of one entry point
CALLS = {
    "linalg.basis_adds": "linalg.SparseBasis.add",
    "linalg.residue_calls": "linalg.SparseBasis.residue",
    "linalg.nullspace_calls": "linalg.nullspace",
    "hopf.multiply_calls": "hopf.multiply",
    "hopf.comultiply_calls": "hopf.comultiply",
    "hopf.antipode_calls": "hopf.antipode",
    "comodules.hom_calls": "comodules.hom",
    "coalgebra.subcoalgebra_builds": "coalgebra.SubCoalgebra.__init__",
    "coalgebra.contains_calls": "coalgebra.SubCoalgebra.contains",
    "quiver.graph_class_calls": "quiver.graph_class",
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "scalar.ops": "count", "scalar.inverse_calls": "count",
        "scalar.cyclotomic_share": "ratio", "linalg.useful_add_ratio": "ratio",
        "comodules.hom_unknowns": "count", "trace.overhead_share": "ratio",
    }
    units.update({name: "count" for name in CALLS})
    units.update({name: "s" for name in TIMED})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    return dict(sorted(units.items()))


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        # span: [name, parent index or -1, start, end, child time]
        self.spans = []
        self._stack = []
        self.calls = {}
        self.scalar_ops = 0
        self.scalar_cyclotomic_ops = 0
        self.scalar_inverse_calls = 0
        self.scalar_s = 0.0
        self._in_scalar = False
        self.useful_adds = 0
        self.hom_unknowns = 0
        self._restore = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            record = [name, parent, 0.0, 0.0, 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                record[3] = end
                stack.pop()
                if parent >= 0:
                    tracer.spans[parent][4] += end - record[2]
            if after is not None:
                after(args, result)
            return result

        return wrapped

    def _scalar(self, name, fn):
        tracer = self
        is_op = name in SCALAR_OPS
        is_inverse = name == "inverse"

        @functools.wraps(fn)
        def wrapped(self_, *rest):
            if is_inverse:
                tracer.scalar_inverse_calls += 1
            if tracer._in_scalar:
                return fn(self_, *rest)
            if is_op:
                tracer.scalar_ops += 1
                if getattr(self_, "n", 1) > 1 or (rest and getattr(rest[0], "n", 1) > 1):
                    tracer.scalar_cyclotomic_ops += 1
            tracer._in_scalar = True
            start = time.perf_counter()
            try:
                return fn(self_, *rest)
            finally:
                spent = time.perf_counter() - start
                tracer._in_scalar = False
                tracer.scalar_s += spent
                if tracer._stack:
                    tracer.spans[tracer._stack[-1]][4] += spent

        return wrapped

    def _after_add(self, args, enlarged):
        if enlarged:
            self.useful_adds += 1

    def _before_hom(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(m1, m2):
            tracer.hom_unknowns += m1.dim * m2.dim
            return fn(m1, m2)

        return counted

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind_globals(self, original, new):
        for module in PACKAGE.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, new)

    def install(self):
        cyc_class = scalar.CycScalar
        for attr in SCALAR_OPS:
            self._replace(cyc_class, attr,
                          self._scalar(attr, cyc_class.__dict__[attr]))
        for attr in SCALAR_FUNCTIONS:
            self._rebind_globals(getattr(scalar, attr),
                                 self._scalar(attr, getattr(scalar, attr)))
        for layer, entries in ENTRY_POINTS.items():
            module = PACKAGE[layer]
            for entry in entries:
                name = f"{layer}.{entry}"
                owner_name, _, attr = entry.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    fn = owner.__dict__[attr]
                    after = self._after_add if name == "linalg.SparseBasis.add" else None
                    self._replace(owner, attr, self._span(name, fn, after))
                    continue
                fn = getattr(module, attr)
                inner = self._before_hom(fn) if name == "comodules.hom" else fn
                self._rebind_globals(fn, self._span(name, inner))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def _inclusive(self, name):
        """Total duration of the spans with this name that have no ancestor
        of the same name."""
        total = 0.0
        for record in self.spans:
            if record[0] != name:
                continue
            parent = record[1]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][1]
            if parent < 0:
                total += record[3] - record[2]
        return total

    def metrics(self):
        self_s = {layer: 0.0 for layer in LAYERS}
        self_s["scalar"] = self.scalar_s
        for name, _, start, end, child in self.spans:
            self_s[name.split(".", 1)[0]] += end - start - child
        adds = self.calls.get(CALLS["linalg.basis_adds"], 0)
        out = {
            "scalar.ops": self.scalar_ops,
            "scalar.inverse_calls": self.scalar_inverse_calls,
            "scalar.cyclotomic_share":
                self.scalar_cyclotomic_ops / self.scalar_ops if self.scalar_ops else 0.0,
            "linalg.useful_add_ratio": self.useful_adds / adds if adds else 0.0,
            "comodules.hom_unknowns": self.hom_unknowns,
        }
        out.update({metric: self.calls.get(name, 0) for metric, name in CALLS.items()})
        out.update({metric: self._inclusive(name) for metric, name in TIMED.items()})
        out.update({f"{layer}.self_s": value for layer, value in self_s.items()})
        return out

    def write_spans(self, path):
        """One JSON array per line: name, parent index, start, end (seconds
        from the first span)."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as handle:
            for name, parent, start, end, _ in self.spans:
                handle.write(json.dumps(
                    [name, parent, round(start - origin, 9), round(end - origin, 9)]
                ) + "\n")
