"""Seeded query lists for the three workloads.

A query is plain data: the workload's kind tag plus the text inputs a user
would type on the command line.  Generation never touches pathcoalg, and the
list length depends only on the workload, never on a clock, so every pass of a
run does the same amount of work.  Queries that use set-up fixtures name them
by position ("the k-th dimension-d module of inventory i"); `workloads`
resolves those names after set-up.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import oracle

# -- hopf-axioms ---------------------------------------------------------------

PAIRS = [(0, 0), (2, 0), (3, 1), (4, 2), (2, -2)]
RADII = (1, 2, 3)
CYCLOTOMIC_SETS = [(0, 0, "z4", "0", "0", "0"), (4, 0, "z4", "0", "0", "0")]
NON_SQUARES = ["2", "3", "5", "6", "7", "1/2", "2/3", "3/5"]


def family_representatives(m, n):
    """One (lambda, s, t, k) per family 1..8, in family order."""
    if (m, n) == (0, 0):
        lam1 = "z3"
    elif math.gcd(m, n) % 2 == 0:
        lam1 = "-1"
    else:
        lam1 = "1"
    return [
        (lam1, "0", "0", "0"),
        ("-1", "0", "1", "0"),
        ("-1", "1", "0", "0"),
        ("-1", "1", "1", "0"),
        ("1", "1", "1", "1"),
        ("1", "1", "0", "0"),
        ("1", "1", "0", "1"),
        ("1", "0", "0", "1"),
    ]


def hopf_parameter_sets(rng):
    """The criterion-1 grid, two cyclotomic sets, and two sets with
    non-square rational s (drawn from the seed)."""
    sets = [
        (m, n) + rep
        for m, n in PAIRS
        for rep in family_representatives(m, n)
        if oracle.param_laws_ok(m, n, *rep)
    ]
    sets += CYCLOTOMIC_SETS
    s1, t1 = rng.sample(NON_SQUARES, 2)
    sets.append((0, 0, "1", s1, t1, "0"))
    sets.append((2, 0, "-1", rng.choice(NON_SQUARES), "0", "0"))
    return sets


def hopf_axioms(seed):
    """One query per (parameter set, radius); the seed picks the non-square
    sets, the multiplicativity pairs verify_hopf_axioms samples, and the
    order."""
    rng = random.Random(f"hopf-axioms:{seed}")
    queries = [
        ("hopf", raw, radius, rng.randrange(2**31))
        for raw in hopf_parameter_sets(rng)
        for radius in RADII
    ]
    rng.shuffle(queries)
    return queries


# -- comodule-hom --------------------------------------------------------------

# (parameter set, radius, dimension bound) of each enumerated inventory
INVENTORIES = [
    ((0, 0, "1", "0", "0", "0"), 2, 8),
    ((2, 0, "-1", "0", "0", "0"), 2, 6),
    ((3, 1, "1", "0", "0", "0"), 2, 6),
]
BAND_MS = (2, 4, 6)
BAND_SUM_MS = (2, 4)  # a sum of two 6-bands takes seconds per query
BAND_MUS = ("1", "2", "3")
PICKS_PER_DIM = 4
# dimensions of the two summands of the inventory sums tested for
# indecomposability
SUM_DIMS = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4)]
ISO_POOL = 6  # leading modules of dimension <= 2 that iso pairs draw from
ISO_PER_INVENTORY = 14
DECIDE_MS = (0, 2, 4)
DECIDE_REPEATS = 2


def _inventory_module(rng, inv, dim):
    return ("inv", inv, dim, rng.random())


def _stratum(rng, inv, dim):
    """PICKS_PER_DIM modules spread evenly over one (inventory, dimension)
    stratum; the seed shifts where the picks fall."""
    shift = rng.random()
    return [("inv", inv, dim, (k + shift) / PICKS_PER_DIM) for k in range(PICKS_PER_DIM)]


def comodule_hom(seed):
    """Indecomposability, Hom dimensions, isomorphism of swapped sums, and
    the discreteness decision.  Modules are drawn per (inventory, dimension)
    stratum so every seed has the same dimension mix."""
    rng = random.Random(f"comodule-hom:{seed}")
    queries = []
    for inv, (_, _, max_dim) in enumerate(INVENTORIES):
        for dim in range(1, max_dim + 1):
            queries += [("indec", ref) for ref in _stratum(rng, inv, dim)]
            queries += [("hom_double", ref) for ref in _stratum(rng, inv, dim)]
        for d1, d2 in SUM_DIMS:
            queries.append((
                "indec_sum",
                _inventory_module(rng, inv, d1),
                _inventory_module(rng, inv, d2),
            ))
        for _ in range(ISO_PER_INVENTORY):
            # drawn with replacement, so M = N happens
            queries.append((
                "iso_swap",
                ("pool", inv, rng.randrange(ISO_POOL)),
                ("pool", inv, rng.randrange(ISO_POOL)),
            ))
    for m in BAND_MS:
        for i in range(len(BAND_MUS)):
            queries.append(("indec", ("band", m, i)))
            queries.append(("hom_double", ("band", m, i)))
            for j in range(len(BAND_MUS)):
                if i != j:
                    queries.append(("hom_orth", ("band", m, i), ("band", m, j)))
    for m in BAND_SUM_MS:
        for i in range(len(BAND_MUS)):
            for j in range(i + 1, len(BAND_MUS)):
                queries.append(("indec_sum", ("band", m, i), ("band", m, j)))
    for m in DECIDE_MS:
        queries += [("decide", m)] * DECIDE_REPEATS
    rng.shuffle(queries)
    return queries


# -- coalgebra-window ----------------------------------------------------------

TRUNCATION_SETS = [
    (0, 0, "1", "0", "0", "0"),
    (3, 1, "1", "0", "0", "0"),
    (4, 2, "1", "0", "0", "0"),
    (0, 0, "z3", "0", "0", "0"),
]
EXT_SETS = [
    (0, 0, "1", "0", "0", "0"),
    (3, 1, "1", "0", "0", "0"),
    (2, -2, "1", "0", "0", "0"),
]
PROBE_BATCHES = 25  # per lambda
# probes per batch: a z4 probe costs ~2.5 rational ones, so that all batches
# cost about the same and the p50 falls inside their cluster
PROBE_BATCH = {"1": 40, "-1": 40, "z4": 16}
PROBE_LAMBDAS = tuple(PROBE_BATCH)
CORNER_LAMBDAS = ("-2", "1/2")
COVERING_REPEATS = 8
COVER_BATCHES = 10
COVER_BATCH = 8


def _rational(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def membership_probe(rng, lam):
    """(i, j, c1, c2, expected) for the radius-1 window of (0, 0, lam); half
    the probes lie on the diamond c2 = -lam c1."""
    i, j = rng.randint(-1, 1), rng.randint(-1, 1)
    c1 = _rational(rng)
    if rng.random() < 0.5:
        if lam == "z4":
            c2 = f"-({c1})*z4^1"
        else:
            c2 = str(-Fraction(lam) * c1)
        return i, j, str(c1), c2, True
    c2 = _rational(rng)
    while oracle.in_membership_span(lam, c1, c2):
        c2 = _rational(rng)
    return i, j, str(c1), str(c2), False


def relabelled_square_with_loops(rng):
    """The square 1 -> 2 -> 4, 1 -> 3 -> 4 with loops at 2 and 3, under
    seeded vertex and arrow names (which reorders the cover search)."""
    names = rng.sample(range(100), 4)
    v = {old: f"q{x}" for old, x in zip("1234", names)}
    ids = rng.sample(range(100), 6)
    arrows = [
        (f"e{ids[0]}", v["1"], v["2"]),
        (f"e{ids[1]}", v["2"], v["4"]),
        (f"e{ids[2]}", v["1"], v["3"]),
        (f"e{ids[3]}", v["3"], v["4"]),
        (f"e{ids[4]}", v["2"], v["2"]),
        (f"e{ids[5]}", v["3"], v["3"]),
    ]
    return [v[x] for x in "1234"], arrows


def coalgebra_window(seed):
    """Truncations, Ext-quivers, batched membership probes, the corner
    algebra, the square covering and the non-Dynkin cover search."""
    rng = random.Random(f"coalgebra-window:{seed}")
    queries = [
        ("truncate", raw, radius) for raw in TRUNCATION_SETS for radius in RADII
    ]
    queries += [("ext", raw) for raw in EXT_SETS]
    for lam in PROBE_LAMBDAS:
        for _ in range(PROBE_BATCHES):
            batch = [membership_probe(rng, lam) for _ in range(PROBE_BATCH[lam])]
            queries.append(("probe", lam, batch))
    queries += [("corner", lam) for lam in CORNER_LAMBDAS]
    queries += [("covering",)] * COVERING_REPEATS
    for _ in range(COVER_BATCHES):
        batch = [relabelled_square_with_loops(rng) for _ in range(COVER_BATCH)]
        queries.append(("cover", batch))
    rng.shuffle(queries)
    return queries


GENERATORS = {
    "hopf-axioms": hopf_axioms,
    "comodule-hom": comodule_hom,
    "coalgebra-window": coalgebra_window,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload, seed):
    return GENERATORS[workload](seed)
