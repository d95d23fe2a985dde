"""Closed-form answers the benchmark checks pathcoalg against.

Nothing here imports pathcoalg: every expected answer comes from the
presentation of B(m, n, lambda, s, t, k), the classification tables, or plain
graph combinatorics, so a wrong answer from the library cannot also make the
expectation wrong.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

# multiplicative order of the lambda values the workloads use
LAMBDA_ORDER = {"1": 1, "-1": 2, "z3": 3, "z4": 4}

# Two defects the library has today.  An operation that hits one counts as
# failed, not as a wrong answer, so the run stays correct while the defect
# shows in failed / attempted.
DEFECT_ISO_SELF_SUM = "comodules.are_isomorphic(M+M, M+M) is False"
DEFECT_SQRT = "classify.canonical_form raises SquareRootUnavailable"

# automorphism group names of the canonical representatives, without and
# with the x <-> y swap (the two tables of the classification)
AUT_GROUP = {
    False: {
        "1": "Kx x Kx", "2": "Kx x Z/2", "3": "Kx x Z/2", "4": "Z/2 x Z/2",
        "5A": "Z/2 x Z/2", "5B": "Z/2", "6": "Kx x Z/2", "6'": "Kx x Z/2",
        "7": "Z/2", "7'": "Z/2", "8": "Kx",
    },
    True: {
        "1": "(Kx x Kx) : Z/2", "5A": "D_4", "5B": "Z/2 x Z/2", "8": "Dih(Kx)",
    },
}


def is_zero(text):
    return Fraction(text) == 0


def normalized_pair(m, n):
    """(m, n) after the sign normalization m >= 0, and n >= 0 when m = 0."""
    if m < 0 or (m == 0 and n < 0):
        return -m, -n
    return m, n


def param_laws_ok(m, n, lam, s, t, k):
    """The parameter laws, for lam in LAMBDA_ORDER and rational s, t, k."""
    m, n = normalized_pair(m, n)
    if (m, n) == (1, 1) or (m + n) % 2:
        return False
    if (m, n) != (0, 0) and math.gcd(m, n) % LAMBDA_ORDER[lam]:
        return False
    return lam == "1" or (lam == "-1" and is_zero(k)) or (
        is_zero(s) and is_zero(t) and is_zero(k)
    )


def window_pairs(m, n, radius):
    """Canonical a^i b^j with |i|, |j| <= radius: a^m = b^n lets i run over
    one period [0, m) when m > 0, and j over [0, n) when m = 0 < n."""
    m, n = normalized_pair(m, n)
    box = range(-radius, radius + 1)
    return {
        (i, j)
        for i in box
        for j in box
        if (m == 0 or 0 <= i < m) and (m != 0 or n == 0 or 0 <= j < n)
    }


def window_size(m, n, radius):
    return len(window_pairs(m, n, radius))


def is_rational_square(text):
    q = Fraction(text)
    if q < 0:
        return False
    return all(math.isqrt(x) ** 2 == x for x in (q.numerator, q.denominator))


def swap_available(m, n, lam):
    m, n = normalized_pair(m, n)
    return m == -n and lam == "1"


def expected_family(m, n, lam, s, t, k):
    """Family tag of the classification table, read off the zero pattern
    of (s, t, k) and whether lambda is -1."""
    s0, t0, k0 = is_zero(s), is_zero(t), is_zero(k)
    swap = swap_available(m, n, lam)
    if s0 and t0 and k0:
        return "1"
    if lam == "-1":
        return "2" if s0 else "3" if t0 else "4"
    if not s0 and not t0:
        return "5A" if k0 else "5B"
    if k0:
        return "6" if not s0 or swap else "6'"
    if not s0:
        return "7"
    if not t0:
        return "7" if swap else "7'"
    return "8"


def expected_aut_group(m, n, lam, s, t, k):
    """(family, group name, includes swap) for the canonical representative
    of the class of (m, n, lam, s, t, k)."""
    family = expected_family(m, n, lam, s, t, k)
    # the representative has s = 0 iff t = 0 exactly for families 1, 5, 8
    swap = swap_available(m, n, lam) and family in ("1", "5A", "5B", "8")
    return family, AUT_GROUP[swap][family], swap


def in_membership_span(lam, c1, c2):
    """c1 (x|y) + c2 (y|x) lies in the span of the diamond xy - lam yx iff
    c2 + lam c1 = 0; c1, c2 are rational and lam is one of LAMBDA_ORDER."""
    c1, c2 = Fraction(c1), Fraction(c2)
    if lam == "z4":
        return c1 == 0 and c2 == 0
    return c2 + Fraction(lam) * c1 == 0


def _degrees(edges):
    deg = Counter()
    for u, w in edges:
        deg[u] += 1
        deg[w] += 1
    return deg


def _connected(vertices, edges):
    adj = {v: set() for v in vertices}
    for u, w in edges:
        adj[u].add(w)
        adj[w].add(u)
    seen, stack = set(), [next(iter(adj))]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(adj[v] - seen)
    return len(seen) == len(adj)


def is_extended_d(vertices, edges, index):
    """The underlying graph is the extended Dynkin diagram D~index: a tree on
    index + 1 vertices with two degree-3 vertices, each next to two leaves."""
    vertices = list(vertices)
    if len(vertices) != index + 1 or len(edges) != index:
        return False
    if len({frozenset(e) for e in edges}) != len(edges):
        return False
    if not _connected(vertices, edges):
        return False
    deg = _degrees(edges)
    branch = [v for v in vertices if deg[v] == 3]
    if len(branch) != 2 or any(deg[v] > 3 for v in vertices):
        return False
    for b in branch:
        leaves = sum(
            1 for u, w in edges if b in (u, w) and deg[w if u == b else u] == 1
        )
        if leaves != 2:
            return False
    return True


def _arms(vertices, edges, center):
    adj = {v: [] for v in vertices}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    arms = []
    for first in adj[center]:
        prev, cur, length = center, first, 1
        while len(adj[cur]) == 2:
            prev, cur = cur, next(x for x in adj[cur] if x != prev)
            length += 1
        arms.append(length)
    return sorted(arms)


def is_dynkin_graph(vertices, edges):
    """Connected graph of type A, D or E (no loops, no multiple edges)."""
    vertices = list(vertices)
    if any(u == w for u, w in edges):
        return False
    if len({frozenset(e) for e in edges}) != len(edges):
        return False
    if len(edges) != len(vertices) - 1 or not _connected(vertices, edges):
        return False
    deg = _degrees(edges)
    branch = [v for v in vertices if deg[v] >= 3]
    if not branch:
        return True
    if len(branch) > 1 or deg[branch[0]] > 3:
        return False
    p, q, r = _arms(vertices, edges, branch[0])
    return (p, q) == (1, 1) or (p == 1 and q == 2 and r in (2, 3, 4))


def check_cover(cover_vertices, cover_arrows, vertex_map, arrow_map,
                target_arrows, bound):
    """None when (cover, morphism) is a non-Dynkin cover of at most `bound`
    vertices whose arrows map injectively onto target arrows with matching
    ends; otherwise a description of what is wrong."""
    if len(cover_vertices) > bound:
        return f"cover has {len(cover_vertices)} > {bound} vertices"
    ends = {aid: (src, dst) for aid, src, dst in target_arrows}
    images = [arrow_map[aid] for aid, _, _ in cover_arrows]
    if len(set(images)) != len(images):
        return "cover arrows do not map injectively"
    for aid, src, dst in cover_arrows:
        if ends.get(arrow_map[aid]) != (vertex_map[src], vertex_map[dst]):
            return f"arrow {aid} does not map onto a target arrow"
    edges = [(src, dst) for _, src, dst in cover_arrows]
    if is_dynkin_graph(cover_vertices, edges):
        return "cover graph is Dynkin"
    return None
