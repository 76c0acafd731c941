"""Matching and alignment of key (gold) and response (system) mentions.

Two match predicates are supported: ``exact`` (identical node sets) and
``partial`` (all response words inside the key mention, key head included).
The ``head`` evaluation variant is a document transform followed by
partial matching, so the aligner never sees it.

`align_mentions` returns an optimal one-to-one alignment: maximum number
of matched pairs first, maximum total word overlap second, smallest total
size of the matched key mentions third (so a response mention prefers an
exactly matching key over a larger containing one), and among remaining
ties the lexicographically smallest list of (key position, response
position) pairs, both sides numbered in document order.  The optimality
makes scores independent of input order.  Each component of the edges
takes one exact solve (`_solve_component`), in pure Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .heads import mention_head
from .model import Mention

EXACT = "exact"
PARTIAL = "partial"
HEAD = "head"

POLICIES = (EXACT, PARTIAL, HEAD)


def matches(key: Mention, resp: Mention, policy: str) -> bool:
    """Does a response mention count as matching a key mention?"""
    if policy == EXACT:
        return key.position_set == resp.position_set
    if policy == PARTIAL:
        return (resp.position_set <= key.position_set
                and mention_head(key).index in resp.position_set)
    raise ValueError(f"unknown match policy {policy!r}")


@dataclass(frozen=True)
class MentionAlignment:
    """One-to-one partial mapping between key and response mentions."""

    pairs: tuple[tuple[Mention, Mention], ...]


def align_mentions(
    key_ms: list[Mention], resp_ms: list[Mention], policy: str
) -> MentionAlignment:
    edges = _candidate_edges(key_ms, resp_ms, policy)
    chosen = solve_alignment(
        {(i, j): len(key_ms[i].position_set & resp_ms[j].position_set)
         for i, j in edges},
        [len(m.position_set) for m in key_ms],
    )
    pairs = tuple((key_ms[i], resp_ms[j]) for i, j in chosen)
    return MentionAlignment(pairs)


def _candidate_edges(
    key_ms: list[Mention], resp_ms: list[Mention], policy: str
) -> list[tuple[int, int]]:
    edges: list[tuple[int, int]] = []
    if policy == EXACT:
        by_set: dict[frozenset[int], list[int]] = {}
        for i, k in enumerate(key_ms):
            by_set.setdefault(k.position_set, []).append(i)
        for j, r in enumerate(resp_ms):
            for i in by_set.get(r.position_set, ()):
                edges.append((i, j))
    elif policy == PARTIAL:
        by_head: dict[int, list[int]] = {}
        for i, k in enumerate(key_ms):
            by_head.setdefault(mention_head(k).index, []).append(i)
        for j, r in enumerate(resp_ms):
            rset = r.position_set
            for pos in rset:
                for i in by_head.get(pos, ()):
                    if rset <= key_ms[i].position_set:
                        edges.append((i, j))
    else:
        raise ValueError(f"unknown match policy {policy!r}")
    return edges


# ---------------------------------------------------------------------------
# Maximum-weight assignment, in pure Python and exact on integer weights.

class _Matrix(list):
    """Rows of a matrix, with numpy's `size` (cells) for the benchmark's tracer."""


def linear_sum_assignment(cost: _Matrix, maximize: bool = False):
    """Assign each row of `cost` (no more rows than columns) its own column
    with the least total cost, or the largest with `maximize`; returns the
    row and column indices, as `scipy.optimize.linear_sum_assignment` does.
    Shortest augmenting paths with row and column potentials (Kuhn 1955;
    Jonker & Volgenant 1987), one new row at a time."""
    if maximize:
        cost = [[-c for c in row] for row in cost]
    n_rows, n_cols = len(cost), len(cost[0]) if cost else 0
    u, col_of = [0] * n_rows, [-1] * n_rows  # row potentials and columns
    v, row_of = [0] * n_cols, [-1] * n_cols  # column potentials and rows
    for start in range(n_rows):
        dist, via = [math.inf] * n_cols, [-1] * n_cols  # shortest paths to columns
        todo, done, i, reach = list(range(n_cols)), [], start, 0
        while True:  # Dijkstra over reduced costs until a free column
            row, shift, best, at = cost[i], reach - u[i], math.inf, -1
            for k, j in enumerate(todo):
                d = row[j] - v[j] + shift
                if d < dist[j]:
                    dist[j], via[j] = d, i
                if dist[j] < best or (dist[j] == best and row_of[j] < 0):
                    best, at = dist[j], k
            j, todo[at] = todo[at], todo[-1]
            todo.pop()
            done.append(j)
            reach, i = best, row_of[j]
            if i < 0:
                break
        u[start] += reach
        for k in done:
            if row_of[k] >= 0:
                u[row_of[k]] += reach - dist[k]
            v[k] -= reach - dist[k]
        while i != start:  # flip the path's edges, back from the free column
            i = via[j]
            row_of[j], col_of[i], j = i, j, col_of[i]
    return list(range(n_rows)), col_of


def assign(
    rows: list[int], cols: list[int], weights: dict[tuple[int, int], float]
) -> list[tuple[int, int]]:
    """The one-to-one set of edges (row, col) in rows × cols with the
    largest total weight; every weight must be positive, and edges of
    `weights` outside rows × cols are ignored."""
    cells = [(i, j) for i in rows for j in cols if (i, j) in weights]
    if len(cells) <= 1:
        return cells
    # non-edges weigh 0; the solver wants no more rows than columns
    w = [[weights.get((i, j), 0) for j in cols] for i in rows]
    flip = len(rows) > len(cols)
    if flip:
        w = [list(col) for col in zip(*w)]
    matrix = _Matrix(w)
    matrix.size = len(w) * len(w[0])
    # looked up at call time, so the module attribute can be wrapped
    ri, ci = linear_sum_assignment(matrix, maximize=True)
    chosen = ((rows[b], cols[a]) if flip else (rows[a], cols[b])
              for a, b in zip(ri, ci))
    return [e for e in chosen if e in weights]


def optimal_edges(weights: dict[tuple[int, int], float]) -> list[tuple[int, int]]:
    """`assign` over all rows and columns, solved one connected component
    of the edge graph at a time."""
    return [e for keys, resps, _ in _components(weights)
            for e in assign(keys, resps, weights)]


# ---------------------------------------------------------------------------
# Optimal alignment with deterministic tie-breaking

def solve_alignment(
    overlap: dict[tuple[int, int], int], key_sizes: list[int]
) -> list[tuple[int, int]]:
    """Pick the alignment over the given candidate edges that maximizes
    (pair count, total overlap, -total matched key size) and is
    lexicographically smallest."""
    return sorted(e for keys, resps, edges in _components(overlap)
                  for e in _solve_component(keys, resps, edges, overlap, key_sizes))


def _components(
    overlap: dict[tuple[int, int], int]
) -> list[tuple[list[int], list[int], list[tuple[int, int]]]]:
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    for i, j in overlap:
        parent[find(("k", i))] = find(("r", j))
    groups: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for edge in sorted(overlap):
        groups.setdefault(find(("k", edge[0])), []).append(edge)
    return [(sorted({i for i, _ in edges}), sorted({j for _, j in edges}), edges)
            for edges in groups.values()]


def _solve_component(
    keys: list[int],
    resps: list[int],
    edges: list[tuple[int, int]],
    overlap: dict[tuple[int, int], int],
    key_sizes: list[int],
) -> list[tuple[int, int]]:
    # One exact integer weight per edge carries the whole objective.  The
    # high part is layered: pair count over total overlap over key
    # tightness.  The low part, for the key at component position a matched
    # to the response at position b, is (nR - b) * B**(nK-1-a), B = nR + 1:
    # a total's low part is the base-B number whose digit a is nR - b (0 if
    # key a is unmatched), below B**nK.  So among the layered optima the
    # maximum takes keys in order, prefers a matched key and then the
    # smaller response: the lexicographically smallest pair list.
    if len(edges) == 1:  # nothing to break ties between
        return edges
    size_cap = max(key_sizes[i] for i in keys) + 1
    tight_scale = sum(size_cap - key_sizes[i] for i, _ in edges) + 1
    base = tight_scale * (sum(overlap[e] for e in edges) + 1)
    radix = len(resps) + 1
    high = radix ** len(keys)
    low = {i: radix ** (len(keys) - 1 - a) for a, i in enumerate(keys)}
    rank = {j: len(resps) - b for b, j in enumerate(resps)}
    weight = {(i, j): (base + tight_scale * overlap[(i, j)]
                       + size_cap - key_sizes[i]) * high + rank[j] * low[i]
              for i, j in edges}
    return assign(keys, resps, weight)


def max_total_overlap(
    key_sets: list[frozenset[int]], resp_sets: list[frozenset[int]]
) -> int:
    """Largest total word overlap achievable by a one-to-one alignment."""
    by_pos: dict[int, list[int]] = {}
    for j, r in enumerate(resp_sets):
        for pos in r:
            by_pos.setdefault(pos, []).append(j)
    overlap: dict[tuple[int, int], int] = {}
    for i, k in enumerate(key_sets):
        seen: dict[int, int] = {}
        for pos in k:
            for j in by_pos.get(pos, ()):
                seen[j] = seen.get(j, 0) + 1
        for j, ov in seen.items():
            overlap[(i, j)] = ov
    return sum(overlap[e] for e in optimal_edges(overlap))
