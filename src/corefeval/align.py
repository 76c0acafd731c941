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
makes scores independent of input order.

The alignment, MOR (`max_total_overlap`) and CEAF-e (`optimal_edges`)
share one path: per-key (response, weight) edge lists, components from a
union-find over integers, one dense solve per component with several
edges.  The solver starts from no matching: in the dense components that
occur (nested keys on one head against identical single-word responses)
the rows tie, so a greedy start matches one row, and augmenting row
reduction (Jonker & Volgenant 1987) takes 4.7 times the iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .heads import head_position
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
                and head_position(key) in resp.position_set)
    raise ValueError(f"unknown match policy {policy!r}")


@dataclass(frozen=True)
class MentionAlignment:
    """One-to-one partial mapping between key and response mentions."""

    pairs: tuple[tuple[Mention, Mention], ...]


def align_mentions(key_ms: list[Mention], resp_ms: list[Mention], policy: str) -> MentionAlignment:
    adj = _candidate_edges(key_ms, resp_ms, policy)
    chosen = _align(adj, len(resp_ms), [len(m.position_set) for m in key_ms])
    return MentionAlignment(tuple((key_ms[i], resp_ms[j]) for i, j in chosen))


Adjacency = list[list[tuple[int, float]]]  # row i: its (column, weight) edges


def _candidate_edges(key_ms: list[Mention], resp_ms: list[Mention], policy: str) -> Adjacency:
    """For each key, its matching responses with their word overlaps: the
    predicate fixes the overlap, the response's size under both policies."""
    if policy not in (EXACT, PARTIAL):
        raise ValueError(f"unknown match policy {policy!r}")
    exact = policy == EXACT
    key_sets = [k.position_set for k in key_ms]
    by_probe: dict = {}  # keys by node set (exact) or by head position (partial)
    for i, k in enumerate(key_ms):
        by_probe.setdefault(key_sets[i] if exact else head_position(k), []).append(i)
    adj: Adjacency = [[] for _ in key_ms]
    for j, r in enumerate(resp_ms):
        rset = r.position_set
        for probe in (rset,) if exact else rset:
            for i in by_probe.get(probe, ()):
                if rset <= key_sets[i]:
                    adj[i].append((j, len(rset)))
    return adj


# ---------------------------------------------------------------------------
# Maximum-weight assignment, in pure Python and exact on integer weights,
# one connected component of the edges at a time.

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


def _components(adj: Adjacency, n_cols: int) -> list[tuple[list[int], list[int]]]:
    """The connected components of the edges of `adj` with `n_cols` columns,
    as (rows, columns), both ascending; no component is empty."""
    n_rows = len(adj)
    parent = list(range(n_rows + n_cols))  # row i is node i, column j node n_rows + j

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    for root, row in enumerate(adj):  # a row without edges so far is its own root
        for j, _ in row:
            x = n_rows + j
            if parent[x] == x:  # the column's first edge
                parent[x] = root
            elif parent[x] != root and (other := find(x)) != root:
                parent[root] = root = other
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for x in range(n_rows + n_cols):  # rows, then columns, each ascending
        if parent[x] != x or x < n_rows and adj[x]:  # x has edges: every root is a row
            side = x >= n_rows
            groups.setdefault(find(x), ([], []))[side].append(x - n_rows * side)
    return list(groups.values())


def _solve(rows: list[int], cols: list[int], w: list[list]) -> list[tuple[int, int, float]]:
    """The one-to-one set of edges (row, col, weight) with the largest total
    weight; w[a][b] > 0 weighs edge (rows[a], cols[b]), 0 marks no edge."""
    flip = len(rows) > len(cols)  # the solver wants no more rows than columns
    matrix = _Matrix([list(col) for col in zip(*w)] if flip else w)
    matrix.size = len(rows) * len(cols)
    # looked up at call time, so the module attribute can be wrapped
    ri, ci = linear_sum_assignment(matrix, maximize=True)
    return [(rows[a], cols[b], w[a][b])
            for a, b in (zip(ci, ri) if flip else zip(ri, ci)) if w[a][b]]


def optimal_edges(adj: Adjacency, n_cols: int) -> list[tuple[int, int, float]]:
    """The one-to-one set of edges (row, col, weight) with the largest total
    weight, where adj[i] lists the (col, weight > 0) edges of row i."""
    chosen = []
    for rows, cols in _components(adj, n_cols):
        if len(rows) == len(cols) == 1:  # a single edge
            chosen.append((rows[0], cols[0], adj[rows[0]][0][1]))
            continue
        at = {j: b for b, j in enumerate(cols)}
        w = [[0] * len(cols) for _ in rows]
        for cells, i in zip(w, rows):
            for j, x in adj[i]:
                cells[at[j]] = x
        chosen += _solve(rows, cols, w)
    return chosen


def solve_alignment(overlap: dict[tuple[int, int], int],
                    key_sizes: list[int]) -> list[tuple[int, int]]:
    """Pick the alignment over the given candidate edges that maximizes
    (pair count, total overlap, -total matched key size) and is
    lexicographically smallest."""
    adj: Adjacency = [[] for _ in key_sizes]
    for (i, j), ov in overlap.items():
        adj[i].append((j, ov))
    return _align(adj, max((j for _, j in overlap), default=-1) + 1, key_sizes)


def _align(adj: Adjacency, n_resps: int, key_sizes: list[int]) -> list[tuple[int, int]]:
    # One exact integer weight per edge carries the whole objective.  The
    # high part is layered: pair count over total overlap over key
    # tightness.  The low part, for the key at component position a matched
    # to the response at position b, is (nR - b) * B**(nK-1-a), B = nR + 1:
    # a total's low part is the base-B number whose digit a is nR - b (0 if
    # key a is unmatched), below B**nK.  So among the layered optima the
    # maximum takes keys in order, prefers a matched key and then the
    # smaller response: the lexicographically smallest pair list.
    chosen = []
    for keys, resps in _components(adj, n_resps):
        if len(keys) == len(resps) == 1:  # a single edge: no ties to break
            chosen.append((keys[0], resps[0]))
            continue
        size_cap = max(key_sizes[i] for i in keys) + 1
        tight_scale = sum((size_cap - key_sizes[i]) * len(adj[i]) for i in keys) + 1
        base = tight_scale * (sum(ov for i in keys for _, ov in adj[i]) + 1)
        n_keys, n_cols = len(keys), len(resps)
        high = (n_cols + 1) ** n_keys
        at = {j: b for b, j in enumerate(resps)}
        w = []
        for a, i in enumerate(keys):
            low, top = (n_cols + 1) ** (n_keys - 1 - a), base + size_cap - key_sizes[i]
            cells = [0] * n_cols
            for j, ov in adj[i]:
                b = at[j]
                cells[b] = (top + tight_scale * ov) * high + (n_cols - b) * low
            w.append(cells)
        chosen += [(i, j) for i, j, _ in _solve(keys, resps, w)]
    return sorted(chosen)


def max_total_overlap(key_sets: list[frozenset[int]], resp_sets: list[frozenset[int]]) -> int:
    """Largest total word overlap achievable by a one-to-one alignment."""
    by_pos: dict[int, list[int]] = {}
    for j, r in enumerate(resp_sets):
        for pos in r:
            by_pos.setdefault(pos, []).append(j)
    adj: Adjacency = []
    for k in key_sets:
        seen: dict[int, int] = {}
        for pos in k & by_pos.keys():
            for j in by_pos[pos]:
                seen[j] = seen.get(j, 0) + 1
        adj.append(list(seen.items()))
    return sum(ov for _, _, ov in optimal_edges(adj, len(resp_sets)))
