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
share one assignment routine, `_assign`: per-row (column, weight) edge
lists, components from a union-find over integers.  In alignment and MOR
a column is a group of identical responses (twins, `_twins`), which have
the same edges.  A component with one column group needs no solve: its
rows compete for the group's members, and ranking them by the caller's
key gives the optimum and, for the alignment, the tie-break.  Every other
component is expanded into its members and solved once, densely; the
alignment's weights are exact integers that carry its whole objective
(`_align`).  The solver starts from no matching: on tied rows, such as
twins solved densely, a greedy start matches one row, and augmenting row
reduction (Jonker & Volgenant 1987) takes 4.7 times the iterations.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, NamedTuple

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
        # a key's head lies in the key: an identical response needs no lookup
        inner, outer = resp.position_set, key.position_set
        return inner == outer or inner < outer and mention_head(key) in inner
    raise ValueError(f"unknown match policy {policy!r}")


class MentionAlignment(NamedTuple):
    """One-to-one partial mapping between key and response mentions."""

    pairs: tuple[tuple[Mention, Mention], ...]


def align_mentions(key_ms: list[Mention], resp_ms: list[Mention], policy: str) -> MentionAlignment:
    adj, later = _candidate_edges(key_ms, resp_ms, policy)
    chosen = _align(adj, len(resp_ms), later, [len(m.positions) for m in key_ms])
    return MentionAlignment(tuple((key_ms[i], resp_ms[j]) for i, j in chosen))


Adjacency = list[list[tuple[int, float]]]  # row i: its (column, weight) edges
# Identical responses (twins) share their edges, so the first one's column
# stands for all: Twins maps a first occurrence to its twins' indices.
Twins = dict[int, list[int]]


def _twins(resp_sets: list[frozenset[int]]) -> tuple[list[int], Twins]:
    """The first of each group of identical responses, ascending, and the
    twins of each first that has some."""
    first: dict[frozenset[int], int] = {}
    firsts: list[int] = []
    later: Twins = {}
    for j, r in enumerate(resp_sets):
        if (g := first.setdefault(r, j)) == j:
            firsts.append(j)
        else:
            later.setdefault(g, []).append(j)
    return firsts, later


def _candidate_edges(key_ms: list[Mention], resp_ms: list[Mention],
                     policy: str) -> tuple[Adjacency, Twins]:
    """For each key, the (column, overlap) edges of the responses it
    `matches`, where only the first of identical responses has a column;
    and the twins.  The candidates of a key are the responses whose first
    node it covers, so keys are matched, and their heads looked up, in
    key order.  The predicate fixes the overlap, the response's size under
    both policies."""
    if policy not in (EXACT, PARTIAL):
        raise ValueError(f"unknown match policy {policy!r}")
    resp_sets = [r.position_set for r in resp_ms]
    firsts, later = _twins(resp_sets)
    starting: dict[int, list[int]] = {}  # the first responses by their first node
    for j in firsts:
        starting.setdefault(resp_ms[j].start, []).append(j)
    adj: Adjacency = []
    for key in key_ms:
        adj.append([(j, len(resp_sets[j])) for position in key.positions
                    for j in starting.get(position, ()) if matches(key, resp_ms[j], policy)])
    return adj, later


# ---------------------------------------------------------------------------
# Maximum-weight assignment, in pure Python and exact on integer weights,
# one connected component of the edges at a time.

class _Matrix(list):
    """Rows of a matrix, with numpy's `size` (cells) for the benchmark's tracer."""


def linear_sum_assignment(cost: _Matrix):
    """Assign each row of `cost` (no more rows than columns) its own column
    with the largest total; returns the row and column indices in the form
    of `scipy.optimize.linear_sum_assignment`.
    Shortest augmenting paths with row and column potentials (Kuhn 1955;
    Jonker & Volgenant 1987) over the negated cells, one new row at a time."""
    n_rows, n_cols = len(cost), len(cost[0]) if cost else 0
    u, col_of = [0] * n_rows, [-1] * n_rows  # row potentials and columns
    v, row_of = [0] * n_cols, [-1] * n_cols  # column potentials and rows
    for start in range(n_rows):
        dist, via = [math.inf] * n_cols, [-1] * n_cols  # shortest paths to columns
        todo, done, i, reach = list(range(n_cols)), [], start, 0
        while True:  # Dijkstra over reduced costs until a free column
            row, shift, best, at = cost[i], reach - u[i], math.inf, -1
            for k, j in enumerate(todo):
                d = -row[j] - v[j] + shift
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
    for i, row in enumerate(adj):  # every root is a row with edges
        if row:
            root = find(i)
            if root in groups:
                groups[root][0].append(i)
            else:
                groups[root] = ([i], [])
    for x in range(n_rows, n_rows + n_cols):
        if parent[x] != x:  # a column with edges
            groups[find(x)][1].append(x - n_rows)
    return list(groups.values())


def _solve(w: list[list]) -> list[tuple[int, int]]:
    """The cells (a, b) of a one-to-one choice with the largest total in
    `w`, where a cell of 0 is no edge and never chosen."""
    flip = len(w) > len(w[0])  # the solver wants no more rows than columns
    matrix = _Matrix([list(col) for col in zip(*w)] if flip else w)
    matrix.size = len(w) * len(w[0])
    # looked up at call time, so the module attribute can be wrapped
    ri, ci = linear_sum_assignment(matrix)
    return [(a, b) for a, b in (zip(ci, ri) if flip else zip(ri, ci)) if w[a][b]]


def _assign(adj: Adjacency, n_cols: int, later: Twins, rank: Callable[[int], Any],
            weights: Callable[[list[int], list[list]], list[list]] | None = None,
            ) -> list[tuple[int, int, float]]:
    """An optimal one-to-one set of edges (row, column, weight) of `adj`,
    where column g stands for g and its twins later[g], one component at a
    time.  In a component with one column group each row has one edge; the
    rows are ranked by `rank` (a stable sort, so ties keep row order), and
    as many as the group has members take them, in row order.  Any other
    component is expanded into its members and solved once, on
    `weights(rows, values)` of its dense edge values, or on the values."""
    chosen = []
    for rows, groups in _components(adj, n_cols):
        if len(rows) == 1 == len(groups):  # a single edge, most components: no sort
            chosen.append((rows[0], groups[0], adj[rows[0]][0][1]))
        elif len(groups) == 1:
            members = (groups[0], *later.get(groups[0], ()))
            ranked = sorted(sorted(rows, key=rank)[:len(members)])
            chosen += [(i, j, adj[i][0][1]) for i, j in zip(ranked, members)]
        else:
            cols = sorted(j for g in groups for j in (g, *later.get(g, ())))
            at = {j: b for b, j in enumerate(cols)}
            values = [[0] * len(cols) for _ in rows]
            for cells, i in zip(values, rows):
                for g, x in adj[i]:
                    for j in (g, *later.get(g, ())):
                        cells[at[j]] = x
            w = values if weights is None else weights(rows, values)
            chosen += [(rows[a], cols[b], values[a][b]) for a, b in _solve(w)]
    return chosen


def optimal_edges(adj: Adjacency, n_cols: int) -> list[tuple[int, int, float]]:
    """The one-to-one set of edges (row, col, weight) with the largest total
    weight, where adj[i] lists the (col, weight > 0) edges of row i."""
    return _assign(adj, n_cols, {}, lambda i: -adj[i][0][1])


def _align(adj: Adjacency, n_resps: int, later: Twins,
           key_sizes: list[int]) -> list[tuple[int, int]]:
    # adj[i] lists key i's (column, overlap) edges.
    #
    # In a component with one group, the keys compete for its m members.
    # The optimum matches p = min(keys, m) pairs: the p keys of largest
    # overlap, then smallest size, then first position, which in position
    # order take the members in order.  That is the layered optimum with
    # the lexicographically smallest pair list, so no solve.
    #
    # Any other component takes one exact integer weight per edge carrying
    # the whole objective.  The high part is layered: pair count over total
    # overlap over key tightness.  The low part, for the key at component
    # position a matched to the response at position b, is
    # (nR - b) * B**(nK-1-a), B = nR + 1: a total's low part is the base-B
    # number whose digit a is nR - b (0 if key a is unmatched), below
    # B**nK.  So among the layered optima the maximum takes keys in order,
    # prefers a matched key and then the smaller response: the
    # lexicographically smallest pair list.
    def weights(keys: list[int], overlaps: list[list[int]]) -> list[list[int]]:
        n_keys, n_cols = len(keys), len(overlaps[0])
        size_cap = max(key_sizes[i] for i in keys) + 1
        tight_scale = sum((size_cap - key_sizes[i]) * (n_cols - row.count(0))
                          for i, row in zip(keys, overlaps)) + 1
        base = tight_scale * (sum(map(sum, overlaps)) + 1)
        high = (n_cols + 1) ** n_keys
        w = []
        for a, (i, row) in enumerate(zip(keys, overlaps)):
            low, top = (n_cols + 1) ** (n_keys - 1 - a), base + size_cap - key_sizes[i]
            w.append([ov and (top + tight_scale * ov) * high + (n_cols - b) * low
                      for b, ov in enumerate(row)])
        return w

    return sorted((i, j) for i, j, _ in _assign(
        adj, n_resps, later, lambda i: (-adj[i][0][1], key_sizes[i]), weights))


def max_total_overlap(key_sets: list[Iterable[int]], resp_sets: list[Iterable[int]]) -> int:
    """Largest total word overlap achievable by a one-to-one alignment."""
    resp_sets = [frozenset(r) for r in resp_sets]
    firsts, later = _twins(resp_sets)
    by_pos: dict[int, list[int]] = {}
    for j in firsts:
        for pos in resp_sets[j]:
            by_pos.setdefault(pos, []).append(j)
    adj: Adjacency = []
    for k in key_sets:
        seen: dict[int, int] = {}
        for pos in k & by_pos.keys():
            for g in by_pos[pos]:
                seen[g] = seen.get(g, 0) + 1
        adj.append(list(seen.items()))
    return sum(ov for _, _, ov in
               _assign(adj, len(resp_sets), later, lambda i: -adj[i][0][1]))
