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
"""

from __future__ import annotations

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
    policy: str

    def response_index_map(
        self, key_ms: list[Mention], resp_ms: list[Mention]
    ) -> dict[int, int]:
        """Map response positions to the key positions they align with."""
        key_pos = {id(m): i for i, m in enumerate(key_ms)}
        resp_pos = {id(m): j for j, m in enumerate(resp_ms)}
        return {resp_pos[id(r)]: key_pos[id(k)] for k, r in self.pairs}


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
    return MentionAlignment(pairs, policy)


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
# Maximum-weight assignment.  numpy and scipy are imported at the first
# component with more than one edge, so runs that never need a real solve
# (most scoring, and every command but `score`) never load them.

def linear_sum_assignment(cost, maximize: bool = False):
    """`scipy.optimize.linear_sum_assignment`, imported when first called."""
    from scipy.optimize import linear_sum_assignment as solve
    return solve(cost, maximize=maximize)


def assign(
    rows: list[int], cols: list[int], weights: dict[tuple[int, int], float]
) -> list[tuple[int, int]]:
    """The one-to-one set of edges (row, col) in rows × cols with the
    largest total weight; every weight must be positive, and edges of
    `weights` outside rows × cols are ignored."""
    cells = [(a, b) for a, i in enumerate(rows) for b, j in enumerate(cols)
             if (i, j) in weights]
    if len(cells) <= 1:
        return [(rows[a], cols[b]) for a, b in cells]
    import numpy as np

    w = np.zeros((len(rows), len(cols)))
    at_rows, at_cols = zip(*cells)
    w[at_rows, at_cols] = [weights[(rows[a], cols[b])] for a, b in cells]
    # looked up at call time, so the module attribute can be wrapped
    ri, ci = linear_sum_assignment(w, maximize=True)
    chosen = ((rows[a], cols[b]) for a, b in zip(ri.tolist(), ci.tolist()))
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
    chosen: list[tuple[int, int]] = []
    for keys, resps, edges in _components(overlap):
        if len(edges) == 1:  # nothing to break ties between
            chosen.extend(edges)
        else:
            chosen.extend(_solve_component(keys, resps, edges, overlap, key_sizes))
    chosen.sort()
    return chosen


def _components(
    overlap: dict[tuple[int, int], int]
) -> list[tuple[list[int], list[int], list[tuple[int, int]]]]:
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in overlap:
        parent.setdefault(("k", i), ("k", i))
        parent.setdefault(("r", j), ("r", j))
        a, b = find(("k", i)), find(("r", j))
        if a != b:
            parent[a] = b

    groups: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for edge in sorted(overlap):
        groups.setdefault(find(("k", edge[0])), []).append(edge)
    out = []
    for edges in groups.values():
        keys = sorted({i for i, _ in edges})
        resps = sorted({j for _, j in edges})
        out.append((keys, resps, edges))
    return out


def _solve_component(
    keys: list[int],
    resps: list[int],
    edges: list[tuple[int, int]],
    overlap: dict[tuple[int, int], int],
    key_sizes: list[int],
) -> list[tuple[int, int]]:
    # layered integer weights: pair count over total overlap over key
    # tightness; the sums stay far below 2**53, so float64 math is exact
    size_cap = max(key_sizes[i] for i in keys) + 1
    tight_scale = sum(size_cap - key_sizes[i] for i, _ in edges) + 1
    base = tight_scale * (sum(overlap[e] for e in edges) + 1)

    weight = {e: base + tight_scale * overlap[e] + (size_cap - key_sizes[e[0]])
              for e in edges}

    def best(fixed: list[tuple[int, int]], banned_keys: set[int]) -> float:
        used_k = {i for i, _ in fixed} | banned_keys
        used_r = {j for _, j in fixed}
        rows = [i for i in keys if i not in used_k]
        cols = [j for j in resps if j not in used_r]
        return sum(weight[e] for e in fixed + assign(rows, cols, weight))

    target = best([], set())
    fixed: list[tuple[int, int]] = []
    banned: set[int] = set()  # keys the optimum leaves unmatched
    for i in keys:
        taken = {j for _, j in fixed}
        matched = False
        for j in resps:
            if j in taken or (i, j) not in overlap:
                continue
            if best(fixed + [(i, j)], banned) == target:
                fixed.append((i, j))
                matched = True
                break
        if not matched:
            banned.add(i)
    return fixed


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
