"""Independent brute-force reference implementations.

Everything here is written from the definitions, favouring exhaustive
enumeration over cleverness, and shares no code with the package.
Clusterings are lists of frozensets of mention ids.
"""

from __future__ import annotations

from itertools import combinations, permutations


# ---------------------------------------------------------------------------
# Entity metrics over relabeled clusterings

def prf_from(rec_num, rec_den, prec_num, prec_den):
    r = rec_num / rec_den if rec_den else 0.0
    p = prec_num / prec_den if prec_den else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return r, p, f


def naive_muc(key, resp):
    def half(a_side, b_side):
        num = den = 0
        all_b = set().union(*b_side) if b_side else set()
        for c in a_side:
            if len(c) < 2:
                continue
            cells = [c & b for b in b_side if c & b]
            cells += [{m} for m in c - all_b]
            num += len(c) - len(cells)
            den += len(c) - 1
        return num, den

    rn, rd = half(key, resp)
    pn, pd = half(resp, key)
    return prf_from(rn, rd, pn, pd)


def naive_bcub(key, resp):
    def half(a_side, b_side):
        num = 0.0
        den = 0
        for c in a_side:
            den += len(c)
            for m in c:
                for b in b_side:
                    if m in b:
                        num += len(c & b) / len(c)
                        break
        return num, den

    rn, rd = half(key, resp)
    pn, pd = half(resp, key)
    return prf_from(rn, rd, pn, pd)


def perm_ceafe(key, resp):
    def phi4(a, b):
        return 2.0 * len(a & b) / (len(a) + len(b))

    best = 0.0
    if key and resp:
        small, large = (key, resp) if len(key) <= len(resp) else (resp, key)
        for mapping in permutations(range(len(large)), len(small)):
            total = sum(phi4(small[i], large[j]) for i, j in enumerate(mapping))
            best = max(best, total)
    return prf_from(best, len(key), best, len(resp))


def naive_blanc(key, resp):
    def links(side):
        mentions = sorted(set().union(*side)) if side else []
        coref = set()
        for c in side:
            for a, b in combinations(sorted(c), 2):
                coref.add((a, b))
        non = set()
        for a, b in combinations(mentions, 2):
            if (a, b) not in coref:
                non.add((a, b))
        return coref, non

    ck, nk = links(key)
    cr, nr = links(resp)
    parts = []
    if ck or cr:
        parts.append(prf_from(len(ck & cr), len(ck), len(ck & cr), len(cr)))
    if nk or nr:
        parts.append(prf_from(len(nk & nr), len(nk), len(nk & nr), len(nr)))
    if not parts:
        return 0.0, 0.0, 0.0
    return tuple(sum(p[i] for p in parts) / len(parts) for i in range(3))


def naive_lea(key, resp):
    def links(c):
        return len(c) * (len(c) - 1) // 2

    def half(a_side, b_side):
        num = 0.0
        den = 0
        for c in a_side:
            den += len(c)
            if len(c) == 1:
                resolved = any(c == b for b in b_side)
                num += len(c) * (1.0 if resolved else 0.0)
            else:
                common = sum(links(c & b) for b in b_side)
                num += len(c) * common / links(c)
        return num, den

    rn, rd = half(key, resp)
    pn, pd = half(resp, key)
    return prf_from(rn, rd, pn, pd)


def perm_mor(key_sets, resp_sets):
    best = 0
    if key_sets and resp_sets:
        small, large = ((key_sets, resp_sets) if len(key_sets) <= len(resp_sets)
                        else (resp_sets, key_sets))
        for mapping in permutations(range(len(large)), len(small)):
            best = max(best,
                       sum(len(small[i] & large[j]) for i, j in enumerate(mapping)))
    return prf_from(best, sum(len(s) for s in key_sets),
                    best, sum(len(s) for s in resp_sets))


def exhaustive_mor(key_sets, resp_sets):
    """Exhaustive search over one-to-one alignments via enumeration of
    response subsets (memoized, exact); tractable to ~15 mentions a side."""
    n_resp = len(resp_sets)
    memo = {}

    def best(i, used_mask):
        if i == len(key_sets):
            return 0
        state = (i, used_mask)
        if state in memo:
            return memo[state]
        value = best(i + 1, used_mask)  # leave key i unmatched
        for j in range(n_resp):
            bit = 1 << j
            if used_mask & bit:
                continue
            ov = len(key_sets[i] & resp_sets[j])
            if ov:
                value = max(value, ov + best(i + 1, used_mask | bit))
        memo[state] = value
        return value

    total = best(0, 0)
    return prf_from(total, sum(len(s) for s in key_sets),
                    total, sum(len(s) for s in resp_sets))


# ---------------------------------------------------------------------------
# Mention alignment

def exhaustive_alignment(edges, overlaps, key_sizes):
    """All one-to-one matchings over the given edges; pick maximum size,
    then maximum overlap, then minimum total matched key size, then the
    lexicographically smallest sorted pair list.  `edges` is a list of
    (key index, resp index)."""
    best = []
    best_rank = (-1, -1, 0)

    def extend(matching, used_k, used_r, rest):
        nonlocal best, best_rank
        if not rest:
            rank = (len(matching), sum(overlaps[e] for e in matching),
                    -sum(key_sizes[i] for i, _ in matching))
            pairs = sorted(matching)
            if rank > best_rank or (rank == best_rank and pairs < sorted(best)):
                best, best_rank = list(matching), rank
            return
        edge = rest[0]
        extend(matching, used_k, used_r, rest[1:])
        i, j = edge
        if i not in used_k and j not in used_r:
            extend(matching + [edge], used_k | {i}, used_r | {j}, rest[1:])

    extend([], set(), set(), list(edges))
    return sorted(best)


def naive_partial_match(resp_positions, key_positions, key_head):
    return resp_positions <= key_positions and key_head in resp_positions


# ---------------------------------------------------------------------------
# Zero anaphora

def naive_zero_counts(key_entities, resp_entities):
    """(tp, wl, fp, fn) from the definition.

    Entities are ordered lists of (positions frozenset, is_zero); mention
    order inside an entity is document order.  Counterparts pair mentions
    with equal node sets one-to-one in document order.
    """
    def flat(entities):
        out = []
        for ei, entity in enumerate(entities):
            for mi, (positions, is_zero) in enumerate(entity):
                out.append((positions, is_zero, ei, mi))
        out.sort(key=lambda r: (min(r[0]), max(r[0]), r[2], r[3]))
        return out

    key_flat = flat(key_entities)
    resp_flat = flat(resp_entities)
    key_twin = {}
    resp_twin = {}
    taken = set()
    for k_at, (kpos, _kz, kei, kmi) in enumerate(key_flat):
        for r_at, (rpos, _rz, rei, rmi) in enumerate(resp_flat):
            if r_at in taken or rpos != kpos:
                continue
            key_twin[(kei, kmi)] = (rei, rmi)
            resp_twin[(rei, rmi)] = (kei, kmi)
            taken.add(r_at)
            break

    tp = wl = fp = fn = 0
    for ei, entity in enumerate(key_entities):
        for mi, (positions, is_zero) in enumerate(entity):
            if mi == 0 or not is_zero:
                continue
            twin = key_twin.get((ei, mi))
            if twin is None or twin[1] == 0:
                fn += 1
                continue
            rei, rmi = twin
            found = False
            for kpos, _ in entity[:mi]:
                for rpos, _ in resp_entities[rei][:rmi]:
                    if kpos & rpos:
                        found = True
            if found:
                tp += 1
            else:
                wl += 1
    for ei, entity in enumerate(resp_entities):
        for mi, (positions, is_zero) in enumerate(entity):
            if mi == 0 or not is_zero:
                continue
            twin = resp_twin.get((ei, mi))
            if twin is None or twin[1] == 0:
                fp += 1
    return tp, wl, fp, fn


# ---------------------------------------------------------------------------
# Misc oracles

def tree_parents(lines):
    """The parent position of each node of a document's `lines`, in
    document order, or None: a surface word's HEAD, an empty node's first
    DEPS head that names a node of its sentence."""
    parents, sentence = [], []  # the columns of the sentence's nodes
    for line in [*lines, ""]:
        if line and not line.startswith("#") and "-" not in line.split("\t")[0]:
            sentence.append(line.split("\t"))
        elif not line and sentence:
            position = {cols[0]: len(parents) + k for k, cols in enumerate(sentence)}
            for cols in sentence:
                if "." in cols[0]:
                    heads = [item.split(":")[0] for item in cols[8].split("|")]
                    parents.append(next((position[h] for h in heads if h in position), None))
                else:
                    parents.append(position.get(cols[6]))
            sentence = []
    return parents


def connected_in_tree(positions, parent_of):
    """Is the node set a connected subgraph of the dependency forest?"""
    inside = set(positions)
    roots = [p for p in positions if parent_of(p) not in inside]
    return len(roots) <= 1


def transitive_span_groups(entity_spans):
    """Union-find oracle for same-span entity merging: entity ids grouped
    transitively by sharing a mention span.  `entity_spans` maps eid to a
    list of position frozensets."""
    eids = sorted(entity_spans)
    parent = {e: e for e in eids}

    def find(e):
        while parent[e] != e:
            e = parent[e]
        return e

    by_span = {}
    for eid in eids:
        for span in entity_spans[eid]:
            other = by_span.get(span)
            if other is None:
                by_span[span] = eid
            else:
                ra, rb = find(other), find(eid)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for eid in eids:
        groups.setdefault(find(eid), set()).add(eid)
    return sorted(frozenset(g) for g in groups.values())
