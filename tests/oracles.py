"""Independent brute-force reference implementations.

Everything here is written from the definitions, favouring exhaustive
enumeration over cleverness, and shares no code with the package.
Clusterings are lists of frozensets of mention ids.
"""

from __future__ import annotations

import re
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
# Entity brackets

# one bracket of a well-formed `Entity` value: an opening bracket (its id,
# optional part "[i/n]" and "-"-separated fields), closed on the spot by ")"
# or followed by the next opening bracket or the end; or a closing bracket
_BRACKET = re.compile(r"""
    \( (?P<open>[^-()\[\]]+) (?:\[(?P<oi>[0-9]+)/(?P<on>[0-9]+)\])?
        (?P<fields>(?:-[^-()\]]*)*) (?: (?P<single>\)) | (?=\(|$) )
  | (?P<close>[^()\[\]]+) (?:\[(?P<ci>[0-9]+)/(?P<cn>[0-9]+)\])? \)
""", re.VERBOSE)


def entity_brackets(value):
    """The brackets of a well-formed `Entity` value as (kind, eid, part,
    fields), kind "open", "single" or "close", part (i, n) or None; a
    ValueError for a value the pattern does not cover."""
    brackets, at = [], 0
    while at < len(value):
        m = _BRACKET.match(value, at)
        if m is None:
            raise ValueError(f"not a bracket at offset {at} of {value!r}")
        if m["close"] is not None:
            part = (int(m["ci"]), int(m["cn"])) if m["ci"] else None
            brackets.append(("close", m["close"], part, ()))
        else:
            part = (int(m["oi"]), int(m["on"])) if m["oi"] else None
            fields = tuple(m["fields"].split("-")[1:])
            brackets.append(("single" if m["single"] else "open", m["open"], part, fields))
        at = m.end()
    if not brackets:
        raise ValueError("empty Entity value")
    return brackets


def _number(text):
    """A number as the format writes it: ASCII digits without a leading
    zero, no more than `int` reads; else None."""
    if re.fullmatch(r"0|[1-9][0-9]*", text):
        try:
            return int(text)
        except ValueError:  # over the digit limit
            pass
    return None


def entity_scan(value, error=ValueError):
    """The reference reading of any `Entity` value, one character at a
    time: yields its brackets as `entity_brackets` does, each when it is
    read, and raises `error` with the reader's message at a fault that ends
    the reading, so that a pairing fault of an earlier bracket comes first."""

    def part_at(i):  # the part "[i/n]" at offset i, if any, and the offset after it
        if i >= len(value) or value[i] != "[":
            return None, i
        end = value.find("]", i)
        body = value[i + 1:end] if end != -1 else ""
        part = tuple(map(_number, body.partition("/")[::2]))
        if None in part:
            raise error(f"malformed part index in Entity value {value!r}")
        if not (1 <= part[0] <= part[1]) or part[1] < 2:
            raise error(f"part index out of range in Entity value {value!r}")
        return part, end + 1

    if not value:
        raise error("empty Entity value")
    i, n = 0, len(value)
    while i < n:
        if value[i] == "(":
            i = start = i + 1
            while i < n and value[i] not in "-([)]":
                i += 1
            eid = value[start:i]
            if not eid:
                raise error(f"missing entity id in Entity value {value!r}")
            part, i = part_at(i)
            fields = []
            while i < n and value[i] == "-":
                i = start = i + 1
                while i < n and value[i] not in "-()]":
                    i += 1
                fields.append(value[start:i])
            if i < n and value[i] == ")":
                yield "single", eid, part, tuple(fields)
                i += 1
            elif i == n or value[i] == "(":
                yield "open", eid, part, tuple(fields)
            else:
                raise error(f"cannot parse Entity value {value!r} at offset {i}")
        else:
            start = i
            while i < n and value[i] not in "[()]":
                i += 1
            eid = value[start:i]
            part, i = part_at(i)
            if not eid or i >= n or value[i] != ")":
                raise error(f"cannot parse Entity value {value!r} at offset {i}")
            yield "close", eid, part, ()
            i += 1


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


def merge_same_span(layer):
    """Same-span merging on a `RuleLayer`, with its own union-find and its
    own loop that moves mentions: entities that share a span, transitively,
    become the one with the lowest id, which takes its own mentions and
    then those of the others in entity order, sorted by (start, end); each
    kept entity then keeps the first mention of each span."""
    parent = {}

    def find(eid):
        while parent.get(eid, eid) != eid:
            eid = parent[eid]
        return eid

    by_span = {}
    for mention in sorted((m for e in layer.entities for m in e.mentions),
                          key=lambda m: (m.positions[0], m.positions[-1], m.eid)):
        span = frozenset(mention.positions)
        root = find(mention.eid)
        other = by_span.get(span)
        if other is None:
            by_span[span] = root
        else:
            other = find(other)
            if other != root:
                keep, drop = sorted((other, root))
                parent[drop] = keep

    by_eid = {entity.eid: entity for entity in layer.entities}
    merged = []
    for entity in layer.entities:
        root = find(entity.eid)
        if root == entity.eid:
            merged.append(entity)
        else:
            by_eid[root].mentions.extend(entity.mentions)
            for mention in entity.mentions:
                mention.eid = root
    for entity in merged:
        entity.sort_mentions()
        seen = set()
        unique = []
        for mention in entity.mentions:
            span = frozenset(mention.positions)
            if span not in seen:
                seen.add(span)
                unique.append(mention)
        entity.mentions = unique
    layer.entities = merged


# ---------------------------------------------------------------------------
# Baseline rules, step by step: each new id is found by scanning from "x1",
# and the entity list is rebuilt after every merge.  A layer here is its
# entities and the surface words of its document, nothing else.

def surface_words(lines):
    """(position, UPOS, lemma, `Gender` or None) of each surface word of a
    document's `lines`; positions count surface words and empty nodes."""
    words, position = [], 0
    for line in lines:
        cols = line.split("\t")
        if line.startswith("#") or len(cols) != 10 or "-" in cols[0]:
            continue
        if "." not in cols[0]:
            gender = next((f[len("Gender="):] for f in cols[5].split("|")
                           if f.startswith("Gender=")), None)
            words.append((position, cols[3], cols[2], gender))
        position += 1
    return words


class RuleMention:
    def __init__(self, eid, positions, extra_fields=()):
        self.eid, self.positions, self.extra_fields = eid, positions, extra_fields


class RuleEntity:
    def __init__(self, eid, mentions=()):
        self.eid, self.mentions = eid, list(mentions)

    def sort_mentions(self):
        self.mentions.sort(key=lambda m: (m.positions[0], m.positions[-1]))


class RuleLayer:
    """`entities` from (eid, [(positions, extra_fields), ...]) pairs, and
    `words`, the `surface_words` of the document."""

    def __init__(self, entities, words):
        self.entities = [RuleEntity(eid, [RuleMention(eid, ps, fields) for ps, fields in ms])
                         for eid, ms in entities]
        self.words = words

    def value(self):
        """Each entity's id and its mentions' (eid, positions, extra_fields)."""
        return [(e.eid, [(m.eid, m.positions, m.extra_fields) for m in e.mentions])
                for e in self.entities]


def _node_owners(layer):
    owners = {}
    for entity in layer.entities:
        for mention in entity.mentions:
            for i in mention.positions:
                owners.setdefault(i, []).append(mention)
    return owners


def _new_entity(layer, by_eid):
    n = 1
    while f"x{n}" in by_eid:
        n += 1
    entity = by_eid[f"x{n}"] = RuleEntity(f"x{n}")
    layer.entities.append(entity)
    return entity


def _merge_entities(layer, involved):
    target = min(involved, key=lambda e: e.eid)
    for entity in involved:
        if entity is target:
            continue
        target.mentions.extend(entity.mentions)
        for mention in entity.mentions:
            mention.eid = target.eid
        entity.mentions = []
    layer.entities = [e for e in layer.entities if e.mentions]
    return target


def propn_lemma_merge(layer):
    """Every PROPN lemma of several words becomes one entity: the entities
    on its words merge into the lowest id, or a new entity starts, and each
    word outside a mention gets one."""
    groups = {}
    for i, upos, lemma, _gender in layer.words:
        if upos == "PROPN":
            groups.setdefault(lemma, []).append(i)
    owners = _node_owners(layer)
    by_eid = {entity.eid: entity for entity in layer.entities}
    for _lemma, positions in sorted(groups.items(), key=lambda kv: kv[1][0]):
        if len(positions) < 2:
            continue
        involved = {mention.eid: by_eid[mention.eid]
                    for i in positions for mention in owners.get(i, ())}
        if involved:
            target = _merge_entities(layer, list(involved.values()))
        else:
            target = _new_entity(layer, by_eid)
        for i in positions:
            if not owners.get(i):
                mention = RuleMention(target.eid, (i,))
                target.mentions.append(mention)
                owners.setdefault(i, []).append(mention)
        target.sort_mentions()


def pronoun_gender_link(layer):
    """Each PRON word with a gender and outside every mention joins the
    lowest-id entity on the nearest earlier NOUN word of its gender, or a
    new entity with that noun."""
    owners = _node_owners(layer)
    by_eid = {entity.eid: entity for entity in layer.entities}
    for i, upos, _lemma, gender in layer.words:
        if upos != "PRON" or not gender or owners.get(i):
            continue
        nouns = [n for n, u, _l, g in layer.words if u == "NOUN" and g == gender and n < i]
        if not nouns:
            continue
        noun = nouns[-1]
        if owners.get(noun):
            target = by_eid[min(m.eid for m in owners[noun])]
        else:
            target = _new_entity(layer, by_eid)
            noun_mention = RuleMention(target.eid, (noun,))
            target.mentions.append(noun_mention)
            owners.setdefault(noun, []).append(noun_mention)
        mention = RuleMention(target.eid, (i,))
        target.mentions.append(mention)
        owners.setdefault(i, []).append(mention)
        target.sort_mentions()
