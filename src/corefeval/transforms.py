"""Deterministic coreference rewrites.

Every transform exists in two flavours: a layer operation mutating a
`CorefLayer` in place (used directly by the scoring pipeline) and a
document operation returning a rewritten copy with regenerated `Entity`
annotation (used by the CLI).  All transforms are idempotent and never
add or remove nodes.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from .conllu import Document, EntityReader, ReadMention, entity_value, with_entity
from .errors import ConlluParseError, SerializationError
from .heads import head_upos_set, mention_head
from .model import CorefLayer, Entity, Mention, Node, build_coref_layer


def _reduce_mention(mention: Mention, head: Node) -> None:
    if len(mention.nodes) == 1 and mention.nodes[0] is head:
        return
    mention.set_nodes([head])
    mention._head = head
    if mention.provided_head_index is not None:
        fields = list(mention.extra_fields)
        fields[1] = "1"
        mention.extra_fields = tuple(fields)
        mention.provided_head_index = 1


def reduce_layer_to_heads(layer: CorefLayer) -> None:
    """Shrink every mention to its head node (spans may duplicate)."""
    for entity in layer.entities:
        for mention in entity.mentions:
            _reduce_mention(mention, mention_head(mention))
        entity.sort_mentions()


def conservative_head_reduce_layer(layer: CorefLayer) -> None:
    """Shrink mentions to heads, but when several mentions share a head
    keep the largest of them (ties: earliest start) intact."""
    groups: dict[int, list[Mention]] = {}
    for mention in layer.sorted_mentions():
        groups.setdefault(mention_head(mention).index, []).append(mention)
    for group in groups.values():
        keep: Mention | None = None
        if len(group) > 1:
            keep = min(group, key=lambda m: (-len(m.nodes), m.start, m.end, m.entity.eid))
        for mention in group:
            if mention is not keep:
                _reduce_mention(mention, mention_head(mention))
    for entity in layer.entities:
        entity.sort_mentions()


def merge_same_span_layer(layer: CorefLayer) -> None:
    """Union entities that share a mention span; deduplicate mentions."""
    parent: dict[int, Entity] = {}

    def find(e: Entity) -> Entity:
        while parent.get(id(e), e) is not e:
            e = parent[id(e)]
        return e

    by_span: dict[frozenset[int], Entity] = {}
    for mention in layer.sorted_mentions():
        root = find(mention.entity)
        other = by_span.get(mention.position_set)
        if other is None:
            by_span[mention.position_set] = root
        else:
            other = find(other)
            if other is not root:
                keep, drop = sorted((other, root), key=lambda e: e.eid)
                parent[id(drop)] = keep

    merged: list[Entity] = []
    for entity in layer.entities:
        root = find(entity)
        if root is entity:
            merged.append(entity)
        else:
            root.mentions.extend(entity.mentions)
            for mention in entity.mentions:
                mention.entity = root
    for entity in merged:
        entity.sort_mentions()
        seen: set[frozenset[int]] = set()
        unique = []
        for mention in entity.mentions:
            if mention.position_set not in seen:
                seen.add(mention.position_set)
                unique.append(mention)
        entity.mentions = unique
    layer.entities = merged


def remove_singletons_layer(layer: CorefLayer) -> None:
    layer.entities = [e for e in layer.entities if len(e.mentions) > 1]


def filter_by_head_upos_layer(layer: CorefLayer, tag: str) -> None:
    """Keep only entities with at least one mention whose head UPOS set
    (head plus its flat children inside the mention) contains `tag`."""
    layer.entities = [
        e for e in layer.entities
        if any(tag in head_upos_set(m) for m in e.mentions)
    ]


# ---------------------------------------------------------------------------
# Document-level wrappers

def _apply(doc: Document, *ops: Callable[[CorefLayer], None]) -> Document:
    out = doc.copy()
    layer = build_coref_layer(out)
    for op in ops:
        op(layer)
    rewrite_entity_annotations(out, layer)
    return out


def reduce_to_head(doc: Document) -> Document:
    return _apply(doc, reduce_layer_to_heads)


def merge_same_span_entities(doc: Document) -> Document:
    return _apply(doc, merge_same_span_layer)


def conservative_head_reduce(doc: Document) -> Document:
    return _apply(doc, conservative_head_reduce_layer)


def remove_singletons(doc: Document) -> Document:
    return _apply(doc, remove_singletons_layer)


def strip_entities(doc: Document) -> Document:
    """Remove all coreference annotation (used to key-strip inputs)."""
    out = doc.copy()
    _set_entity_values(out, {})
    out.mentions = []
    return out


# Layer transforms by CLI name, applied in the order given on the command
# line.  The baselines module registers two more.
LAYER_TRANSFORMS: dict[str, Callable[[CorefLayer], None]] = {
    "reduce-head": reduce_layer_to_heads,
    "merge-same-span": merge_same_span_layer,
    "conservative-head-reduce": conservative_head_reduce_layer,
    "remove-singletons": remove_singletons_layer,
}


# ---------------------------------------------------------------------------
# Entity annotation regeneration

def rewrite_entity_annotations(doc: Document, layer: CorefLayer) -> None:
    """Recompute the `Entity` value of every node from the layer.

    Mentions are emitted in (start, -end, eid) order; a discontinuous
    mention becomes ``[i/n]`` parts over its contiguous runs.  Opening
    fields are kept verbatim (on the first part only).  The values must
    read back as the layer's mentions, else `SerializationError` is
    raised before any line changes; the mentions they read as become
    `doc.mentions`.
    """
    closes: dict[int, list[str]] = {}
    opens: dict[int, list[str]] = {}
    mentions = [m for e in layer.entities for m in e.mentions]
    for mention in mentions:
        if not mention.nodes:
            raise SerializationError(
                f"mention of entity {mention.entity.eid!r} has no nodes")
    mentions.sort(key=lambda m: (m.start, -m.end, m.entity.eid))

    written: list[tuple] = []
    for mention in mentions:
        runs = _contiguous_runs(mention.nodes)
        fields = "".join("-" + f for f in mention.extra_fields)
        for part_no, run in enumerate(runs, start=1):
            label = mention.entity.eid
            if len(runs) > 1:
                label += f"[{part_no}/{len(runs)}]"
            body = label + (fields if part_no == 1 else "")
            if len(run) == 1:
                opens.setdefault(run[0].index, []).append(f"({body})")
            else:
                opens.setdefault(run[0].index, []).append(f"({body}")
                closes.setdefault(run[-1].index, []).insert(0, f"{label})")
        written.append((mention.entity.eid,
                        tuple((run[0].index, run[-1].index) for run in runs),
                        mention.extra_fields))

    values = {index: "".join(closes.get(index, ())) + "".join(opens.get(index, ()))
              for index in sorted(opens.keys() | closes.keys())}
    read = _check_read_back(values, written, doc.doc_id)

    _set_entity_values(doc, values)
    doc.mentions = read


def _set_entity_values(doc: Document, values: dict[int, str]) -> None:
    """Give the node at each position its `Entity` value in `values` (no
    value elsewhere), rebuilding only the lines whose value changes.  The
    nodes that carry a value now are the ends of the runs of `doc.mentions`;
    `doc.lines` is replaced, never changed in place, as copies share it."""
    positions = {i for _eid, runs, _fields in doc.mentions for run in runs for i in run}
    lines = list(doc.lines)
    for position in positions | values.keys():
        at = doc.nodes[position].line
        new = values.get(position)
        if entity_value(lines[at]) != new:
            lines[at] = with_entity(lines[at], new)
    doc.lines = lines


def _contiguous_runs(nodes: list[Node]) -> list[list[Node]]:
    runs: list[list[Node]] = [[nodes[0]]]
    for node in nodes[1:]:
        if node.index == runs[-1][-1].index + 1:
            runs[-1].append(node)
        else:
            runs.append([node])
    return runs


def _check_read_back(values: dict[int, str], written: list[tuple],
                     doc_id: str | None) -> list[ReadMention]:
    """The bracket format cannot express every layer: two same-id spans
    open at once, or parts that interleave with another mention's parts
    of the same id.  Reject values that would not read back as the
    (eid, runs, fields) of the mentions they were written from; return
    the mentions they read as."""
    reader = EntityReader()
    try:
        for position, value in values.items():
            reader.feed(position, value)
        mentions = reader.end()
        read = Counter(mentions)
    except ConlluParseError as exc:
        raise SerializationError(f"document {doc_id}: the mentions cannot be"
                                 f" written in the bracket format: {exc}") from None
    wanted = Counter(written)
    if read != wanted:
        eids = sorted({m[0] for m in (wanted - read) + (read - wanted)})
        raise SerializationError(
            f"document {doc_id}: the mentions of entity {', '.join(map(repr, eids))}"
            " cannot be written in the bracket format: they would read back"
            " differently")
    return mentions
