"""Deterministic coreference rewrites.

Each transform is a layer operation: it changes a `CorefLayer` in place,
and the scoring pipeline calls it directly.  `apply_ops` runs operations
on the layer of a document copy and writes the result back through
`rewrite_entity_annotations`.  All transforms are idempotent and never
add or remove nodes.
"""

from __future__ import annotations

from typing import Callable

from .conllu import Document, set_mentions
from .errors import SerializationError
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
# Documents

def apply_ops(doc: Document, *ops: Callable[[CorefLayer], None]) -> Document:
    """A copy of `doc` with the mentions of its layer after `ops`, applied
    in order."""
    out = doc.copy()
    layer = build_coref_layer(out)
    for op in ops:
        op(layer)
    rewrite_entity_annotations(out, layer)
    return out


def strip_entities(doc: Document) -> Document:
    """A copy of `doc` without coreference annotation (used to key-strip inputs)."""
    out = doc.copy()
    set_mentions(out, [])
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
    """Make the layer's mentions the document's (`set_mentions`), each as
    the runs of consecutive positions of its nodes, with its opening
    fields verbatim.  A layer the `Entity` format cannot express raises
    `SerializationError` before anything changes."""
    mentions = []
    for mention in (m for e in layer.entities for m in e.mentions):
        if not mention.nodes:
            raise SerializationError(
                f"mention of entity {mention.entity.eid!r} has no nodes")
        indices = [n.index for n in mention.nodes]
        runs, first = [], indices[0]
        for prev, index in zip(indices, indices[1:]):
            if index != prev + 1:
                runs.append((first, prev))
                first = index
        runs.append((first, indices[-1]))
        mentions.append((mention.entity.eid, tuple(runs), mention.extra_fields))
    set_mentions(doc, mentions)
