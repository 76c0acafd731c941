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
from .heads import head_position, head_upos_set
from .model import CorefLayer, Mention, build_coref_layer


def _reduce_mention(mention: Mention, head: int) -> None:
    if mention.positions == (head,):
        return
    mention.set_positions((head,))
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
            _reduce_mention(mention, head_position(mention))
        entity.sort_mentions()


def conservative_head_reduce_layer(layer: CorefLayer) -> None:
    """Shrink mentions to heads, but when several mentions share a head
    keep the largest of them (ties: earliest start) intact."""
    groups: dict[int, list[Mention]] = {}
    for mention in layer.sorted_mentions():
        groups.setdefault(head_position(mention), []).append(mention)
    for group in groups.values():
        keep: Mention | None = None
        if len(group) > 1:
            keep = min(group, key=lambda m: (-len(m.positions), m.start, m.end, m.eid))
        for mention in group:
            if mention is not keep:
                _reduce_mention(mention, head_position(mention))
    for entity in layer.entities:
        entity.sort_mentions()


def merge_same_span_layer(layer: CorefLayer) -> None:
    """Union entities that share a mention span; deduplicate mentions."""
    parent: dict[str, str] = {}  # union-find over entity ids

    def find(eid: str) -> str:
        while parent.get(eid, eid) != eid:
            eid = parent[eid]
        return eid

    by_span: dict[frozenset[int], str] = {}
    for mention in layer.sorted_mentions():
        root = find(mention.eid)
        other = by_span.get(mention.position_set)
        if other is None:
            by_span[mention.position_set] = root
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
    the runs of its consecutive positions, with its opening fields
    verbatim.  A layer the `Entity` format cannot express raises
    `SerializationError` before anything changes."""
    mentions = []
    for mention in (m for e in layer.entities for m in e.mentions):
        positions = mention.positions
        if not positions:
            raise SerializationError(f"mention of entity {mention.eid!r} has no nodes")
        runs, first = [], positions[0]
        for prev, i in zip(positions, positions[1:]):
            if i != prev + 1:
                runs.append((first, prev))
                first = i
        runs.append((first, positions[-1]))
        mentions.append((mention.eid, tuple(runs), mention.extra_fields))
    set_mentions(doc, mentions)
