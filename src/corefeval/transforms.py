"""Deterministic coreference rewrites.

Each transform is a layer operation: it changes a `CorefLayer` in place,
and the scoring pipeline calls it directly.  `apply_ops` runs operations
on the layer of a document copy and writes the result back through
`rewrite_entity_annotations`, which hands the layer's mentions, as
positions, to `conllu.set_mentions`.  All transforms are idempotent and
never add or remove nodes.

Entities unite only in `_Index.merge`, for `merge-same-span` and the
baseline rules: the lowest id takes the others' mentions, in entity order.
"""

from __future__ import annotations

from functools import cached_property
from itertools import count
from typing import Callable

from .conllu import Document, set_mentions
from .heads import head_upos_set, mention_head
from .model import CorefLayer, Entity, Mention, build_coref_layer


def _reduce_mention(mention: Mention, head: int) -> None:
    if mention.positions == (head,):
        return
    mention.set_positions((head,))
    if mention.provided_head_index is not None:  # the one node's index
        mention.extra_fields = (mention.extra_fields[0], "1", *mention.extra_fields[2:])


def reduce_layer_to_heads(layer: CorefLayer) -> None:
    """Shrink every mention to its head node (spans may duplicate)."""
    for entity in layer.entities:
        for mention in entity.mentions:
            _reduce_mention(mention, mention_head(mention))
        entity.sort_mentions()


def conservative_head_reduce_layer(layer: CorefLayer) -> None:
    """Shrink mentions to heads, but when several mentions share a head
    keep the largest of them (ties: the first in `sorted_mentions` order)
    intact."""
    groups: dict[int, list[Mention]] = {}
    for mention in layer.sorted_mentions():
        groups.setdefault(mention_head(mention), []).append(mention)
    for group in groups.values():
        keep: Mention | None = None
        if len(group) > 1:
            keep = max(group, key=lambda m: len(m.positions))
        for mention in group:
            if mention is not keep:
                _reduce_mention(mention, mention_head(mention))
    for entity in layer.entities:
        entity.sort_mentions()


class _Index:
    """A merge's or rule call's view of a layer: its entities by id, the
    mentions on each node, and new ids "x<n>", the smallest n no entity has
    first (ids are not freed within a call, so the next free n only grows).
    `finish` sorts each entity given mentions and drops the emptied ones."""

    def __init__(self, layer: CorefLayer):
        self.layer, self.grown = layer, set()  # the entities given mentions
        self.by_eid = {entity.eid: entity for entity in layer.entities}
        self._ids = (eid for n in count(1) if (eid := f"x{n}") not in self.by_eid)

    @cached_property
    def owners(self) -> dict[int, list[Mention]]:
        """The mentions on each node, found on first use."""
        owners: dict[int, list[Mention]] = {}
        for mention in (m for entity in self.layer.entities for m in entity.mentions):
            for i in mention.positions:
                owners.setdefault(i, []).append(mention)
        return owners

    def new_entity(self) -> Entity:
        entity = Entity(next(self._ids))
        self.layer.entities.append(entity)
        self.by_eid[entity.eid] = entity
        return entity

    def add(self, entity: Entity, i: int) -> None:
        mention = Mention(entity.eid, (i,), self.layer.nodes)
        self.owners.setdefault(i, []).append(mention)  # first, as it may find the others
        entity.mentions.append(mention)
        self.grown.add(entity)

    def merge(self, eids: dict[str, None]) -> Entity:
        """Move the mentions of the entities `eids`, in order, to the one
        with the lowest id."""
        target = self.by_eid[min(eids)]
        self.grown.add(target)
        for entity in map(self.by_eid.get, eids):
            if entity is not target:
                target.mentions.extend(entity.mentions)
                for mention in entity.mentions:
                    mention.eid = target.eid
                entity.mentions = []
        return target

    def finish(self) -> None:
        for entity in self.grown:
            entity.sort_mentions()
        self.layer.entities = [e for e in self.layer.entities if e.mentions]


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
        other = find(by_span.setdefault(mention.position_set, root))
        if other != root:
            parent[max(other, root)] = min(other, root)

    groups: dict[str, dict[str, None]] = {}  # entity ids by root, in entity order
    for entity in layer.entities:
        groups.setdefault(find(entity.eid), {})[entity.eid] = None
    index = _Index(layer)
    for eids in groups.values():
        index.merge(eids)  # every kept entity is a target, so `finish` sorts it
    index.finish()
    for entity in layer.entities:
        unique: dict[frozenset[int], Mention] = {}  # the first of each span
        for mention in entity.mentions:
            unique.setdefault(mention.position_set, mention)
        entity.mentions = list(unique.values())


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

def apply_ops(doc: Document, *ops: Callable[[CorefLayer], None],
              strip: bool = False) -> Document:
    """A copy of `doc` with the mentions of its layer after `ops`, applied
    in order.  With `strip` the layer starts from no mentions, and its
    values are written over the old ones in one `set_mentions`: the same
    lines as `strip_entities` followed by `apply_ops`, each rebuilt once."""
    out = doc.copy()
    layer = CorefLayer(out, out.nodes, []) if strip else build_coref_layer(out)
    for op in ops:
        op(layer)
    rewrite_entity_annotations(out, layer, strip)
    return out


def strip_entities(doc: Document) -> Document:
    """A copy of `doc` without coreference annotation (used to key-strip
    inputs): `apply_ops` with `strip` and no operation."""
    return apply_ops(doc, strip=True)


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

def rewrite_entity_annotations(doc: Document, layer: CorefLayer,
                               strip: bool = False) -> None:
    """Make the layer's mentions the document's (`set_mentions`, with
    `strip`), each with its opening fields verbatim.  A layer the `Entity`
    format cannot express raises `SerializationError` before anything
    changes."""
    set_mentions(doc, [(m.eid, m.positions, m.extra_fields)
                       for e in layer.entities for m in e.mentions], strip)
