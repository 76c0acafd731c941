"""Semantic coreference layer on top of parsed CoNLL-U documents.

The parser already gives each document its nodes in document order
(surface words plus empty nodes) and the mentions its `Entity` values read
as, each as sorted node positions (possibly discontinuous); the layer
groups those mentions into entities by their id.  A mention
names its entity by id, so no object refers back to what holds it, and
its head index is read from its fields by `conllu.number`, the one reader
of numbers in the text.  Everything here is a plain in-memory value of
one process: reading it from several threads is unsafe, as reads fill
caches: of `Nodes` only the `parent` and `depth` memos, of a `Mention`
its head and position set.
"""

from __future__ import annotations

from .conllu import Document, Nodes, number


class Mention:
    """The sorted node positions of one document that refer to the entity
    with id `eid`; `doc_nodes` are the document's `Nodes`."""

    __slots__ = ("eid", "positions", "doc_nodes", "extra_fields", "_head", "_pos_set")

    def __init__(self, eid: str, positions: tuple[int, ...], doc_nodes: Nodes,
                 extra_fields: tuple[str, ...] = ()):
        self.eid = eid
        self.positions = positions
        self.doc_nodes = doc_nodes
        self.extra_fields = extra_fields
        self._head: int | None = None  # the head's position (`heads.mention_head`)
        self._pos_set: frozenset[int] | None = None

    @property
    def provided_head_index(self) -> int | None:
        """The annotated 1-based head word index: the second of the CorefUD
        opening fields (type, head index, flags) if it is a number."""
        return number(self.extra_fields[1]) if len(self.extra_fields) >= 2 else None

    @property
    def position_set(self) -> frozenset[int]:
        if self._pos_set is None:
            self._pos_set = frozenset(self.positions)
        return self._pos_set

    @property
    def start(self) -> int:
        return self.positions[0]

    @property
    def end(self) -> int:
        return self.positions[-1]

    @property
    def is_discontinuous(self) -> bool:
        return self.end - self.start + 1 != len(self.positions)

    @property
    def is_zero(self) -> bool:
        return all(map(self.doc_nodes.is_empty, self.positions))

    @property
    def contains_empty(self) -> bool:
        return any(map(self.doc_nodes.is_empty, self.positions))

    @property
    def surface_length(self) -> int:
        return len(self.positions) - sum(map(self.doc_nodes.is_empty, self.positions))

    def set_positions(self, positions: tuple[int, ...]) -> None:
        self.positions = positions
        if positions != (self._head,):  # a reduction to the found head keeps it
            self._head = None
        self._pos_set = None

    def __repr__(self) -> str:
        """The mention's nodes as sentence:id, sentences numbered from 1."""
        nodes = self.doc_nodes
        where = ",".join(f"{nodes.sent_index[i] + 1}:{nodes.ids[i]}" for i in self.positions)
        return f"Mention({self.eid}: {where})"


class Entity:
    """All mentions sharing one entity id, sorted by document position."""

    __slots__ = ("eid", "mentions")

    def __init__(self, eid: str):
        self.eid = eid
        self.mentions: list[Mention] = []

    @property
    def is_singleton(self) -> bool:
        return len(self.mentions) == 1

    def sort_mentions(self) -> None:
        self.mentions.sort(key=lambda m: (m.start, m.end))

    def __repr__(self) -> str:
        return f"Entity({self.eid}, {len(self.mentions)} mentions)"


class CorefLayer:
    """The reconstructed coreference annotation of one document."""

    __slots__ = ("doc", "nodes", "entities")

    def __init__(self, doc: Document, nodes: Nodes, entities: list[Entity]):
        self.doc = doc
        self.nodes = nodes
        self.entities = entities

    def sorted_mentions(self) -> list[Mention]:
        out = [m for e in self.entities for m in e.mentions]
        out.sort(key=lambda m: (m.start, m.end, m.eid))
        return out


def build_coref_layer(doc: Document) -> CorefLayer:
    """Group the mentions the parser read (`conllu.EntityReader`) into
    entities over the document's nodes; each `Mention` shares its position
    tuple with `doc.mentions`."""
    nodes = doc.nodes
    entities: dict[str, Entity] = {}
    for eid, positions, fields in doc.mentions:
        entity = entities.get(eid)
        if entity is None:
            entity = entities[eid] = Entity(eid)
        entity.mentions.append(Mention(eid, positions, nodes, fields))
    for entity in entities.values():
        entity.sort_mentions()
    return CorefLayer(doc, nodes, list(entities.values()))
