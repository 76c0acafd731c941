"""Semantic coreference layer on top of parsed CoNLL-U documents.

The parser already gives each document its nodes in document order
(surface words plus empty nodes) and the mentions its `Entity` values read
as; the layer turns those mentions into sorted node positions (possibly
discontinuous) and groups them into entities by their id.  A mention
names its entity by id, so no object refers back to what holds it.
Everything here is a plain in-memory value of one process: reading it
from several threads is unsafe, as `Nodes` reads its columns on first use.
"""

from __future__ import annotations

from .conllu import Document, Node, Nodes


class Mention:
    """The sorted node positions of one document that refer to the entity
    with id `eid`; `doc_nodes` are the document's `Nodes`."""

    __slots__ = ("eid", "positions", "doc_nodes", "extra_fields",
                 "provided_head_index", "_head", "_pos_set")

    def __init__(self, eid: str, positions: tuple[int, ...], doc_nodes: Nodes,
                 extra_fields: tuple[str, ...] = ()):
        self.eid = eid
        self.positions = positions
        self.doc_nodes = doc_nodes
        self.extra_fields = extra_fields
        self.provided_head_index = _head_index(extra_fields)
        self._head: int | None = None  # the head's position (`heads.head_position`)
        self._pos_set: frozenset[int] | None = None

    @property
    def nodes(self) -> list[Node]:
        """The mention's nodes, built on demand."""
        return [self.doc_nodes[i] for i in self.positions]

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
        ids = self.doc_nodes.ids
        return all("." in ids[i] for i in self.positions)

    @property
    def contains_empty(self) -> bool:
        ids = self.doc_nodes.ids
        return any("." in ids[i] for i in self.positions)

    @property
    def surface_length(self) -> int:
        ids = self.doc_nodes.ids
        return sum("." not in ids[i] for i in self.positions)

    def set_positions(self, positions: tuple[int, ...]) -> None:
        self.positions = positions
        self._head = None
        self._pos_set = None

    def __repr__(self) -> str:
        ids = self.doc_nodes.ids
        return f"Mention({self.eid}: {','.join(ids[i] for i in self.positions)})"


def _head_index(fields: tuple[str, ...]) -> int | None:
    # CorefUD opening fields: entity type, head word index, other flags.
    if len(fields) >= 2 and fields[1].isascii() and fields[1].isdigit():
        return int(fields[1])
    return None


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
    """Group the mentions the parser read from the bracket annotation
    (`conllu.EntityReader`: parts ``[1/n]..[n/n]`` of one entity id merge
    greedily in document order into discontinuous mentions) into entities
    over the document's nodes."""
    nodes = doc.nodes
    entities: dict[str, Entity] = {}
    for eid, runs, fields in doc.mentions:
        entity = entities.get(eid)
        if entity is None:
            entity = entities[eid] = Entity(eid)
        if len(runs) == 1:
            positions = tuple(range(runs[0][0], runs[0][1] + 1))
        else:  # parts may overlap
            positions = tuple(sorted({i for start, end in runs for i in range(start, end + 1)}))
        entity.mentions.append(Mention(eid, positions, nodes, fields))
    for entity in entities.values():
        entity.sort_mentions()
    return CorefLayer(doc, nodes, list(entities.values()))
