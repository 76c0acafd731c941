"""Semantic coreference layer on top of parsed CoNLL-U documents.

The parser already gives each document its nodes in document order
(surface words plus empty nodes) and the mentions its `Entity` values read
as; the layer turns those mentions into node lists (possibly
discontinuous) and groups them into entities by their id.  Everything
here is a plain in-memory value of one process: reading it from several
threads is unsafe, as `Nodes` builds each node on first use.
"""

from __future__ import annotations

from .conllu import Document, Node, Nodes


class Mention:
    """A set of nodes of one document referring to an entity."""

    __slots__ = ("entity", "nodes", "extra_fields", "provided_head_index",
                 "_head", "_pos_set", "_is_zero")

    def __init__(self, entity: "Entity", nodes: list[Node],
                 extra_fields: tuple[str, ...] = ()):
        self.entity = entity
        self.nodes = nodes  # sorted by document position
        self.extra_fields = extra_fields
        self.provided_head_index = _head_index(extra_fields)
        self._head: Node | None = None
        self._pos_set: frozenset[int] | None = None
        self._is_zero: bool | None = None

    @property
    def position_set(self) -> frozenset[int]:
        if self._pos_set is None:
            self._pos_set = frozenset(n.index for n in self.nodes)
        return self._pos_set

    @property
    def start(self) -> int:
        return self.nodes[0].index

    @property
    def end(self) -> int:
        return self.nodes[-1].index

    @property
    def is_discontinuous(self) -> bool:
        return self.end - self.start + 1 != len(self.nodes)

    @property
    def is_zero(self) -> bool:
        if self._is_zero is None:
            self._is_zero = all(n.is_empty for n in self.nodes)
        return self._is_zero

    @property
    def contains_empty(self) -> bool:
        return any(n.is_empty for n in self.nodes)

    @property
    def surface_length(self) -> int:
        return sum(1 for n in self.nodes if not n.is_empty)

    def set_nodes(self, nodes: list[Node]) -> None:
        self.nodes = nodes
        self._head = None
        self._pos_set = None
        self._is_zero = None

    def __repr__(self) -> str:
        ids = ",".join(n.id for n in self.nodes)
        return f"Mention({self.entity.eid}: {ids})"


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
        out.sort(key=lambda m: (m.start, m.end, m.entity.eid))
        return out

    def eids(self) -> set[str]:
        return {e.eid for e in self.entities}


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
            start, end = runs[0]
            mention_nodes = nodes[start:end + 1]
        else:  # parts may overlap
            positions = {i for start, end in runs for i in range(start, end + 1)}
            mention_nodes = [nodes[i] for i in sorted(positions)]
        entity.mentions.append(Mention(entity, mention_nodes, fields))
    for entity in entities.values():
        entity.sort_mentions()
    return CorefLayer(doc, nodes, list(entities.values()))
