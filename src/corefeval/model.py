"""Semantic coreference layer on top of parsed CoNLL-U documents.

Documents become globally ordered node sequences (surface words plus empty
nodes), bracket sequences become mentions (node sets, possibly
discontinuous) and mentions group into entities by their id.  Everything
here is a plain in-memory value: build once, read from any thread.
"""

from __future__ import annotations

import logging

from .conllu import Document, EntityReader

log = logging.getLogger("corefeval")


class Node:
    """One syntactic word or empty node, positioned in the document order.

    Surface words are ordered by sentence and word id; empty node ``n.k``
    follows word ``n`` (and ``n.(k-1)``), ``0.k`` precede word 1.  Multiword
    range lines are not nodes.  `enhanced_parents` is resolved for empty
    nodes only; their `deprel` comes from the first enhanced dependency.
    """

    __slots__ = (
        "index", "sent_index", "id", "is_empty", "form", "lemma", "upos",
        "gender", "deprel", "parent", "enhanced_parents",
    )

    def __init__(self, index: int, sent_index: int, tid: str, is_empty: bool,
                 form: str, lemma: str, upos: str, gender: str | None,
                 deprel: str):
        self.index = index  # document-wide position
        self.sent_index = sent_index
        self.id = tid
        self.is_empty = is_empty
        self.form = form
        self.lemma = lemma
        self.upos = upos
        self.gender = gender
        self.deprel = deprel
        self.parent: Node | None = None
        self.enhanced_parents: list[Node] = []

    def __repr__(self) -> str:
        return f"Node({self.sent_index}:{self.id} {self.form!r})"


class Mention:
    """A set of nodes of one document referring to an entity."""

    __slots__ = ("entity", "nodes", "extra_fields", "provided_head_index",
                 "_head", "_pos_set")

    def __init__(self, entity: "Entity", nodes: list[Node],
                 extra_fields: tuple[str, ...] = ()):
        self.entity = entity
        self.nodes = nodes  # sorted by document position
        self.extra_fields = extra_fields
        self.provided_head_index = _head_index(extra_fields)
        self._head: Node | None = None
        self._pos_set: frozenset[int] | None = None

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
        return all(n.is_empty for n in self.nodes)

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

    def __init__(self, doc: Document, nodes: list[Node], entities: list[Entity]):
        self.doc = doc
        self.nodes = nodes
        self.entities = entities

    def sorted_mentions(self) -> list[Mention]:
        out = [m for e in self.entities for m in e.mentions]
        out.sort(key=lambda m: (m.start, m.end, m.entity.eid))
        return out

    def eids(self) -> set[str]:
        return {e.eid for e in self.entities}


def word_order(doc: Document) -> list[Node]:
    """The total node order of a document (no coreference layer)."""
    nodes, _ = _build_nodes(doc)
    return nodes


def _build_nodes(doc: Document) -> tuple[list[Node], list[tuple[int, str]]]:
    """The nodes, and (position, Entity value) of those that carry one."""
    nodes: list[Node] = []
    values: list[tuple[int, str]] = []
    for sent_index, sentence in enumerate(doc.sentences):
        by_id: dict[str, Node] = {}
        basic_todo: list[tuple[Node, str]] = []
        deps_todo: list[tuple[Node, str]] = []
        for token in sentence.tokens:
            cols = token.raw.split("\t")
            tid = cols[0]
            if "-" in tid:
                continue  # multiword range lines carry no syntactic word
            is_empty = "." in tid
            gender = _feat(cols[5], "Gender") if "Gender=" in cols[5] else None
            node = Node(len(nodes), sent_index, tid, is_empty,
                        cols[1], cols[2], cols[3], gender,
                        cols[7] if not is_empty else "")
            nodes.append(node)
            by_id[tid] = node
            if token.entity:
                values.append((node.index, token.entity))
            if is_empty:
                deps_todo.append((node, cols[8]))
            elif cols[6] not in ("0", "_"):
                basic_todo.append((node, cols[6]))
        for node, head in basic_todo:
            node.parent = by_id.get(head)
            if node.parent is None:
                log.debug("unresolved head %s in sentence %d", head, sent_index)
        for node, spec in deps_todo:
            node.enhanced_parents, node.deprel = _parse_deps(spec, by_id)
    return nodes, values


def _feat(feats: str, name: str) -> str | None:
    prefix = name + "="
    for attr in feats.split("|"):
        if attr.startswith(prefix):
            return attr[len(prefix):]
    return None


def _parse_deps(deps: str, by_id: dict[str, Node]) -> tuple[list[Node], str]:
    if deps in ("_", ""):
        return [], ""
    parents: list[Node] = []
    first_rel = ""
    for item in deps.split("|"):
        head, _, rel = item.partition(":")
        if not first_rel:
            first_rel = rel
        if head != "0":
            parent = by_id.get(head)
            if parent is not None:
                parents.append(parent)
    return parents, first_rel


def build_coref_layer(doc: Document) -> CorefLayer:
    """Reconstruct entities and mentions from the bracket annotation, as
    `conllu.EntityReader` reads it (parts ``[1/n]..[n/n]`` of one entity id
    merge greedily in document order into discontinuous mentions)."""
    nodes, values = _build_nodes(doc)
    reader = EntityReader()
    for position, value in values:
        reader.feed(position, value)
    entities: dict[str, Entity] = {}
    for eid, runs, fields in reader.end():
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
