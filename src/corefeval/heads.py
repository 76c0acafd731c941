"""Dependency-tree head selection for mentions.

A mention head is either read from the annotation (the numeric head-word
index among the opening fields) or predicted as the "highest" node of the
span: among the treelet roots (nodes whose parent falls outside the
mention) the one with minimal depth, preferring surface words over empty
nodes and then the earliest document position.  The tree is the
document's `Nodes.parent` and `Nodes.depth`, where an empty node hangs
off its first enhanced parent; everything here works on node positions
and reads other columns (UPOS, DEPREL) through `Nodes.column`.
"""

from __future__ import annotations

import logging

from .model import Mention

log = logging.getLogger("corefeval")


def treelet_roots(mention: Mention) -> list[int]:
    """The positions of the mention's nodes whose parent lies outside the
    mention (or is absent)."""
    inside, parent = mention.position_set, mention.doc_nodes.parent
    return [i for i in mention.positions if parent(i) not in inside]


def _choose(mention: Mention) -> int:
    """The head's position: the annotated head word when its index is in
    range, else the highest node."""
    provided = mention.provided_head_index
    if provided is not None:
        if 1 <= provided <= len(mention.positions):
            head = mention.positions[provided - 1]
            if log.isEnabledFor(logging.DEBUG):
                computed = _highest_node(mention)
                if computed != head:
                    ids = mention.doc_nodes.ids
                    log.debug("annotated head %s differs from computed %s in %r",
                              ids[head], ids[computed], mention)
            return head
        log.warning("head index %d out of range in %r; computing instead",
                    provided, mention)
    return _highest_node(mention)


def _highest_node(mention: Mention) -> int:
    candidates = treelet_roots(mention)
    if not candidates:
        log.warning("no treelet root in %r (cyclic dependencies); "
                    "falling back to the first node", mention)
        return mention.start
    nodes = mention.doc_nodes
    depths = [nodes.depth(i) for i in candidates]
    if None in depths:
        log.warning("dependency cycle under %r; falling back to the first "
                    "candidate", mention)
        return candidates[0]
    return min(zip(depths, map(nodes.is_empty, candidates), candidates))[2]


def mention_head(mention: Mention) -> int:
    """The position of the mention's head node, cached on the mention."""
    head = mention._head
    if head is None:
        head = mention._head = _choose(mention)
    return head


def head_upos_set(mention: Mention) -> set[str]:
    """UPOS of the head plus of its surface `flat` children inside the
    mention."""
    nodes, head = mention.doc_nodes, mention_head(mention)
    tags = {nodes.column(head, 3)}
    for i in mention.positions:
        if (nodes.parent(i) == head and not nodes.is_empty(i)
                and nodes.column(i, 7).startswith("flat")):
            tags.add(nodes.column(i, 3))
    return tags
