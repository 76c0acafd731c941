"""Dependency-tree head selection for mentions.

A mention head is either read from the annotation (the numeric head-word
index among the opening fields) or predicted as the "highest" node of the
span: among the treelet roots (nodes whose parent falls outside the
mention) the one with minimal depth, preferring surface words over empty
nodes and then the earliest document position.  The tree is the
document's `Nodes.parent` and `Nodes.depth`, where an empty node hangs
off its first enhanced parent; everything here works on node positions
and builds only the `Node`s it returns.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .model import Mention, Node

log = logging.getLogger("corefeval")

PROVIDED = "provided"
HIGHEST_NODE = "highest_node"


@dataclass(frozen=True)
class HeadChoice:
    head: Node
    candidates: tuple[int, ...]  # the treelet roots' positions
    rule_used: str


def treelet_roots(mention: Mention) -> list[int]:
    """The positions of the mention's nodes whose parent lies outside the
    mention (or is absent)."""
    inside, parent = mention.position_set, mention.doc_nodes.parent
    return [i for i in mention.positions if parent(i) not in inside]


def _choose(mention: Mention) -> tuple[int, tuple[int, ...], str]:
    """`find_head`'s choice, with the head as a position."""
    provided = mention.provided_head_index
    if provided is not None:
        if 1 <= provided <= len(mention.positions):
            head = mention.positions[provided - 1]
            if log.isEnabledFor(logging.DEBUG):
                computed = _highest_node(mention)[0]
                if computed != head:
                    ids = mention.doc_nodes.ids
                    log.debug("annotated head %s differs from computed %s in %r",
                              ids[head], ids[computed], mention)
            return head, (), PROVIDED
        log.warning("head index %d out of range in %r; computing instead",
                    provided, mention)
    return _highest_node(mention)


def find_head(mention: Mention) -> HeadChoice:
    head, candidates, rule_used = _choose(mention)
    return HeadChoice(mention.doc_nodes[head], candidates, rule_used)


def _highest_node(mention: Mention) -> tuple[int, tuple[int, ...], str]:
    candidates = treelet_roots(mention)
    if not candidates:
        log.warning("no treelet root in %r (cyclic dependencies); "
                    "falling back to the first node", mention)
        return mention.start, (mention.start,), HIGHEST_NODE
    nodes = mention.doc_nodes
    depths = [nodes.depth(i) for i in candidates]
    if None in depths:
        log.warning("dependency cycle under %r; falling back to the first "
                    "candidate", mention)
        head = candidates[0]
    else:
        ids = nodes.ids
        head = min(zip(depths, ("." in ids[i] for i in candidates), candidates))[2]
    return head, tuple(candidates), HIGHEST_NODE


def head_position(mention: Mention) -> int:
    """The position of the mention's head node, cached on the mention."""
    head = mention._head
    if head is None:
        head = mention._head = _choose(mention)[0]
    return head


def mention_head(mention: Mention) -> Node:
    """The mention's head node (`head_position`)."""
    return mention.doc_nodes[head_position(mention)]


def head_upos_set(mention: Mention) -> set[str]:
    """UPOS of the head plus of its surface `flat` children inside the
    mention."""
    nodes, head = mention.doc_nodes, head_position(mention)
    tags = {nodes[head].upos}
    for i in mention.positions:
        if (nodes.parent(i) == head and "." not in nodes.ids[i]
                and nodes[i].deprel.startswith("flat")):
            tags.add(nodes[i].upos)
    return tags
