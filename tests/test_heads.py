import random

import pytest

import gen
import oracles
from corefeval import conllu
from corefeval.conllu import parse_text
from corefeval.heads import (
    HIGHEST_NODE,
    PROVIDED,
    find_head,
    head_upos_set,
    mention_head,
    treelet_roots,
)
from corefeval.model import build_coref_layer


def line(tid, misc="_", head="0", upos="NOUN", deps="_", deprel="dep"):
    return "\t".join([tid, f"w{tid}", f"l{tid}", upos, "_", "_", head, deprel, deps, misc])


def layer_of(*sentences):
    lines = ["# newdoc id = d"]
    for sent in sentences:
        lines.extend(sent)
        lines.append("")
    return build_coref_layer(parse_text("\n".join(lines) + "\n")[0])


def mention_of(layer, eid):
    return next(e for e in layer.entities if e.eid == eid).mentions[0]


class TestFindHead:
    def test_det_noun_pair(self):
        layer = layer_of([line("1", head="0", upos="VERB"),
                          line("2", "Entity=(e1", "3", "DET"),
                          line("3", "Entity=e1)", "1", "NOUN")])
        choice = find_head(mention_of(layer, "e1"))
        assert choice.head.id == "3"
        assert choice.rule_used == HIGHEST_NODE

    def test_full_subtree_returns_root(self):
        layer = layer_of([line("1", "Entity=(e1", "0"), line("2", head="1"),
                          line("3", "Entity=e1)", "2")])
        assert find_head(mention_of(layer, "e1")).head.id == "1"

    def test_two_roots_minimal_depth_wins(self):
        # tree: 1 <- 2 <- 3 <- 4; 1 <- 5 <- 6; mention {4, 6}:
        # depth(4)=3, depth(6)=2, both external parents
        layer = layer_of([line("1"), line("2", head="1"),
                          line("3", head="2"), line("4", "Entity=(e1[1/2])", "3"),
                          line("5", head="1"), line("6", "Entity=(e1[2/2])", "5")])
        mention = mention_of(layer, "e1")
        choice = find_head(mention)
        assert choice.head.id == "6"
        assert {layer.nodes.ids[i] for i in choice.candidates} == {"4", "6"}
        assert _exhaustive_depth(layer, "4") == 3
        assert _exhaustive_depth(layer, "6") == 2

    def test_depth_tie_prefers_surface_over_empty(self):
        layer = layer_of([line("1"),
                          line("1.1", "Entity=(e1[1/2])", deps="1:nsubj"),
                          line("2", "Entity=(e1[2/2])", "1")])
        assert find_head(mention_of(layer, "e1")).head.id == "2"

    def test_depth_tie_then_smallest_position(self):
        layer = layer_of([line("1"), line("2", "Entity=(e1[1/2])", "1"),
                          line("3", head="1"), line("4", "Entity=(e1[2/2])", "1")])
        assert find_head(mention_of(layer, "e1")).head.id == "2"

    def test_provided_head_preferred(self):
        layer = layer_of([line("1", "Entity=(e1-person-1-", "2", "DET"),
                          line("2", "Entity=e1)", "0", "NOUN")])
        choice = find_head(mention_of(layer, "e1"))
        assert choice.rule_used == PROVIDED
        assert choice.head.id == "1"  # index says first word, tree says second

    def test_provided_head_out_of_range_recomputes(self, caplog):
        layer = layer_of([line("1", "Entity=(e1-person-9-", "2", "DET"),
                          line("2", "Entity=e1)", "0", "NOUN")])
        with caplog.at_level("WARNING", logger="corefeval"):
            choice = find_head(mention_of(layer, "e1"))
        assert choice.rule_used == HIGHEST_NODE
        assert choice.head.id == "2"

    def test_cycle_on_ancestor_path_falls_back(self, caplog):
        # 1.1 and 1.2 point at each other; the mention node 1.1 is a
        # candidate (its parent is outside) but its depth is undefined
        layer = layer_of([line("1"),
                          line("1.1", "Entity=(e1[1/2])", deps="1.2:dep"),
                          line("1.2", deps="1.1:dep"),
                          line("2", "Entity=(e1[2/2])", "1")])
        with caplog.at_level("WARNING", logger="corefeval"):
            choice = find_head(mention_of(layer, "e1"))
        assert choice.head.id == "1.1"
        assert any("cycle" in r.message for r in caplog.records)

    def test_all_parents_inside_falls_back_to_first(self, caplog):
        layer = layer_of([line("1"),
                          line("1.1", "Entity=(e1", deps="1.2:dep"),
                          line("1.2", "Entity=e1)", deps="1.1:dep")])
        with caplog.at_level("WARNING", logger="corefeval"):
            choice = find_head(mention_of(layer, "e1"))
        assert choice.head.id == "1.1"
        assert any("no treelet root" in r.message for r in caplog.records)

    def test_head_always_inside_mention(self, rng):
        for seed in range(40):
            sub = random.Random(seed)
            _, _, text = gen.random_document(sub, f"d{seed}", p_discontinuous=0.3)
            layer = build_coref_layer(parse_text(text)[0])
            for entity in layer.entities:
                for mention in entity.mentions:
                    assert mention_head(mention) in mention.nodes

    def test_idempotent_after_reduction(self, rng):
        for seed in range(20):
            sub = random.Random(seed)
            _, _, text = gen.random_document(sub, f"d{seed}")
            layer = build_coref_layer(parse_text(text)[0])
            for entity in layer.entities:
                for mention in entity.mentions:
                    head = find_head(mention).head
                    mention.set_positions((head.index,))
                    mention.provided_head_index = None
                    assert find_head(mention).head is head

    def test_subtree_root_stable_under_leaf_removal(self, rng):
        for seed in range(30):
            sub = random.Random(seed)
            skel = gen.random_skeleton(sub, f"d{seed}", n_sentences=(1, 2))
            mentions = gen.random_mentions(sub, skel, treelet_only=True,
                                           n_entities=(1, 2))
            if not mentions:
                continue
            layer = build_coref_layer(parse_text(gen.conllu_text(skel, mentions))[0])
            for entity in layer.entities:
                for mention in entity.mentions:
                    root = find_head(mention).head
                    while len(mention.positions) > 1:
                        leaves = [i for i in mention.positions if i != root.index]
                        mention.set_positions(tuple(i for i in mention.positions
                                                    if i != leaves[-1]))
                        assert find_head(mention).head is root


class TestHeadUposSet:
    def test_flat_child_adds_upos(self):
        layer = layer_of([line("1", "Entity=(e1", "0", "NOUN"),
                          line("2", "Entity=e1)", "1", "PROPN", deprel="flat")])
        assert head_upos_set(mention_of(layer, "e1")) == {"NOUN", "PROPN"}

    def test_flat_subtype_counts(self):
        layer = layer_of([line("1", "Entity=(e1", "0", "NOUN"),
                          line("2", "Entity=e1)", "1", "PROPN", deprel="flat:name")])
        assert head_upos_set(mention_of(layer, "e1")) == {"NOUN", "PROPN"}

    def test_no_flat_children(self):
        layer = layer_of([line("1", "Entity=(e1)", "0", "PRON")])
        assert head_upos_set(mention_of(layer, "e1")) == {"PRON"}

    def test_flat_child_outside_mention_ignored(self):
        layer = layer_of([line("1", "Entity=(e1)", "0", "NOUN"),
                          line("2", head="1", upos="PROPN", deprel="flat")])
        assert head_upos_set(mention_of(layer, "e1")) == {"NOUN"}

    def test_non_flat_child_ignored(self):
        layer = layer_of([line("1", "Entity=(e1", "0", "NOUN"),
                          line("2", "Entity=e1)", "1", "ADJ", deprel="amod")])
        assert head_upos_set(mention_of(layer, "e1")) == {"NOUN"}

    def test_empty_flat_child_ignored(self):
        # the empty node's first enhanced head is the mention head, with
        # relation flat; only surface words count as flat children
        layer = layer_of([line("1", "Entity=(e1", "0", "NOUN"),
                          line("1.1", head="_", upos="PROPN", deps="1:flat", deprel="_"),
                          line("2", "Entity=e1)", "1", "ADJ", deprel="amod")])
        mention = mention_of(layer, "e1")
        assert mention_head(mention).id == "1"
        assert layer.nodes[1].deprel == "flat"
        assert head_upos_set(mention) == {"NOUN"}


class TestTreeletRoots:
    def test_connected_subtree_has_one_root(self):
        layer = layer_of([line("1", "Entity=(e1", "0"), line("2", head="1"),
                          line("3", "Entity=e1)", "1")])
        assert len(treelet_roots(mention_of(layer, "e1"))) == 1

    def test_disconnected_has_two(self):
        layer = layer_of([line("1"), line("2", "Entity=(e1[1/2])", "1"),
                          line("3", head="1"), line("4", "Entity=(e1[2/2])", "3")])
        assert len(treelet_roots(mention_of(layer, "e1"))) == 2


def _exhaustive_depth(layer, node_id):
    """The parent steps from a node of a one-sentence layer to its root, by
    the HEAD and DEPS columns of the lines."""
    parents = oracles.tree_parents(layer.doc.lines)
    at = layer.nodes.ids.index(node_id)
    depth = 0
    seen = set()
    while parents[at] is not None and at not in seen:
        seen.add(at)
        at = parents[at]
        depth += 1
    return depth


class TestBoundedHeadFinding:
    @pytest.mark.parametrize("n", [2000, 8000])
    def test_parent_reads_on_a_chain_are_linear(self, monkeypatch, n):
        """One sentence whose tree is a single chain (word k hangs off word
        k + 1), with a mention on every 4th word: finding all heads reads
        at most 2n parents, where a walk per mention would read ~n²/8."""
        lines = ["# newdoc id = d"]
        lines += [line(str(k), "Entity=(e1)" if k % 4 == 0 else "_",
                       str(k + 1) if k < n else "0") for k in range(1, n + 1)]
        layer = build_coref_layer(parse_text("\n".join(lines) + "\n\n")[0])
        reads = [0]
        parent = conllu.Nodes.parent

        def counted(self, i):
            reads[0] += 1
            return parent(self, i)

        monkeypatch.setattr(conllu.Nodes, "parent", counted)
        mentions = layer.entities[0].mentions
        heads = [mention_head(m).id for m in mentions]
        assert heads == [str(k) for k in range(4, n + 1, 4)]
        assert len(mentions) == n // 4 and reads[0] <= 2 * n
