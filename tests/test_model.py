import gc
import random
from collections import Counter

import pytest

import corefeval.conllu
import gen
from corefeval.conllu import (CLOSE, OPEN, entity_value, parse_file, parse_text,
                              tokenize_entity)
from corefeval.errors import ConlluParseError
from corefeval.metrics import EvalOptions, score_document_pair
from corefeval.model import Entity, Mention, Node, build_coref_layer
from corefeval.transforms import apply_ops, merge_same_span_layer


def line(tid, misc="_", head="0", upos="NOUN", deps="_", feats="_"):
    return "\t".join([tid, f"w{tid}", f"l{tid}", upos, "_", feats, head, "dep", deps, misc])


def doc_of(*sentences):
    lines = ["# newdoc id = d"]
    for sent in sentences:
        lines.extend(sent)
        lines.append("")
    return parse_text("\n".join(lines) + "\n")[0]


class TestWordOrder:
    def test_empty_nodes_follow_their_word(self):
        doc = doc_of([line("1"), line("2", head="1"),
                      line("2.1", deps="1:nsubj"), line("3", head="1")])
        assert [n.id for n in doc.nodes] == ["1", "2", "2.1", "3"]

    def test_leading_empty_node(self):
        doc = doc_of([line("0.1", deps="1:exp"), line("1")])
        assert [n.id for n in doc.nodes] == ["0.1", "1"]

    def test_positions_concatenate_across_sentences(self):
        doc = doc_of([line("1"), line("2", head="1"), line("3", head="1")],
                     [line("1"), line("2", head="1")])
        nodes = doc.nodes
        assert [n.index for n in nodes] == [0, 1, 2, 3, 4]
        assert [n.sent_index for n in nodes] == [0, 0, 0, 1, 1]

    def test_range_lines_are_not_nodes(self):
        doc = doc_of(["1-2\tdont\t_\t_\t_\t_\t_\t_\t_\t_",
                      line("1"), line("2", head="1")])
        assert [n.id for n in doc.nodes] == ["1", "2"]


class TestLayerBuilding:
    def test_contiguous_span(self):
        doc = doc_of([line("1"), line("2", "Entity=(e1", "1"),
                      line("3", head="1"), line("4", "Entity=e1)", "1")])
        (entity,) = build_coref_layer(doc).entities
        assert [n.id for n in entity.mentions[0].nodes] == ["2", "3", "4"]

    def test_part_merging_is_discontinuous(self):
        doc = doc_of([line("1", "Entity=(e1[1/2]"), line("2", "Entity=e1[1/2])", "1"),
                      line("3", head="1"), line("4", head="1"),
                      line("5", "Entity=(e1[2/2])", "1")])
        (entity,) = build_coref_layer(doc).entities
        (mention,) = entity.mentions
        assert [n.id for n in mention.nodes] == ["1", "2", "5"]
        assert mention.is_discontinuous

    def test_mid_span_empty_node_included(self):
        doc = doc_of([line("1", "Entity=(e1"), line("1.1", deps="1:nsubj"),
                      line("2", "Entity=e1)", "1")])
        (entity,) = build_coref_layer(doc).entities
        mention = entity.mentions[0]
        assert [n.id for n in mention.nodes] == ["1", "1.1", "2"]
        assert mention.contains_empty and not mention.is_zero
        mention.set_positions(mention.positions[1:2])  # as the head reduction does
        assert mention.is_zero

    def test_nested_mentions_two_entities(self):
        doc = doc_of([line("1", "Entity=(e1"), line("2", "Entity=(e2", "1"),
                      line("3", "Entity=e2)", "1"), line("4", "Entity=e1)", "1")])
        layer = build_coref_layer(doc)
        spans = {e.eid: [n.id for n in e.mentions[0].nodes] for e in layer.entities}
        assert spans == {"e1": ["1", "2", "3", "4"], "e2": ["2", "3"]}

    def test_out_of_order_parts_fail(self):
        with pytest.raises(ConlluParseError, match="<string>:2: .*no preceding part"):
            doc_of([line("1", "Entity=(e1[2/2])"), line("2", "Entity=(e1[1/2])", "1")])

    def test_missing_final_part_fails(self):
        with pytest.raises(ConlluParseError, match="missing part"):
            doc_of([line("1", "Entity=(e1[1/2])"), line("2", head="1")])

    def test_greedy_part_attachment(self):
        # two interleaved two-part mentions of one entity: part 2 attaches
        # to the earliest mention still waiting for it
        doc = doc_of([line("1", "Entity=(e1[1/2])"), line("2", "Entity=(e1[1/2])", "1"),
                      line("3", "Entity=(e1[2/2])", "1"), line("4", "Entity=(e1[2/2])", "1")])
        (entity,) = build_coref_layer(doc).entities
        spans = sorted([n.id for n in m.nodes] for m in entity.mentions)
        assert spans == [["1", "3"], ["2", "4"]]

    def test_zero_mention_flags(self):
        doc = doc_of([line("1"), line("1.1", "Entity=(e1)", deps="1:nsubj"),
                      line("2", "Entity=(e2)", "1")])
        layer = build_coref_layer(doc)
        flags = {e.eid: e.mentions[0].is_zero for e in layer.entities}
        assert flags == {"e1": True, "e2": False}

    def test_provided_head_index_parsed(self):
        doc = doc_of([line("1", "Entity=(e1-person-2-"), line("2", "Entity=e1)", "1")])
        (entity,) = build_coref_layer(doc).entities
        assert entity.mentions[0].provided_head_index == 2
        assert entity.mentions[0].extra_fields == ("person", "2", "")

    def test_non_ascii_head_field_is_no_head_index(self):
        doc = doc_of([line("1", "Entity=(e1-x-²)")])
        (entity,) = build_coref_layer(doc).entities
        assert entity.mentions[0].provided_head_index is None

    def test_entity_mention_sort(self):
        doc = doc_of([line("1", "Entity=(e1"), line("2", "Entity=(e1)e1)", "1"),
                      line("3", "Entity=(e1)", "1")])
        (entity,) = build_coref_layer(doc).entities
        spans = [(m.start, m.end) for m in entity.mentions]
        assert spans == sorted(spans)


class TestSinglePass:
    def test_layer_build_tokenizes_no_entity_value(self, fixtures_dir, monkeypatch):
        docs = parse_file(fixtures_dir / "discontinuous.conllu")

        def tokenize_again(value):
            raise AssertionError(f"Entity value {value!r} tokenized after the parse")

        monkeypatch.setattr(corefeval.conllu, "tokenize_entity", tokenize_again)
        layers = [build_coref_layer(doc) for doc in docs]
        assert sum(len(e.mentions) for layer in layers for e in layer.entities) > 0


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("match", ["partial", "head"])
    def test_scoring_and_merging_free_every_mention(self, fixtures_dir, match):
        """Layers hold no reference cycle, so a document's mentions, entities
        and nodes are freed when it is done, not by the cycle collector."""
        pairs = [(parse_file(fixtures_dir / f"{name}.conllu"),) * 2
                 for name in ("animals", "zeros", "discontinuous")]
        pairs.append((parse_file(fixtures_dir / "nest_key.conllu"),
                      parse_file(fixtures_dir / "nest_response.conllu")))
        opts = EvalOptions(match=match, keep_singletons=True, upos_filter="NOUN")
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for key_docs, resp_docs in pairs:
                for key_doc, resp_doc in zip(key_docs, resp_docs):
                    assert score_document_pair(key_doc, resp_doc, opts)
                    assert score_document_pair(key_doc, resp_doc, EvalOptions(match=match))
                    assert apply_ops(key_doc, merge_same_span_layer).mentions
            del key_doc, resp_doc, key_docs, resp_docs, pairs
            gc.collect()
            left = Counter(type(o).__name__ for o in gc.garbage
                           if isinstance(o, (Mention, Entity, Node)))
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert left == Counter()


class TestLayerProperties:
    def test_partition_property(self, rng):
        for seed in range(30):
            sub = random.Random(seed)
            _, specs, text = gen.random_document(sub, f"d{seed}", p_discontinuous=0.3)
            layer = build_coref_layer(parse_text(text)[0])
            total = sum(len(e.mentions) for e in layer.entities)
            assert total == len(specs)

    def test_expected_node_sets(self, rng):
        for seed in range(30):
            sub = random.Random(seed)
            _, specs, text = gen.random_document(sub, f"d{seed}", p_discontinuous=0.3)
            layer = build_coref_layer(parse_text(text)[0])
            built = sorted((e.eid, m.positions) for e in layer.entities for m in e.mentions)
            assert all(m.eid == e.eid for e in layer.entities for m in e.mentions)
            wanted = sorted((s.eid, tuple(s.positions)) for s in specs)
            assert built == wanted, f"seed {seed}"

    def test_naive_stack_reimplementation_agrees(self, rng):
        # mention assembly cross-checked against a naive per-node walker
        for seed in range(100):
            sub = random.Random(1000 + seed)
            _, _, text = gen.random_document(sub, f"d{seed}", p_discontinuous=0.25)
            doc = parse_text(text)[0]
            layer = build_coref_layer(doc)
            built = sorted((e.eid, m.positions) for e in layer.entities for m in e.mentions)
            assert built == sorted(_naive_mentions(doc)), f"seed {seed}"

    def test_determinism(self, rng):
        _, _, text = gen.random_document(rng, "dx", p_discontinuous=0.3)
        doc = parse_text(text)[0]
        one = [(e.eid, [tuple(sorted(m.position_set)) for m in e.mentions])
               for e in build_coref_layer(doc).entities]
        two = [(e.eid, [tuple(sorted(m.position_set)) for m in e.mentions])
               for e in build_coref_layer(doc).entities]
        assert one == two


def _naive_mentions(doc):
    """Stack-free brute re-implementation: pair opens with closes by
    explicit scanning, then merge parts by order of completion."""
    events = []  # (position, bracket)
    position = -1
    for line in doc.lines:
        if not line or line[0] == "#" or "-" in line.partition("\t")[0]:
            continue  # blank, comment or multiword range line: not a node
        position += 1
        value = entity_value(line)
        for bracket in tokenize_entity(value) if value else []:
            events.append((position, bracket))
    spans = []  # (eid, part, start, end)
    open_list = []
    for position, bracket in events:
        if bracket.kind == OPEN:
            open_list.append((bracket.eid, bracket.part, position))
        elif bracket.kind == CLOSE:
            for at in range(len(open_list) - 1, -1, -1):
                if open_list[at][:2] == (bracket.eid, bracket.part):
                    spans.append((bracket.eid, bracket.part, open_list[at][2], position))
                    del open_list[at]
                    break
        else:
            spans.append((bracket.eid, bracket.part, position, position))
    spans.sort(key=lambda s: (s[3], s[2]))  # completion order
    mentions = []
    waiting = {}
    for eid, part, start, end in spans:
        nodes = tuple(range(start, end + 1))
        if part is None:
            mentions.append((eid, nodes))
        elif part[0] == 1:
            waiting.setdefault(eid, []).append([part[1], 2, list(nodes)])
        else:
            for state in waiting[eid]:
                if state[1] == part[0] and state[0] == part[1]:
                    state[2].extend(nodes)
                    state[1] += 1
                    if part[0] == part[1]:
                        mentions.append((eid, tuple(sorted(set(state[2])))))
                        waiting[eid].remove(state)
                    break
    return mentions
