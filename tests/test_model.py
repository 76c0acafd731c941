import gc
import itertools
import random
from collections import Counter

import pytest

import gen
import oracles
from corefeval import stats
from corefeval.baselines import BASELINE_RULES
from corefeval.cli import validate_path
from corefeval.conllu import EntityReader, entity_value, parse_file, parse_text
from corefeval.errors import ConlluParseError
from corefeval.metrics import EvalOptions, score_document_pair
from corefeval.model import build_coref_layer
from corefeval.transforms import LAYER_TRANSFORMS, apply_ops


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
        assert doc.nodes.ids == ["1", "2", "2.1", "3"]

    def test_leading_empty_node(self):
        doc = doc_of([line("0.1", deps="1:exp"), line("1")])
        assert doc.nodes.ids == ["0.1", "1"]

    def test_positions_concatenate_across_sentences(self):
        doc = doc_of([line("1"), line("2", head="1"), line("3", head="1")],
                     [line("1"), line("2", head="1")])
        nodes = doc.nodes
        assert len(nodes) == 5 and nodes.ids == ["1", "2", "3", "1", "2"]
        assert nodes.sent_index == [0, 0, 0, 1, 1]

    def test_range_lines_are_not_nodes(self):
        doc = doc_of(["1-2\tdont\t_\t_\t_\t_\t_\t_\t_\t_",
                      line("1"), line("2", head="1")])
        assert doc.nodes.ids == ["1", "2"]


class TestLayerBuilding:
    def test_contiguous_span(self):
        doc = doc_of([line("1"), line("2", "Entity=(e1", "1"),
                      line("3", head="1"), line("4", "Entity=e1)", "1")])
        (entity,) = build_coref_layer(doc).entities
        assert [doc.nodes.ids[i] for i in entity.mentions[0].positions] == ["2", "3", "4"]

    def test_part_merging_is_discontinuous(self):
        doc = doc_of([line("1", "Entity=(e1[1/2]"), line("2", "Entity=e1[1/2])", "1"),
                      line("3", head="1"), line("4", head="1"),
                      line("5", "Entity=(e1[2/2])", "1")])
        (entity,) = build_coref_layer(doc).entities
        (mention,) = entity.mentions
        assert [doc.nodes.ids[i] for i in mention.positions] == ["1", "2", "5"]
        assert mention.is_discontinuous

    def test_mid_span_empty_node_included(self):
        doc = doc_of([line("1", "Entity=(e1"), line("1.1", deps="1:nsubj"),
                      line("2", "Entity=e1)", "1")])
        (entity,) = build_coref_layer(doc).entities
        mention = entity.mentions[0]
        assert [doc.nodes.ids[i] for i in mention.positions] == ["1", "1.1", "2"]
        assert mention.contains_empty and not mention.is_zero
        mention.set_positions(mention.positions[1:2])  # as the head reduction does
        assert mention.is_zero

    def test_nested_mentions_two_entities(self):
        doc = doc_of([line("1", "Entity=(e1"), line("2", "Entity=(e2", "1"),
                      line("3", "Entity=e2)", "1"), line("4", "Entity=e1)", "1")])
        layer = build_coref_layer(doc)
        spans = {e.eid: [doc.nodes.ids[i] for i in e.mentions[0].positions]
                 for e in layer.entities}
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
        spans = sorted([doc.nodes.ids[i] for i in m.positions] for m in entity.mentions)
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
    def test_layer_build_reads_no_entity_value(self, fixtures_dir, monkeypatch):
        docs = parse_file(fixtures_dir / "discontinuous.conllu")

        def read_again(self, position, value):
            raise AssertionError(f"Entity value {value!r} read after the parse")

        monkeypatch.setattr(EntityReader, "feed", read_again)
        layers = [build_coref_layer(doc) for doc in docs]
        assert sum(len(e.mentions) for layer in layers for e in layer.entities) > 0


class TestNoCyclicGarbage:
    """Documents and layers hold no reference cycle, so all that a
    document's work makes is freed when it is done, not by the cycle
    collector, which the commands run without (`cli.main`)."""

    @staticmethod
    def garbage(work) -> Counter:
        """The types of the objects that only the cycle collector frees
        after `work()`, with their counts."""
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            work()
            gc.collect()
            return Counter(type(o).__name__ for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    @pytest.fixture
    def documents(self, fixtures_dir):
        """Each call parses every bundled fixture anew."""
        paths = sorted(fixtures_dir.glob("*.conllu"))
        return lambda: [doc for path in paths for doc in parse_file(path)]

    def test_parsing_every_fixture(self, documents):
        assert self.garbage(documents) == Counter()

    @pytest.mark.parametrize("match", ["partial", "exact", "head"])
    def test_scoring(self, fixtures_dir, match):
        def work():
            pairs = [(parse_file(fixtures_dir / f"{name}.conllu"),) * 2
                     for name in ("animals", "zeros", "discontinuous")]
            pairs.append((parse_file(fixtures_dir / "nest_key.conllu"),
                          parse_file(fixtures_dir / "nest_response.conllu")))
            for key_docs, resp_docs in pairs:
                for key_doc, resp_doc in zip(key_docs, resp_docs):
                    for keep, upos in itertools.product((False, True), (None, "NOUN")):
                        opts = EvalOptions(match=match, keep_singletons=keep, upos_filter=upos)
                        assert score_document_pair(key_doc, resp_doc, opts)

        assert self.garbage(work) == Counter()

    @pytest.mark.parametrize("strip", [False, True])
    def test_every_transform_and_rule(self, documents, strip):
        assert set(BASELINE_RULES) <= set(LAYER_TRANSFORMS)

        def work():
            for doc in documents():
                for op in LAYER_TRANSFORMS.values():
                    assert apply_ops(doc, op, strip=strip).lines

        assert self.garbage(work) == Counter()

    def test_stats_and_strict_validation(self, fixtures_dir, documents):
        def work():
            for doc in documents():
                assert stats.tally(build_coref_layer(doc), stats.TABLES, True)
            for path in sorted(fixtures_dir.glob("*.conllu")):
                validate_path(str(path), strict=True)

        assert self.garbage(work) == Counter()


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
            naive = sorted(_naive_mentions(doc))
            read = sorted((eid, positions) for eid, positions, _ in doc.mentions)
            assert read == naive, f"seed {seed}"
            layer = build_coref_layer(doc)
            built = sorted((e.eid, m.positions) for e in layer.entities for m in e.mentions)
            assert built == naive, f"seed {seed}"

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
        for bracket in oracles.entity_brackets(value) if value else []:
            events.append((position, bracket))
    spans = []  # (eid, part, start, end)
    open_list = []
    for position, (kind, eid, part, _fields) in events:
        if kind == "open":
            open_list.append((eid, part, position))
        elif kind == "close":
            for at in range(len(open_list) - 1, -1, -1):
                if open_list[at][:2] == (eid, part):
                    spans.append((eid, part, open_list[at][2], position))
                    del open_list[at]
                    break
        else:
            spans.append((eid, part, position, position))
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
