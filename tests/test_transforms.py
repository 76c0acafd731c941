import random

import pytest

import corefeval.baselines  # registers the baseline rules as transforms
import gen
import oracles
from corefeval.conllu import (doc_to_text, entity_value, parse_file, parse_text,
                              set_mentions)
from corefeval.errors import SerializationError
from corefeval.metrics import EvalOptions, evaluate
from corefeval.model import CorefLayer, Entity, Mention, build_coref_layer
from corefeval.transforms import (
    LAYER_TRANSFORMS,
    apply_ops,
    conservative_head_reduce_layer,
    merge_same_span_layer,
    reduce_layer_to_heads,
    remove_singletons_layer,
    rewrite_entity_annotations,
    strip_entities,
)


def spans_by_eid(doc):
    layer = build_coref_layer(doc)
    return {e.eid: sorted(tuple(sorted(m.position_set)) for m in e.mentions)
            for e in layer.entities}


def doc_from(skel, mentions):
    return parse_text(gen.conllu_text(skel, mentions))[0]


def simple_skeleton(n_words=8):
    # chain tree: word i hangs off word i-1
    return gen.Skeleton("d", [gen.SentenceSpec([
        gen.NodeSpec(str(i), f"w{i}", f"l{i}", "NOUN", "_",
                     "0" if i == 1 else str(i - 1), "dep", "_", False)
        for i in range(1, n_words + 1)])])


class TestReduceToHead:
    def test_spans_become_heads(self):
        skel = simple_skeleton()
        doc = doc_from(skel, [gen.MentionSpec("e1", (1, 2, 3))])
        reduced = apply_ops(doc, reduce_layer_to_heads)
        assert spans_by_eid(reduced) == {"e1": [(1,)]}  # chain root of 2,3,4

    def test_single_node_mention_unchanged(self):
        skel = simple_skeleton()
        doc = doc_from(skel, [gen.MentionSpec("e1", (2,))])
        assert doc_to_text(apply_ops(doc, reduce_layer_to_heads)) == doc_to_text(doc)

    def test_shared_head_produces_duplicate_spans(self):
        skel = simple_skeleton()
        doc = doc_from(skel, [gen.MentionSpec("e1", (1, 2, 3)),
                              gen.MentionSpec("e2", (1, 2))])
        reduced = apply_ops(doc, reduce_layer_to_heads)
        assert spans_by_eid(reduced) == {"e1": [(1,)], "e2": [(1,)]}

    def test_output_has_only_single_node_brackets(self, rng):
        for seed in range(20):
            sub = random.Random(seed)
            _, _, text = gen.random_document(sub, f"d{seed}", p_discontinuous=0.3)
            reduced = apply_ops(parse_text(text)[0], reduce_layer_to_heads)
            for at in reduced.nodes.line_index:
                value = entity_value(reduced.lines[at])
                if value:
                    for kind, *_ in oracles.entity_brackets(value):
                        assert kind == "single"

    def test_idempotent(self, rng):
        _, _, text = gen.random_document(rng, "dx")
        once = apply_ops(parse_text(text)[0], reduce_layer_to_heads)
        twice = apply_ops(once, reduce_layer_to_heads)
        assert doc_to_text(once) == doc_to_text(twice)


def random_entities(rng):
    """(eid, [(positions, opening fields), ...]) of up to eight entities in
    random order, their mentions drawn from a few spans over ten nodes:
    discontinuous ones share their first and last positions, and an entity
    may hold a span twice."""
    spans = set()
    for _ in range(rng.randint(2, 5)):
        start = rng.randrange(8)
        end = rng.randrange(start, min(start + 4, 10))
        spans.add(tuple(range(start, end + 1)))
        if end - start > 1:
            spans.add((start, end))
            spans.add((start, rng.randrange(start + 1, end), end))
    spans = sorted(spans)
    fields = [(), ("person",), ("person", "1"), ("place", "2", "gstype:spec")]
    eids = rng.sample(["e1", "e2", "e3", "e10", "x1", "a", "b7", "c"], rng.randint(1, 8))
    return [(eid, [(rng.choice(spans), rng.choice(fields))
                   for _ in range(rng.randint(1, 4))]) for eid in eids]


class TestMergeSameSpan:
    def test_duplicate_spans_merge_and_dedupe(self):
        skel = simple_skeleton()
        doc = doc_from(skel, [gen.MentionSpec("e1", (2,)), gen.MentionSpec("e2", (2,)),
                              gen.MentionSpec("e2", (4, 5))])
        merged = apply_ops(doc, merge_same_span_layer)
        assert spans_by_eid(merged) == {"e1": [(2,), (4, 5)]}

    def test_no_duplicates_no_change(self, rng):
        skel = gen.random_skeleton(rng, "dx")
        mentions = gen.random_mentions(rng, skel, n_entities=(2, 4))
        seen = set()
        unique = [m for m in mentions
                  if m.positions not in seen and not seen.add(m.positions)]
        doc = doc_from(skel, unique)
        assert doc_to_text(apply_ops(doc, merge_same_span_layer)) == doc_to_text(doc)

    def test_transitive_chain_with_union_find_oracle(self):
        skel = simple_skeleton()
        # e1~e2 share span A=(2,), e2~e3 share span B=(4,)
        doc = doc_from(skel, [
            gen.MentionSpec("e1", (2,)), gen.MentionSpec("e1", (6, 7)),
            gen.MentionSpec("e2", (2,)), gen.MentionSpec("e2", (4,)),
            gen.MentionSpec("e3", (4,)), gen.MentionSpec("e3", (0,))])
        merged = apply_ops(doc, merge_same_span_layer)
        groups = oracles.transitive_span_groups({
            "e1": [frozenset({2}), frozenset({6, 7})],
            "e2": [frozenset({2}), frozenset({4})],
            "e3": [frozenset({4}), frozenset({0})]})
        assert groups == [frozenset({"e1", "e2", "e3"})]
        assert set(spans_by_eid(merged)) == {"e1"}

    def test_random_grouping_matches_oracle(self, rng):
        from corefeval.errors import SerializationError
        checked = 0
        for seed in range(40):
            sub = random.Random(seed)
            skel = gen.random_skeleton(sub, f"d{seed}")
            mentions = gen.random_mentions(sub, skel, n_entities=(2, 5),
                                           n_mentions=(1, 3))
            if not mentions:
                continue
            doc = doc_from(skel, mentions)
            try:
                merged = apply_ops(doc, merge_same_span_layer)
            except SerializationError:
                # merging two entities with crossing multi-node spans can
                # produce a layer the bracket format cannot express
                continue
            checked += 1
            entity_spans = {}
            for m in mentions:
                entity_spans.setdefault(m.eid, []).append(frozenset(m.positions))
            groups = oracles.transitive_span_groups(entity_spans)
            assert sorted(spans_by_eid(merged)) == sorted(min(g) for g in groups)
        assert checked >= 20

    def test_random_layers_match_the_reference(self):
        """Hand-built layers, compared with `oracles.merge_same_span`: ids,
        entity order, mention order, positions and opening fields."""
        rng = random.Random(24)
        seen = dict.fromkeys(("three entities on a span", "twin in one entity",
                              "same ends", "chain"), 0)  # layers with each shape
        for _ in range(400):
            entities = random_entities(rng)
            layer = CorefLayer(None, None, [])
            for eid, mentions in entities:
                entity = Entity(eid)
                entity.mentions = [Mention(eid, ps, None, fields) for ps, fields in mentions]
                layer.entities.append(entity)
            reference = oracles.RuleLayer(entities, [])
            merge_same_span_layer(layer)
            oracles.merge_same_span(reference)
            assert [(e.eid, [(m.eid, m.positions, m.extra_fields) for m in e.mentions])
                    for e in layer.entities] == reference.value()
            owners = {}  # the entities on each span
            for eid, mentions in entities:
                for ps, _fields in mentions:
                    owners.setdefault(ps, []).append(eid)
            seen["three entities on a span"] += any(len(set(o)) > 2 for o in owners.values())
            seen["twin in one entity"] += any(len(set(o)) < len(o) for o in owners.values())
            seen["same ends"] += len({(ps[0], ps[-1]) for ps in owners}) < len(owners)
            groups = oracles.transitive_span_groups(
                {eid: [frozenset(ps) for ps, _fields in mentions] for eid, mentions in entities})
            seen["chain"] += any(len(g) > 2 and not any(g <= set(o) for o in owners.values())
                                 for g in groups)
        assert min(seen.values()) > 50, seen

    def test_parts_that_would_read_back_differently_fail(self):
        # e1 = {1,6} and e2 = {3,5} merge through {8}; written as parts,
        # (e1[1/2]) at 1 and 3 and (e1[2/2]) at 5 and 6 would read back as
        # {1,5} and {3,6}
        skel = simple_skeleton(10)
        doc = doc_from(skel, [gen.MentionSpec("e1", (1, 6)), gen.MentionSpec("e2", (3, 5)),
                              gen.MentionSpec("e1", (8,)), gen.MentionSpec("e2", (8,))])
        with pytest.raises(SerializationError, match="'e1'"):
            apply_ops(doc, merge_same_span_layer)
        layer = build_coref_layer(doc)
        merge_same_span_layer(layer)
        before = doc_to_text(doc)
        with pytest.raises(SerializationError):
            rewrite_entity_annotations(doc, layer)
        assert doc_to_text(doc) == before  # no token was changed
        lines, nodes, mentions = doc.lines, doc.nodes, doc.mentions
        with pytest.raises(SerializationError, match="'e1'"):
            set_mentions(doc, [("e1", (1, 6), ()), ("e1", (3, 5), ()), ("e1", (8,), ())])
        assert doc.lines is lines and doc.nodes is nodes and doc.mentions is mentions

    def test_idempotent(self, rng):
        skel = simple_skeleton()
        doc = doc_from(skel, [gen.MentionSpec("e1", (2,)), gen.MentionSpec("e2", (2,))])
        once = apply_ops(doc, merge_same_span_layer)
        assert doc_to_text(apply_ops(once, merge_same_span_layer)) == doc_to_text(once)


class TestConservativeHeadReduce:
    def test_lone_mention_reduces(self):
        skel = simple_skeleton()
        doc = doc_from(skel, [gen.MentionSpec("e1", (1, 2))])
        assert spans_by_eid(apply_ops(doc, conservative_head_reduce_layer)) == {"e1": [(1,)]}

    def test_shared_head_keeps_larger_span(self):
        skel = simple_skeleton()
        doc = doc_from(skel, [gen.MentionSpec("e1", (1, 2, 3)),
                              gen.MentionSpec("e2", (1,))])
        reduced = apply_ops(doc, conservative_head_reduce_layer)
        assert spans_by_eid(reduced) == {"e1": [(1, 2, 3)], "e2": [(1,)]}

    def test_three_sharing_leave_one_multinode(self):
        skel = simple_skeleton()
        doc = doc_from(skel, [gen.MentionSpec("e1", (1, 2, 3)),
                              gen.MentionSpec("e2", (1, 2)),
                              gen.MentionSpec("e3", (1,))])
        reduced = apply_ops(doc, conservative_head_reduce_layer)
        multi = [s for spans in spans_by_eid(reduced).values()
                 for s in spans if len(s) > 1]
        assert multi == [(1, 2, 3)]

    def test_size_tie_keeps_earliest_start(self):
        skel = simple_skeleton()
        # both {2,3} rooted at 2 and {2,4} rooted at 2: sizes tie
        doc = doc_from(skel, [gen.MentionSpec("e1", (1, 2)),
                              gen.MentionSpec("e2", (1, 3))])
        reduced = apply_ops(doc, conservative_head_reduce_layer)
        assert spans_by_eid(reduced) == {"e1": [(1, 2)], "e2": [(1,)]}

    def test_idempotent(self, rng):
        for seed in range(10):
            sub = random.Random(seed)
            _, _, text = gen.random_document(sub, f"d{seed}")
            once = apply_ops(parse_text(text)[0], conservative_head_reduce_layer)
            assert doc_to_text(apply_ops(once, conservative_head_reduce_layer)) == doc_to_text(once)


class TestRemoveSingletons:
    def test_all_singletons_empty_layer(self):
        skel = simple_skeleton()
        doc = doc_from(skel, [gen.MentionSpec("e1", (1,)), gen.MentionSpec("e2", (3,))])
        assert spans_by_eid(apply_ops(doc, remove_singletons_layer)) == {}

    def test_no_singletons_unchanged(self):
        skel = simple_skeleton()
        doc = doc_from(skel, [gen.MentionSpec("e1", (1,)), gen.MentionSpec("e1", (3,))])
        assert doc_to_text(apply_ops(doc, remove_singletons_layer)) == doc_to_text(doc)

    def test_mixed_document_drops_only_singletons(self, rng):
        for seed in range(10):
            sub = random.Random(seed)
            skel = gen.random_skeleton(sub, f"d{seed}")
            mentions = gen.random_mentions(sub, skel, n_entities=(2, 5))
            doc = doc_from(skel, mentions)
            layer = build_coref_layer(doc)
            singles = sum(1 for e in layer.entities if e.is_singleton)
            kept = build_coref_layer(apply_ops(doc, remove_singletons_layer))
            assert len(kept.entities) == len(layer.entities) - singles


class TestTransformInvariants:
    def test_node_universe_preserved(self, rng):
        # a copy shares the input's `Nodes`, so each result's text is read
        # back: a rewrite that lost, added or moved a node line shows there
        _, _, text = gen.random_document(rng, "dx", p_discontinuous=0.3)
        doc = parse_text(text)[0]

        def columns(nodes):
            return nodes.ids, nodes.sent_index, nodes.line_index

        base = columns(doc.nodes)
        for op in (reduce_layer_to_heads, merge_same_span_layer,
                   conservative_head_reduce_layer, remove_singletons_layer):
            assert columns(parse_text(doc_to_text(apply_ops(doc, op)))[0].nodes) == base, op
        assert columns(parse_text(doc_to_text(strip_entities(doc)))[0].nodes) == base

    def test_head_match_equals_partial_after_reduction(self):
        # scoring removes singletons before the head reduction; with shared
        # heads an external reduction of the full file could differ, so the
        # equivalence is pinned for head-sharing-free documents
        for seed in range(25):
            sub = random.Random(seed)
            skel = gen.random_skeleton(sub, f"d{seed}", n_sentences=(1, 3))
            key = gen.random_mentions(sub, skel, no_singletons=True,
                                      treelet_only=True, distinct_heads=True,
                                      n_entities=(1, 3), n_mentions=(2, 4))
            resp = gen.respan_around_heads(sub, key, skel, p_drop=0.15)
            key_doc = doc_from(skel, key)
            resp_doc = doc_from(skel, resp)
            direct = evaluate({"d": [key_doc]}, {"d": [resp_doc]},
                              EvalOptions(match="head", metrics=("conll", "blanc", "lea")))
            reduced = evaluate({"d": [apply_ops(key_doc, conservative_head_reduce_layer)]},
                               {"d": [apply_ops(resp_doc, conservative_head_reduce_layer)]},
                               EvalOptions(match="partial", metrics=("conll", "blanc", "lea")))
            assert direct.per_dataset["d"] == reduced.per_dataset["d"], f"seed {seed}"

    def test_reduction_variants_identical_without_head_sharing(self):
        for seed in range(20):
            sub = random.Random(seed)
            skel = gen.random_skeleton(sub, f"d{seed}", n_sentences=(1, 2))
            mentions = gen.random_mentions(sub, skel, treelet_only=True,
                                           distinct_heads=True, n_entities=(1, 3))
            doc = doc_from(skel, mentions)
            a = doc_to_text(apply_ops(doc, reduce_layer_to_heads))
            b = doc_to_text(apply_ops(doc, conservative_head_reduce_layer))
            c = doc_to_text(apply_ops(apply_ops(doc, reduce_layer_to_heads), merge_same_span_layer))
            assert a == b == c, f"seed {seed}"

    def test_strip_entities_removes_all_annotation(self, fixtures_dir):
        doc = parse_text((fixtures_dir / "animals.conllu").read_text())[0]
        stripped = strip_entities(doc)
        assert spans_by_eid(stripped) == {}
        assert "Entity=" not in doc_to_text(stripped)


def layer_summary(doc):
    """Entity ids, with each mention's node ids and extra fields, in order."""
    layer = build_coref_layer(doc)
    nodes = layer.nodes
    return [(e.eid, [([(nodes.sent_index[i], nodes.ids[i]) for i in m.positions],
                      m.extra_fields)
                     for m in e.mentions])
            for e in layer.entities]


class TestMentionsInStep:
    """A rewritten document's mentions are those its text reads as."""

    @pytest.mark.parametrize("strip", [False, True], ids=["kept", "stripped"])
    @pytest.mark.parametrize("op", sorted(LAYER_TRANSFORMS))
    @pytest.mark.parametrize("fixture", ["animals", "zeros", "discontinuous",
                                         "pronoun_baseline", "propn_baseline"])
    def test_layer_equals_layer_of_its_text(self, fixture, op, strip, fixtures_dir):
        for doc in parse_file(fixtures_dir / f"{fixture}.conllu"):
            if strip:
                doc = strip_entities(doc)
                assert layer_summary(doc) == []
            out = doc.copy()
            layer = build_coref_layer(out)
            LAYER_TRANSFORMS[op](layer)
            rewrite_entity_annotations(out, layer)
            assert layer_summary(out) == layer_summary(parse_text(doc_to_text(out))[0])

    def test_strip_in_one_rewrite_equals_strip_then_rewrite(self, fixtures_dir):
        # `strip=True` writes over the old values in one `set_mentions`; the
        # text, mentions and errors are those of stripping first.  Some MISC
        # columns get an attribute before `Entity`, where placement differs.
        sub = random.Random(5)
        texts = [(fixtures_dir / f"{name}.conllu").read_text() for name in
                 ("animals", "zeros", "discontinuous", "pronoun_baseline", "propn_baseline")]
        for seed in range(30):
            text = gen.random_document(random.Random(seed), f"r{seed}",
                                       p_discontinuous=0.3)[2]
            texts.append("\n".join(line.replace("\tEntity=", "\tA=1|Entity=")
                                   if sub.random() < 0.5 else line
                                   for line in text.split("\n")))
        for text in texts:
            for doc in parse_text(text):
                before = doc_to_text(doc)
                for ops in [[]] + [[LAYER_TRANSFORMS[op]] for op in sorted(LAYER_TRANSFORMS)]:
                    try:
                        expected = apply_ops(strip_entities(doc), *ops)
                    except SerializationError as exc:
                        with pytest.raises(SerializationError, match=str(exc)):
                            apply_ops(doc, *ops, strip=True)
                        continue
                    got = apply_ops(doc, *ops, strip=True)
                    assert doc_to_text(got) == doc_to_text(expected)
                    assert got.mentions == expected.mentions
                assert doc_to_text(doc) == before

    @pytest.mark.parametrize("op", ["strip"] + sorted(LAYER_TRANSFORMS))
    @pytest.mark.parametrize("fixture", ["animals", "zeros", "discontinuous",
                                         "pronoun_baseline", "propn_baseline"])
    def test_input_document_is_unchanged(self, fixture, op, fixtures_dir):
        """Copies share their lines, so a rewrite must never show in its input."""
        for doc in parse_file(fixtures_dir / f"{fixture}.conllu"):
            before = doc_to_text(doc)
            mentions = list(doc.mentions)
            if op == "strip":
                strip_entities(doc)
            else:
                apply_ops(doc, LAYER_TRANSFORMS[op])
            assert doc_to_text(doc) == before
            assert doc.mentions == mentions

    @pytest.mark.parametrize("strip", [False, True], ids=["kept", "stripped"])
    @pytest.mark.parametrize("op", sorted(LAYER_TRANSFORMS))
    @pytest.mark.parametrize("fixture", ["animals", "zeros", "discontinuous", "nest_key",
                                         "nest_response", "pronoun_baseline",
                                         "propn_baseline"])
    def test_nodes_read_the_rewritten_lines(self, fixture, op, strip, fixtures_dir):
        """A result's `Nodes` read its own lines, the input's still the input's."""
        for doc in parse_file(fixtures_dir / f"{fixture}.conllu"):
            lines = list(doc.lines)
            out = apply_ops(doc, LAYER_TRANSFORMS[op], strip=strip)
            assert doc.lines == lines
            for result in (out, doc):
                nodes = result.nodes
                for i in range(len(nodes)):
                    fields = result.lines[nodes.line_index[i]].split("\t")
                    assert [nodes.column(i, k) for k in range(10)] == fields

    @pytest.mark.parametrize("strip", [False, True], ids=["kept", "stripped"])
    def test_lines_without_a_value_are_not_rebuilt(self, strip, fixtures_dir):
        """A line that neither had nor gets an `Entity` value stays the very
        same object."""
        texts = [path.read_text() for path in sorted(fixtures_dir.glob("*.conllu"))]
        texts += [gen.random_document(random.Random(seed), f"r{seed}", p_discontinuous=0.3,
                                      p_provided_head=0.4)[2] for seed in range(20)]
        kept = 0
        for text in texts:
            for doc in parse_text(text):
                for op in LAYER_TRANSFORMS.values():
                    try:
                        out = apply_ops(doc, op, strip=strip)
                    except SerializationError:
                        continue
                    for old, new in zip(doc.lines, out.lines):
                        if entity_value(old) is None and entity_value(new) is None:
                            assert new is old
                            kept += 1
        assert kept > 1000
