import gc
import random
import time

import pytest

import gen
import oracles
from corefeval.baselines import (
    BASELINE_RULES,
    pronoun_gender_link_layer,
    propn_lemma_merge_layer,
    simple_rule_based_layer,
)
from corefeval.cli import validate_path
from corefeval.conllu import Document, doc_to_text, parse_text
from corefeval.model import CorefLayer, Entity, Mention, build_coref_layer
from corefeval.transforms import (
    apply_ops,
    merge_same_span_layer,
    reduce_layer_to_heads,
    rewrite_entity_annotations,
)


def entity_map(doc):
    """eid -> set of mentions, a mention being ((sent, token id), ...)."""
    layer = build_coref_layer(doc)
    return {
        e.eid: {tuple((layer.nodes.sent_index[i], layer.nodes.ids[i]) for i in m.positions)
                for m in e.mentions}
        for e in layer.entities
    }


def mention(*nodes):
    return tuple(nodes)


# hand-derived outputs for the two 20-sentence rule fixtures
PRONOUN_EXPECTED = {
    # pre-annotated entities gain the pronouns that resolve to them; e1
    # also holds the anaphoric zero of s20 from the input
    "e1": {mention((7, "1")), mention((8, "1")), mention((19, "2.1"))},
    "e2": {mention((9, "1")), mention((11, "1"))},       # mouse, she-s12
    "e3": {mention((14, "1"), (14, "2")), mention((15, "1"))},  # the owl, she-s16
    "e5": {mention((18, "1"))},                          # pre-annotated pronoun, untouched
    # fresh entities in pronoun document order
    "x1": {mention((0, "1")), mention((1, "1"))},        # dog, he-s2
    "x2": {mention((2, "1")), mention((3, "1"))},        # cat, she-s4
    "x3": {mention((4, "1")), mention((5, "1"))},        # fox, he-s6
    "x4": {mention((12, "2")), mention((13, "1")), mention((17, "1"))},
    # bull (nearest of the two s13 nouns), he-s14, he-s18
}

PROPN_EXPECTED = {
    "e4": {mention((1, "1")), mention((5, "1")), mention((19, "2.1"))},
    # Praha + bare Praha + the input's anaphoric zero
    "e7": {mention((2, "1")), mention((6, "1"))},        # Brno: e9 merged in
    "e10": {mention((7, "1"), (7, "2")), mention((11, "1"))},  # the Dunaj + Dunaj
    "x1": {mention((0, "1")), mention((4, "1")), mention((8, "1"))},  # Smiths
}


class TestPronounGenderLink:
    def test_twenty_sentence_fixture_hand_derived(self, fixtures_dir, tmp_path):
        doc = parse_text((fixtures_dir / "pronoun_baseline.conllu").read_text())[0]
        out = apply_ops(doc, pronoun_gender_link_layer)
        assert entity_map(out) == PRONOUN_EXPECTED
        out_path = tmp_path / "out.conllu"
        out_path.write_text(doc_to_text(out))
        assert validate_path(str(out_path)) == []

    def test_nearest_previous_noun_wins(self):
        doc = parse_text(
            "# newdoc id = d\n"
            "1\tdog\tdog\tNOUN\t_\tGender=Masc\t0\troot\t_\t_\n"
            "2\tfox\tfox\tNOUN\t_\tGender=Masc\t1\tconj\t_\t_\n"
            "3\the\the\tPRON\t_\tGender=Masc\t1\tnsubj\t_\t_\n\n")[0]
        out = entity_map(apply_ops(doc, pronoun_gender_link_layer))
        assert out == {"x1": {mention((0, "2")), mention((0, "3"))}}

    def test_gender_mismatch_leaves_pronoun_out(self):
        doc = parse_text(
            "# newdoc id = d\n"
            "1\tdog\tdog\tNOUN\t_\tGender=Masc\t0\troot\t_\t_\n"
            "2\tshe\tshe\tPRON\t_\tGender=Fem\t1\tnsubj\t_\t_\n\n")[0]
        assert entity_map(apply_ops(doc, pronoun_gender_link_layer)) == {}

    def test_empty_nodes_never_antecede(self):
        doc = parse_text(
            "# newdoc id = d\n"
            "1\truns\trun\tVERB\t_\t_\t0\troot\t_\t_\n"
            "1.1\t_\tdog\tNOUN\t_\tGender=Masc\t_\t_\t1:nsubj\t_\n"
            "2\the\the\tPRON\t_\tGender=Masc\t1\tobj\t_\t_\n\n")[0]
        assert entity_map(apply_ops(doc, pronoun_gender_link_layer)) == {}


class TestPropnLemmaMerge:
    def test_twenty_sentence_fixture_hand_derived(self, fixtures_dir, tmp_path):
        doc = parse_text((fixtures_dir / "propn_baseline.conllu").read_text())[0]
        out = apply_ops(doc, propn_lemma_merge_layer)
        assert entity_map(out) == PROPN_EXPECTED
        out_path = tmp_path / "out.conllu"
        out_path.write_text(doc_to_text(out))
        assert validate_path(str(out_path)) == []

    def test_unannotated_pair_creates_fresh_entity(self):
        doc = parse_text(
            "# newdoc id = d\n"
            "1\tBrown\tbrown\tPROPN\t_\t_\t0\troot\t_\t_\n"
            "2\tBrown\tbrown\tPROPN\t_\t_\t1\tflat\t_\t_\n\n")[0]
        assert entity_map(apply_ops(doc, propn_lemma_merge_layer)) == {
            "x1": {mention((0, "1")), mention((0, "2"))}}

    def test_annotated_token_pulls_others_into_its_entity(self):
        doc = parse_text(
            "# newdoc id = d\n"
            "1\tBrown\tbrown\tPROPN\t_\t_\t0\troot\t_\tEntity=(e4)\n"
            "2\tBrown\tbrown\tPROPN\t_\t_\t1\tflat\t_\t_\n\n")[0]
        assert entity_map(apply_ops(doc, propn_lemma_merge_layer)) == {
            "e4": {mention((0, "1")), mention((0, "2"))}}

    def test_distinct_lemmas_unchanged(self):
        doc = parse_text(
            "# newdoc id = d\n"
            "1\tBrown\tbrown\tPROPN\t_\t_\t0\troot\t_\t_\n"
            "2\tSmith\tsmith\tPROPN\t_\t_\t1\tflat\t_\t_\n\n")[0]
        assert doc_to_text(apply_ops(doc, propn_lemma_merge_layer)) == doc_to_text(doc)


class TestPipelines:
    def test_simple_rule_based_composition(self, fixtures_dir):
        # pronoun linking first, then head reduction, same-span merging and
        # proper-noun clustering, in that order
        doc = parse_text((fixtures_dir / "pronoun_baseline.conllu").read_text())[0]
        doc = doc.copy()
        layer = build_coref_layer(doc)
        simple_rule_based_layer(layer)
        rewrite_entity_annotations(doc, layer)
        by_hand = parse_text((fixtures_dir / "pronoun_baseline.conllu").read_text())[0]
        for op in (pronoun_gender_link_layer, reduce_layer_to_heads,
                   merge_same_span_layer, propn_lemma_merge_layer):
            by_hand = apply_ops(by_hand, op)
        assert entity_map(doc) == entity_map(by_hand)

    def test_outputs_validate(self, fixtures_dir, tmp_path):
        for name, op in (("pronoun_baseline", pronoun_gender_link_layer),
                         ("propn_baseline", propn_lemma_merge_layer)):
            doc = parse_text((fixtures_dir / f"{name}.conllu").read_text())[0]
            out_path = tmp_path / f"{name}.out.conllu"
            out_path.write_text(doc_to_text(apply_ops(doc, op)))
            assert validate_path(str(out_path)) == []


def layer_value(layer):
    return [(e.eid, [(m.eid, m.positions, m.extra_fields) for m in e.mentions])
            for e in layer.entities]


# each rule set as steps; the rules as the step-by-step references
REFERENCE_STEPS = {
    "propn-lemma": (oracles.propn_lemma_merge,),
    "pronoun-gender": (oracles.pronoun_gender_link,),
    "berulasek": (reduce_layer_to_heads, merge_same_span_layer, oracles.propn_lemma_merge),
    "simple-rule-based": (oracles.pronoun_gender_link, reduce_layer_to_heads,
                          merge_same_span_layer, oracles.propn_lemma_merge),
}


def reference_value(layer, name):
    """`layer_value` after the rule set `name`, its rules run by the
    references on a copy of the layer's entities."""
    words = oracles.surface_words(layer.doc.lines)
    for step in REFERENCE_STEPS[name]:
        if step.__module__ != oracles.__name__:
            step(layer)
            continue
        rule_layer = oracles.RuleLayer(
            [(e.eid, [(m.positions, m.extra_fields) for m in e.mentions])
             for e in layer.entities], words)
        step(rule_layer)
        entities = []
        for rule_entity in rule_layer.entities:
            entities.append(Entity(rule_entity.eid))
            entities[-1].mentions = [Mention(m.eid, m.positions, layer.nodes, m.extra_fields)
                                     for m in rule_entity.mentions]
        layer = CorefLayer(layer.doc, layer.nodes, entities)
    return layer_value(layer)


def pairs_document(n, pair):
    """One document of n two-word sentences, sentence k's word columns 2-6
    and MISC given by `pair(k)`."""
    lines = ["# newdoc id = long"]
    for k in range(n):
        (form1, misc1), (form2, misc2) = pair(k)
        lines += [f"# sent_id = s{k}", f"1\t{form1}\t0\troot\t_\t{misc1}",
                  f"2\t{form2}\t1\tdep\t_\t{misc2}", ""]
    return parse_text("\n".join(lines) + "\n")[0]


def least_cpu_seconds(cases):
    """For each (doc, rule, calls) of `cases`, the least of three CPU
    timings of `rule`, each the mean of `calls` calls on new layers of
    `doc`; the cases take turns, so that each sees the same host."""
    times = [[] for _ in cases]
    for _ in range(3):
        for (doc, rule, calls), timings in zip(cases, times):
            layers = [build_coref_layer(doc) for _ in range(calls)]
            # a full collection costs in proportion to the whole session's heap
            gc.disable()
            try:
                start = time.process_time()
                for layer in layers:
                    rule(layer)
                timings.append((time.process_time() - start) / calls)
            finally:
                gc.enable()
            # each two-word sentence ends as one entity of two mentions
            assert len(layers[-1].entities) == len(doc.nodes) // 2
            assert all(len(e.mentions) == 2 for e in layers[-1].entities)
    return [min(timings) for timings in times]


class TestAgainstReference:
    def test_random_documents_match_the_step_by_step_rules(self):
        rng = random.Random(23)
        skips = merges = 0
        for k in range(300):
            skel = gen.random_skeleton(rng, f"d{k}", n_sentences=(1, 8), n_words=(3, 12))
            # ids "x<n>" in a third of the documents: new ids must skip them
            mentions = gen.random_mentions(rng, skel, eid_prefix="x" if k % 3 == 0 else "e",
                                           n_entities=(0, 6), p_provided_head=0.3)
            doc = parse_text(gen.conllu_text(skel, mentions))[0]
            for strip in (False, True):
                for name, rule in BASELINE_RULES.items():
                    layers = [build_coref_layer(Document(doc.doc_id, doc.lines, doc.nodes, [])
                                                if strip else doc) for _ in range(2)]
                    before = {e.eid for e in layers[0].entities}
                    rule(layers[0])
                    got = layer_value(layers[0])
                    assert got == reference_value(layers[1], name), (k, strip, name)
                    after = {eid for eid, _ in got}
                    skips += "x1" in before and bool(after - before)
                    merges += name == "propn-lemma" and bool(before - after)
        assert skips > 20 and merges > 20

    def test_new_ids_take_the_smallest_free_numbers(self):
        # x1 and x3 are taken; three new entities are x2, x4 and x5
        taken = [("a\ta\tADJ\t_\t_", "Entity=(x1)"), ("b\tb\tADJ\t_\t_", "Entity=(x3)")]
        for rule, words in (
                (pronoun_gender_link_layer, [("dog\tdog\tNOUN\t_\tGender=Masc", "_"),
                                             ("he\the\tPRON\t_\tGender=Masc", "_"),
                                             ("cat\tcat\tNOUN\t_\tGender=Fem", "_"),
                                             ("she\tshe\tPRON\t_\tGender=Fem", "_"),
                                             ("car\tcar\tNOUN\t_\tGender=Neut", "_"),
                                             ("it\tit\tPRON\t_\tGender=Neut", "_")]),
                (propn_lemma_merge_layer, [(f"{name}\t{name}\tPROPN\t_\t_", "_")
                                           for name in ("Ann", "Ann", "Bo", "Bo", "Cy", "Cy")])):
            sentences = [taken[0], taken[1], *words]
            doc = pairs_document(4, lambda k: sentences[2 * k:2 * k + 2])
            layer = build_coref_layer(doc)
            rule(layer)
            assert [(e.eid, [m.positions for m in e.mentions]) for e in layer.entities] == [
                ("x1", [(0,)]), ("x3", [(1,)]), ("x2", [(2,), (3,)]),
                ("x4", [(4,), (5,)]), ("x5", [(6,), (7,)])], rule.__name__


class TestScaling:
    """One long document costs the rules time in proportion to its words:
    8 times the words cost under 16 times the CPU time (a quadratic rule
    would take about 64 times)."""

    @pytest.mark.parametrize("name", ["pronoun-gender", "propn-lemma"])
    def test_eight_times_the_words_cost_under_sixteen_times_the_time(self, name):
        if name == "pronoun-gender":
            # each pair starts a new entity
            def pair(k):
                return (("dog\tdog\tNOUN\t_\tGender=Fem", "_"),
                        ("she\tshe\tPRON\t_\tGender=Fem", "_"))
        else:
            # each pair merges two one-mention entities
            def pair(k):
                word = f"Name{k}\tname{k}\tPROPN\t_\t_"
                return (word, f"Entity=(e{2 * k + 1})"), (word, f"Entity=(e{2 * k + 2})")
        # the small case is timed over as many words as the large one: a
        # timing of a few milliseconds varies by a factor of two on a busy host
        small, large = least_cpu_seconds([(pairs_document(1000, pair), BASELINE_RULES[name], 8),
                                          (pairs_document(8000, pair), BASELINE_RULES[name], 1)])
        assert large < 16 * small, (small, large)
