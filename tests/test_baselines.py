from corefeval.baselines import (
    pronoun_gender_link_layer,
    propn_lemma_merge_layer,
    simple_rule_based_layer,
)
from corefeval.cli import validate_path
from corefeval.conllu import doc_to_text, parse_text
from corefeval.model import build_coref_layer
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
        e.eid: {tuple((n.sent_index, n.id) for n in m.nodes) for m in e.mentions}
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
