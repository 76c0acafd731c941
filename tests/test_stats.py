import random

import pytest

import gen
import oracles
from corefeval.conllu import parse_text
from corefeval.model import build_coref_layer
from corefeval.stats import entity_stats, mention_detail_stats, mention_stats


def layers_from(text):
    return [build_coref_layer(d) for d in parse_text(text)]


def flat_line(tid, misc="_", head="0", upos="NOUN"):
    return "\t".join([tid, f"w{tid}", f"l{tid}", upos, "_", "_", head, "dep", "_", misc])


class TestEntityStats:
    def test_per_1k_rate(self):
        skel = gen.random_skeleton(random.Random(0), "d", n_sentences=(3, 3),
                                   n_words=(8, 8), p_empty=0.0)
        mentions = [gen.MentionSpec(f"e{i}", (i,)) for i in range(6)]
        row = entity_stats(layers_from(gen.conllu_text(skel, mentions)))
        assert row["count"] == 6
        assert row["per_1k"] == pytest.approx(1000.0 * 6 / 24)

    def test_all_singletons(self):
        skel = gen.random_skeleton(random.Random(1), "d", p_empty=0.0)
        mentions = [gen.MentionSpec(f"e{i}", (i,)) for i in range(3)]
        row = entity_stats(layers_from(gen.conllu_text(skel, mentions)))
        assert row["avg_len"] == 1.0
        assert row["len_1"] == 100.0
        assert row["max_len"] == 1

    def test_histogram_matches_direct_enumeration(self, rng):
        layers = []
        for seed in range(12):
            sub = random.Random(seed)
            _, _, text = gen.random_document(sub, f"d{seed}", n_entities=(1, 5),
                                             n_mentions=(1, 6))
            layers.extend(layers_from(text))
        row = entity_stats(layers)
        lengths = [len(e.mentions) for layer in layers for e in layer.entities]
        assert row["count"] == len(lengths)
        assert row["max_len"] == max(lengths)
        assert row["avg_len"] == pytest.approx(sum(lengths) / len(lengths))
        for bucket in (1, 2, 3, 4):
            expected = 100.0 * lengths.count(bucket) / len(lengths)
            assert row[f"len_{bucket}"] == pytest.approx(expected)
        big = sum(1 for n in lengths if n >= 5)
        assert row["len_5plus"] == pytest.approx(100.0 * big / len(lengths))
        total = sum(row[k] for k in ("len_1", "len_2", "len_3", "len_4", "len_5plus"))
        assert total == pytest.approx(100.0)


class TestMentionStats:
    def test_zero_mention_has_length_zero(self):
        text = ("# newdoc id = d\n" + flat_line("1") + "\n"
                + "1.1\t_\t_\tPRON\t_\t_\t_\t_\t1:nsubj\tEntity=(e1)\n"
                + "2\tw\tl\tNOUN\t_\t_\t1\tdep\t_\tEntity=(e1)\n\n")
        row = mention_stats(layers_from(text))
        assert row["len_0"] == 50.0 and row["len_1"] == 50.0

    def test_mixed_mention_counts_surface_only(self):
        text = ("# newdoc id = d\n"
                + flat_line("1", "Entity=(e1") + "\n"
                + "1.1\t_\t_\tPRON\t_\t_\t_\t_\t1:nsubj\t_\n"
                + flat_line("2", "Entity=e1)", "1") + "\n"
                + flat_line("3", "Entity=(e1)", "1") + "\n\n")
        row = mention_stats(layers_from(text))
        assert row["max_len"] == 2  # one empty node inside a 3-node span

    def test_singleton_filter(self, rng):
        _, _, text = gen.random_document(rng, "d", n_entities=(2, 5))
        layers = layers_from(text)
        full = mention_stats(layers, include_singletons=True)
        non_single = mention_stats(layers, include_singletons=False)
        singles = sum(1 for layer in layers
                      for e in layer.entities if e.is_singleton)
        assert full["count"] - non_single["count"] == singles

    def test_totals_match_enumeration(self, rng):
        _, _, text = gen.random_document(rng, "d", n_entities=(2, 4),
                                         n_mentions=(1, 5))
        layers = layers_from(text)
        row = mention_stats(layers)
        lengths = [m.surface_length for layer in layers
                   for e in layer.entities for m in e.mentions]
        assert row["count"] == len(lengths)
        assert row["avg_len"] == pytest.approx(sum(lengths) / len(lengths))


class TestMentionDetailStats:
    def test_connected_subtree_has_no_flags(self):
        text = ("# newdoc id = d\n"
                + flat_line("1", "Entity=(e1") + "\n"
                + flat_line("2", "Entity=e1)", "1") + "\n\n")
        row = mention_detail_stats(layers_from(text))
        assert (row["w_empty"], row["w_gap"], row["non_tree"]) == (0.0, 0.0, 0.0)

    def test_discontinuous_mention_has_gap(self):
        text = ("# newdoc id = d\n"
                + flat_line("1", "Entity=(e1[1/2])") + "\n"
                + flat_line("2", head="1") + "\n"
                + flat_line("3", "Entity=(e1[2/2])", "1") + "\n\n")
        row = mention_detail_stats(layers_from(text))
        assert row["w_gap"] == 100.0

    def test_non_tree_verified_by_connectivity_oracle(self, rng):
        for seed in range(20):
            sub = random.Random(seed)
            _, _, text = gen.random_document(sub, f"d{seed}", p_discontinuous=0.4)
            layers = layers_from(text)
            mentions = [m for layer in layers
                        for e in layer.entities for m in e.mentions]
            if not mentions:
                continue
            row = mention_detail_stats(layers)
            parent_map = {}
            for layer in layers:
                parent_map.update(enumerate(oracles.tree_parents(layer.doc.lines)))
            disconnected = sum(
                1 for m in mentions
                if not oracles.connected_in_tree(m.positions, parent_map.get))
            assert row["non_tree"] == pytest.approx(
                100.0 * disconnected / len(mentions)), f"seed {seed}"

    def test_upos_distribution_sums_to_100(self, rng):
        _, _, text = gen.random_document(rng, "d", n_entities=(2, 4))
        row = mention_detail_stats(layers_from(text))
        upos_cols = ("noun", "pron", "propn", "det", "adj", "verb", "adv",
                     "num", "other")
        assert sum(row[c] for c in upos_cols) == pytest.approx(100.0)

    def test_zero_mentions_count_as_w_empty(self, fixtures_dir):
        layers = layers_from((fixtures_dir / "zeros.conllu").read_text())
        mentions = [m for layer in layers
                    for e in layer.entities for m in e.mentions]
        zeros = sum(1 for m in mentions if m.is_zero)
        row = mention_detail_stats(layers)
        assert row["w_empty"] >= 100.0 * zeros / len(mentions)
