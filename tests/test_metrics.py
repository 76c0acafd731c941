import dataclasses
import itertools
from fractions import Fraction
import json
import pickle
import random

import pytest

import gen
import oracles
from corefeval import metrics
from corefeval.align import align_mentions
from corefeval.cli import main
from corefeval.conllu import parse_text
from corefeval.errors import DocumentPairError
from corefeval.metrics import (
    EvalOptions,
    ZeroScoreCounts,
    bcub_counts,
    blanc_counts,
    blanc_prf,
    ceafe_counts,
    check_same_nodes,
    counts_to_prfs,
    evaluate,
    lea_counts,
    mor_counts,
    muc_counts,
    pair_documents,
    prf,
    relabeled_clusters,
    score_document_pair,
    zero_link_counts,
)
from corefeval.model import build_coref_layer
from corefeval.transforms import merge_same_span_layer, remove_singletons_layer, strip_entities

APPROX = 1e-9


def clusters(*groups):
    return [frozenset(g) for g in groups]


class TestPrfConventions:
    def test_zero_denominators_give_zero(self):
        assert prf(0, 0, 0, 0) == (0.0, 0.0, 0.0)

    def test_f1_harmonic_mean(self):
        result = prf(1, 2, 1, 1)
        assert result.f1 == pytest.approx(2 * 0.5 * 1.0 / 1.5)


class TestMucHandCases:
    def test_identity(self):
        key = clusters({0, 1, 2})
        counts = muc_counts(*oracles.contingency(key, key))
        assert counts_to_prfs({"muc": counts}, ("muc",))["muc"].f1 == 1.0

    def test_split_response(self):
        # key {a,b,c}; response {a,b} + {c}: recall 1/2, precision 1/1
        key = clusters({0, 1, 2})
        resp = clusters({0, 1}, {2})
        rn, rd, pn, pd = muc_counts(*oracles.contingency(key, resp))
        assert (rn / rd, pn / pd) == (0.5, 1.0)
        scores = counts_to_prfs({"muc": (rn, rd, pn, pd)}, ("muc",))
        assert scores["muc"].f1 == pytest.approx(2 / 3)

    def test_disjoint(self):
        key = clusters({0, 1})
        resp = clusters({5, 6})
        counts = muc_counts(*oracles.contingency(key, resp))
        assert counts_to_prfs({"muc": counts}, ("muc",))["muc"] == (0.0, 0.0, 0.0)


class TestBcubHandCases:
    def test_even_split(self):
        key = clusters({0, 1, 2, 3})
        resp = clusters({0, 1}, {2, 3})
        rn, rd, pn, pd = bcub_counts(*oracles.contingency(key, resp))
        assert rn / rd == pytest.approx(0.5)
        assert pn / pd == pytest.approx(1.0)

    def test_spurious_mention_hits_precision(self):
        key = clusters({0, 1})
        resp = clusters({0, 1, 99})
        rn, rd, pn, pd = bcub_counts(*oracles.contingency(key, resp))
        assert rn / rd == pytest.approx(1.0)
        assert pn / pd == pytest.approx((2 / 3 + 2 / 3 + 0) / 3)


class TestCeafeHandCases:
    def test_split_singletons(self):
        phi, nk, nr = ceafe_counts(*oracles.contingency(clusters({0, 1}), clusters({0}, {1})))
        assert phi == pytest.approx(2 / 3)
        assert (nk, nr) == (1, 2)

    def test_mixed_single_and_multi_edge_components(self):
        # components: key 0 split in two; keys 1 and 2 one edge each; keys
        # 3 and 4 share response 4, and key 3 also overlaps response 5
        key = clusters({0, 1}, {2, 3}, {4, 5, 6}, {7, 8}, {9})
        resp = clusters({0}, {1}, {2, 3}, {4, 5}, {7, 9}, {8})
        phi, nk, nr = ceafe_counts(*oracles.contingency(key, resp))
        r, p, _ = oracles.perm_ceafe(key, resp)
        assert (nk, nr) == (5, 6)
        assert phi / nk == pytest.approx(r, abs=APPROX)
        assert phi / nr == pytest.approx(p, abs=APPROX)

    def test_matches_permutation_search_up_to_seven(self):
        for seed in range(40):
            sub = random.Random(seed)
            universe = list(range(12))
            def draw():
                out = []
                pool = list(universe)
                for _ in range(sub.randint(1, 5)):
                    if not pool:
                        break
                    take = sub.sample(pool, min(len(pool), sub.randint(1, 4)))
                    out.append(frozenset(take))
                    pool = [x for x in pool if x not in take]
                return out
            key, resp = draw(), draw()
            phi, nk, nr = ceafe_counts(*oracles.contingency(key, resp))
            r, p, _ = oracles.perm_ceafe(key, resp)
            assert phi / nk == pytest.approx(r, abs=APPROX)
            assert phi / nr == pytest.approx(p, abs=APPROX)


class TestBlancHandCases:
    def test_single_entity_doc_reduces_to_coref_class(self):
        key = clusters({0, 1, 2})
        counts = blanc_counts(*oracles.contingency(key, key))
        assert counts[3:] == (0, 0, 0)
        assert blanc_prf(*counts) == (1.0, 1.0, 1.0)

    def test_class_empty_on_one_side_scores_zero(self):
        key = clusters({0, 1}, {2})   # has non-coref links
        resp = clusters({0, 1, 2})    # none
        result = blanc_prf(*blanc_counts(*oracles.contingency(key, resp)))
        coref = prf(1, 1, 1, 3)
        assert result.recall == pytest.approx((coref.recall + 0) / 2)


class TestLeaHandCases:
    def test_split_with_singletons_excluded(self):
        # spec-style example: singleton response entity already removed
        key = clusters({0, 1, 2})
        resp = clusters({0, 1})
        rn, rd, pn, pd = lea_counts(*oracles.contingency(key, resp))
        assert rn / rd == pytest.approx(1 / 3)
        assert pn / pd == pytest.approx(1.0)

    def test_all_singletons_identity_with_self_links(self):
        key = clusters({0}, {1}, {2})
        rn, rd, pn, pd = lea_counts(*oracles.contingency(key, key))
        assert (rn / rd, pn / pd) == (1.0, 1.0)

    def test_singleton_against_bigger_cluster_unresolved(self):
        key = clusters({0})
        resp = clusters({0, 1})
        rn, rd, _, _ = lea_counts(*oracles.contingency(key, resp))
        assert rn == 0.0


class TestMorHandCases:
    def test_partial_overlap(self):
        key = [frozenset({0, 1, 2}), frozenset({5})]
        resp = [frozenset({1, 2})]
        import corefeval.align as align_mod
        overlap = align_mod.max_total_overlap(key, resp)
        assert overlap == 2

    def test_head_only_response_has_perfect_precision(self):
        skel, specs, text = gen.random_document(
            random.Random(5), "d", treelet_only=True, n_entities=(2, 3),
            n_mentions=(2, 3))
        heads_only = gen.reduce_to_span_heads(specs, skel)
        key = build_coref_layer(parse_text(text)[0]).sorted_mentions()
        resp = build_coref_layer(
            parse_text(gen.conllu_text(skel, heads_only))[0]).sorted_mentions()
        ov, kl, rl = mor_counts(key, resp)
        assert ov == rl  # every response node inside a distinct key mention
        assert counts_to_prfs({"mor": (ov, kl, rl)}, ("mor",))["mor"].precision == 1.0


def _one_word_mentions(entities: dict[str, str]) -> str:
    """One document of one sentence of the nine words a..i, each word in
    `entities` a one-word mention of the entity it maps to."""
    lines = ["# newdoc id = worked"]
    for n, word in enumerate("abcdefghi", start=1):
        misc = f"Entity=({entities[word]})" if word in entities else "_"
        lines.append("\t".join([str(n), word, word, "NOUN", "_", "_", "0" if n == 1 else "1",
                                 "root" if n == 1 else "dep", "_", misc]))
    return "\n".join(lines) + "\n\n"


class _WorkedExample:
    """A key and a response of one-word mentions, scored under `OPTS`, with
    the counts and (recall, precision, F1) worked by hand as fractions."""

    OPTS = EvalOptions(match="exact")
    CONLL_F1: Fraction | None = None

    def test_counts(self):
        counts = score_document_pair(parse_text(self.KEY)[0], parse_text(self.RESPONSE)[0],
                                     self.OPTS)
        for name, expected in self.COUNTS.items():
            assert counts[name] == pytest.approx(tuple(map(float, expected)), rel=1e-12), name
        scores = counts_to_prfs(counts, metrics.ALL_METRICS)
        for name, expected in self.SCORES.items():
            assert tuple(scores[name]) == pytest.approx(tuple(map(float, expected)),
                                                        rel=1e-12), name
        if self.CONLL_F1 is not None:
            assert scores["conll"].f1 == pytest.approx(float(self.CONLL_F1), rel=1e-12)


class TestWorkedExample(_WorkedExample):
    """Key {a,b,c} {d,e,f,g} against response {a,b} {c,d} {f,g,h,i}, exact
    match.  Every expected value below is worked by hand from the published
    definitions (Pradhan et al., ACL 2014, for MUC, B³, CEAF-e, BLANC and
    the CoNLL score; Moosavi & Strube, ACL 2016, for LEA), as fractions:

    - MUC: a key entity K costs |K| - 1 links and keeps |K| minus the number
      of parts the response cuts it into, a key mention missing from the
      response being a part of its own.  {a,b,c} is cut into {a,b} {c},
      {d,e,f,g} into {d} {e} {f,g}: recall (1 + 1) / (2 + 3).  Precision
      cuts the response by the key: {a,b} stays whole, {c,d} is cut in two,
      {f,g,h,i} into {f,g} {h} {i}: (1 + 0 + 1) / (1 + 1 + 3).
    - B³: recall sums |K∩R|² / |K| over key entities K and response
      entities R, over the 7 key mentions: (2² + 1²) / 3 + (1² + 2²) / 4 =
      35/12; precision sums |K∩R|² / |R| over the 8 response mentions:
      2²/2 + (1² + 1²)/2 + 2²/4 = 4.
    - CEAF-e: φ(K, R) = 2|K∩R| / (|K| + |R|), so φ({a,b,c}, {a,b}) = 4/5,
      φ({a,b,c}, {c,d}) = 2/5, φ({d,e,f,g}, {c,d}) = 1/3 and
      φ({d,e,f,g}, {f,g,h,i}) = 1/2; the best one-to-one alignment takes
      4/5 + 1/2 = 13/10, over 2 key and 3 response entities.
    - BLANC: coreference links, key 3 + 6 = 9, response 1 + 1 + 6 = 8, both
      {a,b} {f,g} = 2; non-coreference links, key 3·4 = 12, response
      2·2 + 2·4 + 2·4 = 20, both the 3·3 pairs of {a,b,c}×{d,f,g} apart in
      the response, all but c-d: 8.  R, P and F are the means of the two
      classes' values.
    - LEA: a key entity K weighs |K| and is resolved by the share of its
      |K|(|K|-1)/2 links in one response entity: 3·(1/3) + 4·(1/6) = 5/3 of
      7; a response entity likewise, 2·1 + 2·0 + 4·(1/6) = 8/3 of 8.
    """

    KEY = _one_word_mentions({"a": "e1", "b": "e1", "c": "e1",
                              "d": "e2", "e": "e2", "f": "e2", "g": "e2"})
    RESPONSE = _one_word_mentions({"a": "r1", "b": "r1", "c": "r2", "d": "r2",
                                   "f": "r3", "g": "r3", "h": "r3", "i": "r3"})
    F = Fraction
    COUNTS = {
        "muc": (2, 5, 2, 5),
        "bcub": (F(35, 12), 7, 4, 8),
        "ceafe": (F(13, 10), 2, 3),
        "blanc": (2, 9, 8, 8, 12, 20),
        "lea": (F(5, 3), 7, F(8, 3), 8),
    }
    # (recall, precision, F1)
    SCORES = {
        "muc": (F(2, 5), F(2, 5), F(2, 5)),
        "bcub": (F(5, 12), F(1, 2), F(5, 11)),
        "ceafe": (F(13, 20), F(13, 30), F(13, 25)),
        # coreference (2/9, 1/4, 4/17), non-coreference (2/3, 2/5, 1/2)
        "blanc": (F(4, 9), F(13, 40), F(25, 68)),
        "lea": (F(5, 21), F(1, 3), F(5, 18)),
    }
    # the mean of the MUC, B³ and CEAF-e F1: (110 + 125 + 143) / 275 / 3
    CONLL_F1 = F(126, 275)

    def test_cli_json(self, tmp_path, capsys):
        key, resp = tmp_path / "key.conllu", tmp_path / "response.conllu"
        key.write_text(self.KEY)
        resp.write_text(self.RESPONSE)
        assert main(["score", str(key), str(resp), "--match", "exact", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        expected = [(name, field, value) for name, values in self.SCORES.items()
                    for field, value in zip(("r", "p", "f1"), values)]
        expected.append(("conll", "f1", self.CONLL_F1))
        for scores in (report["datasets"]["key"], report["macro"]):
            for name, field, value in expected:  # percentages, rounded to two places
                assert abs(scores[name][field] - 100 * value) <= Fraction(1, 200), (name, field)


class TestWorkedCeafeOptimalNotGreedy(_WorkedExample):
    """Key {a,b,c} {d,e} against response {a,b,d} {c,f}: a case where
    CEAF-e's optimal entity mapping (Luo, EMNLP 2005) is not the greedy
    one.  φ({a,b,c}, {a,b,d}) = 2·2/6 = 2/3 is the largest similarity, so a
    greedy mapping takes it first and leaves {d,e} the response entity
    {c,f}, φ = 0: 2/3 in all.  The optimal mapping takes
    φ({a,b,c}, {c,f}) + φ({d,e}, {a,b,d}) = 2/5 + 2/5 = 4/5, over 2 key and
    2 response entities."""

    KEY = _one_word_mentions({"a": "e1", "b": "e1", "c": "e1", "d": "e2", "e": "e2"})
    RESPONSE = _one_word_mentions({"a": "r1", "b": "r1", "d": "r1", "c": "r2", "f": "r2"})
    F = Fraction
    COUNTS = {"ceafe": (F(4, 5), 2, 2)}
    SCORES = {"ceafe": (F(2, 5), F(2, 5), F(2, 5))}


class TestWorkedBlancKeySingletons(_WorkedExample):
    """BLANC (Recasens & Hovy, 2011) where only the key has singletons: key
    {a,b,c} {d} {e} against response {a,b,c} {d,e}, singletons kept.  Of
    the 10 pairs of the five words, the key links a-b, a-c, b-c and leaves
    7 pairs apart; the response links those three and d-e, and leaves the
    6 pairs between {a,b,c} and {d,e} apart, all of them apart in the key
    too.  Coreference: R 3/3, P 3/4, F 6/7; non-coreference: R 6/7, P 6/6,
    F 12/13.  BLANC is their mean: R 13/14, P 7/8, F (6/7 + 12/13) / 2 =
    81/91."""

    OPTS = EvalOptions(match="exact", keep_singletons=True)
    KEY = _one_word_mentions({"a": "e1", "b": "e1", "c": "e1", "d": "e2", "e": "e3"})
    RESPONSE = _one_word_mentions({"a": "r1", "b": "r1", "c": "r1", "d": "r2", "e": "r2"})
    F = Fraction
    COUNTS = {"blanc": (3, 3, 4, 6, 7, 6)}
    SCORES = {"blanc": (F(13, 14), F(7, 8), F(81, 91))}


class TestWorkedBlancKeySingletonsRemoved(TestWorkedBlancKeySingletons):
    """The same pair with singletons removed: the key keeps {a,b,c} alone,
    so it has no non-coreference link, while the response's d and e, now
    twinless, still make 10 - 4 = 6 of them, none shared.  A class with
    links on one side only counts with R = P = F = 0, so the coreference
    class (R 1, P 3/4, F 6/7) is averaged with zeros: R 1/2, P 3/8,
    F 3/7."""

    OPTS = EvalOptions(match="exact")
    F = Fraction
    COUNTS = {"blanc": (3, 3, 4, 0, 0, 6)}
    SCORES = {"blanc": (F(1, 2), F(3, 8), F(3, 7))}


class TestWorkedTwinlessMentions(_WorkedExample):
    """Predicted mentions with twinless mentions on both sides, the setting
    of Cai & Strube (SIGDIAL 2010): key {a,b,c} {d,e} against response
    {a,b,f} {d,e,g,h}, so c has no response twin and f, g, h no key twin.
    The values follow the definitions as the reference scorer applies them
    to predicted mentions (Pradhan et al., ACL 2014; BLANC after Luo et
    al., ACL 2014), with no mention added or removed:

    - MUC: {a,b,c} is cut into {a,b} {c}, {d,e} stays whole: recall
      (1 + 1) / (2 + 1) = 2/3; {a,b,f} is cut into {a,b} {f}, {d,e,g,h}
      into {d,e} {g} {h}: precision (1 + 1) / (2 + 3) = 2/5, F1 1/2.
    - B³: recall (2²/3 + 2²/2) / 5 = 2/3, precision (2²/3 + 2²/4) / 7 =
      1/3, F1 4/9.
    - CEAF-e: φ({a,b,c}, {a,b,f}) = 4/6 and φ({d,e}, {d,e,g,h}) = 4/6, no
      other pair shares a mention: 4/3 over 2 key and 2 response entities.
    - LEA: recall (3·(1/3) + 2·(1/1)) / 5 = 3/5, precision
      (3·(1/3) + 4·(1/6)) / 7 = 5/21, F1 15/44.
    - BLANC: the key has 4 coreference links of its 10 pairs, the response
      9 of its 21; a-b and d-e are shared, and a-d, a-e, b-d and b-e are
      apart on both sides.  Coreference R 2/4, P 2/9, F 4/13;
      non-coreference R 4/6, P 4/12, F 4/9.
    - MOR: 4 of the 5 key and 7 response nodes align.
    - CoNLL: (1/2 + 4/9 + 2/3) / 3 = 29/54.
    """

    KEY = _one_word_mentions({"a": "e1", "b": "e1", "c": "e1", "d": "e2", "e": "e2"})
    RESPONSE = _one_word_mentions({"a": "r1", "b": "r1", "f": "r1",
                                   "d": "r2", "e": "r2", "g": "r2", "h": "r2"})
    F = Fraction
    COUNTS = {
        "muc": (2, 3, 2, 5),
        "bcub": (F(10, 3), 5, F(7, 3), 7),
        "ceafe": (F(4, 3), 2, 2),
        "blanc": (2, 4, 9, 4, 6, 12),
        "lea": (3, 5, F(5, 3), 7),
        "mor": (4, 5, 7),
    }
    SCORES = {
        "muc": (F(2, 3), F(2, 5), F(1, 2)),
        "bcub": (F(2, 3), F(1, 3), F(4, 9)),
        "ceafe": (F(2, 3), F(2, 3), F(2, 3)),
        "blanc": (F(7, 12), F(5, 18), F(44, 117)),
        "lea": (F(3, 5), F(5, 21), F(15, 44)),
        "mor": (F(4, 5), F(4, 7), F(2, 3)),
    }
    CONLL_F1 = F(29, 54)


def _layer_pair(key_text, resp_text, keep_singletons=True):
    key = build_coref_layer(parse_text(key_text)[0])
    resp = build_coref_layer(parse_text(resp_text)[0])
    if not keep_singletons:
        remove_singletons_layer(key)
        remove_singletons_layer(resp)
    return key, resp


def _random_layer_pairs():
    """150 seeded random key/response layer pairs, each with and without
    singletons and under `exact` and `partial`: (context, key, response,
    policy)."""
    for seed in range(150):
        sub = random.Random(seed)
        skel = gen.random_skeleton(sub, f"d{seed}", n_sentences=(1, 3))
        key_specs = gen.random_mentions(sub, skel, n_entities=(1, 4),
                                        n_mentions=(1, 4))
        resp_specs = gen.perturb_mentions(sub, key_specs, skel)
        key_text = gen.conllu_text(skel, key_specs)
        resp_text = gen.conllu_text(skel, resp_specs)
        for keep in (True, False):
            for policy in ("exact", "partial"):
                key, resp = _layer_pair(key_text, resp_text, keep)
                yield f"seed {seed} {policy} keep={keep}", key, resp, policy


def _oracle_clusters(key, resp, policy):
    """The reference clusterings of two layers, numbered over the package's
    alignment."""
    pairs = align_mentions(key.sorted_mentions(), resp.sorted_mentions(), policy).pairs
    return oracles.relabel(key, resp, pairs)


class TestMetricOracleEquivalence:
    def test_all_entity_metrics_match_oracles(self):
        checked = 0
        for context, key, resp, policy in _random_layer_pairs():
            sides = relabeled_clusters(key, resp, policy)
            _assert_oracle_match(sides, *_oracle_clusters(key, resp, policy), context)
            checked += 1
        assert checked >= 400

    def test_table_sides_match_the_oracle_table(self):
        # the package counts the table from the aligned pairs by entity id,
        # the oracle from |K∩R| of the reference clusterings
        checked = 0
        for context, key, resp, policy in _random_layer_pairs():
            got = relabeled_clusters(key, resp, policy)
            expected = oracles.contingency(*_oracle_clusters(key, resp, policy))
            for side, (sizes, rows, others), (want_sizes, want_rows, want_others) in zip(
                    ("key", "response"), got, expected):
                assert (sizes, others) == (want_sizes, want_others), f"{side} sizes {context}"
                assert rows == want_rows, f"{side} rows {context}"  # each row as a dict
            checked += 1
        assert checked >= 400

    def test_mor_matches_permutation_oracle(self):
        for seed in range(60):
            sub = random.Random(seed)
            skel = gen.random_skeleton(sub, f"d{seed}", n_sentences=(1, 2),
                                       n_words=(3, 7))
            key_specs = gen.random_mentions(sub, skel, n_entities=(1, 2),
                                            n_mentions=(1, 3))
            resp_specs = gen.perturb_mentions(sub, key_specs, skel)
            key, resp = _layer_pair(gen.conllu_text(skel, key_specs),
                                    gen.conllu_text(skel, resp_specs))
            key_ms = key.sorted_mentions()
            resp_ms = resp.sorted_mentions()
            ov, kl, rl = mor_counts(key_ms, resp_ms)
            r, p, _ = oracles.perm_mor([m.position_set for m in key_ms],
                                       [m.position_set for m in resp_ms])
            got = counts_to_prfs({"mor": (ov, kl, rl)}, ("mor",))["mor"]
            assert got.recall == pytest.approx(r, abs=APPROX), f"seed {seed}"
            assert got.precision == pytest.approx(p, abs=APPROX), f"seed {seed}"


def _assert_oracle_match(sides, kc, rc, context):
    """The counters on the package's table `sides` against the oracles on
    the reference clusterings `kc` and `rc`."""
    got = {
        "muc": muc_counts(*sides),
        "bcub": bcub_counts(*sides),
        "ceafe": ceafe_counts(*sides),
        "blanc": blanc_counts(*sides),
        "lea": lea_counts(*sides),
    }
    scores = counts_to_prfs(got, tuple(got))
    expected = {
        "muc": oracles.naive_muc(kc, rc),
        "bcub": oracles.naive_bcub(kc, rc),
        "ceafe": oracles.perm_ceafe(kc, rc),
        "blanc": oracles.naive_blanc(kc, rc),
        "lea": oracles.naive_lea(kc, rc),
    }
    for name, (r, p, f) in expected.items():
        assert scores[name].recall == pytest.approx(r, abs=APPROX), f"{name} {context}"
        assert scores[name].precision == pytest.approx(p, abs=APPROX), f"{name} {context}"
        assert scores[name].f1 == pytest.approx(f, abs=APPROX), f"{name} {context}"


ZERO_ONLY = EvalOptions(metrics=("zero",), keep_singletons=True)


def _zeros_1(fixtures_dir) -> str:
    """The first document of zeros.conllu: sentences of 3, 5 and 5 nodes,
    with empty nodes 0.1, 0.1 and 3.1."""
    text = (fixtures_dir / "zeros.conllu").read_text()
    return text[:text.index("# newdoc id = zeros-2")]


class TestCheckSameNodes:
    """The three `DocumentPairError` messages, in full."""

    @pytest.mark.parametrize("edit,message", [
        (lambda t: t[:t.index("# sent_id = z1-s3")],
         "document zeros-1: sentence counts differ (3 vs 2)"),
        (lambda t: t.replace("3.1\t_\t_\tADV\t_\t_\t_\t_\t3:advmod\t_\n", ""),
         "document zeros-1: node counts differ (13 vs 12)"),
        (lambda t: t.replace("2\tcely\tcely", "2\tcela\tcely"),
         "document zeros-1: tokens differ at sentence 2, node 2 ('cely' vs"
         " sentence 2, node 2 'cela')"),
        (lambda t: t.replace("0.1\t_\t_\tPRON\t_\t_\t_\t_\t1:exp",
                             "0.2\t_\t_\tPRON\t_\t_\t_\t_\t1:exp"),
         "document zeros-1: tokens differ at sentence 2, node 0.1 ('_' vs"
         " sentence 2, node 0.2 '_')"),
        # the same nodes, but a sentence without nodes moved: equal lines
        # in different sentences differ
        (lambda t: t.replace("# sent_id = z1-s3", "# sent_id = none\n\n# sent_id = z1-s3"),
         "document zeros-1: tokens differ at sentence 3, node 1 ('Ten' vs"
         " sentence 4, node 1 'Ten')"),
    ])
    def test_message(self, fixtures_dir, edit, message):
        key_text = _zeros_1(fixtures_dir)
        resp_text = edit(key_text)
        assert resp_text != key_text
        if "sent_id = none" in resp_text:  # both sides get the sentence
            key_text += "# sent_id = none\n\n"
        key, resp = _layer_pair(key_text, resp_text)
        with pytest.raises(DocumentPairError) as info:
            check_same_nodes(key, resp)
        assert str(info.value) == message

    def test_same_tokens_pass(self, fixtures_dir):
        key_text = _zeros_1(fixtures_dir)
        resp_text = key_text.replace("Entity=(e2\n", "_\n").replace("Entity=e2)\n", "_\n")
        check_same_nodes(*_layer_pair(key_text, resp_text))


class TestZeroScore:
    def test_identity_single_anaphoric_zero(self, fixtures_dir):
        docs = parse_text((fixtures_dir / "zeros.conllu").read_text())
        for doc in docs:
            counts = ZeroScoreCounts(*score_document_pair(doc, doc, ZERO_ONLY)["zero"])
            assert counts.fp == counts.fn == counts.wl == 0
        counts = ZeroScoreCounts(*score_document_pair(docs[0], docs[0], ZERO_ONLY)["zero"])
        assert counts.tp >= 1
        assert counts_to_prfs({"zero": counts}, ("zero",))["zero"] == (1.0, 1.0, 1.0)

    def test_differing_universes_rejected(self, fixtures_dir):
        docs = parse_text((fixtures_dir / "zeros.conllu").read_text())
        with pytest.raises(DocumentPairError):
            score_document_pair(docs[0], docs[1], ZERO_ONLY)

    def test_random_against_naive_definition(self):
        # the second input is zero-heavy: no cap on zeros, so an entity pair
        # holds many of them, and entities that share a span are merged, so
        # that one entity's mentions overlap and its node orders interleave
        for seed, (p_empty, n_entities, n_mentions, p_zero, merge) in itertools.product(
                range(200), [(0.35, (1, 4), (1, 4), 0.5, False),
                             (0.6, (3, 6), (2, 7), 0.8, True)]):
            sub = random.Random(seed)
            skel = gen.random_skeleton(sub, f"d{seed}", n_sentences=(2, 4),
                                       p_empty=p_empty)
            key_specs = gen.random_mentions(sub, skel, n_entities=n_entities,
                                            n_mentions=n_mentions, p_zero=p_zero)
            resp_specs = gen.perturb_mentions(sub, key_specs, skel,
                                              p_shrink=0.0)
            key, resp = _layer_pair(gen.conllu_text(skel, key_specs),
                                    gen.conllu_text(skel, resp_specs))
            if merge:
                merge_same_span_layer(key)
                merge_same_span_layer(resp)
            got = zero_link_counts(key, resp)
            expected = oracles.naive_zero_counts(_entities_data(key),
                                                 _entities_data(resp))
            assert got == expected, f"seed {seed}"
            tp, wl, fp, fn = got
            assert tp + wl + fn == _anaphoric_zeros(key), f"seed {seed}"
            assert tp + wl + fp == _anaphoric_zeros(resp), f"seed {seed}"

    def test_long_chain_builds_one_dominance_list(self, tmp_path, monkeypatch):
        # one entity, each sentence an empty node then a word: every zero
        # but the first is anaphoric and tp.  The work is counted, not
        # timed: one first-order map per entity and one dominance list per
        # entity pair, however many zeros the pair holds
        m = 4000
        sentence = ("0.1\t_\t_\tPRON\t_\t_\t_\t_\t1:nsubj\tEntity=(e1)\n"
                    "1\tw\tw\tNOUN\t_\t_\t0\troot\t_\tEntity=(e1)\n\n")
        path = tmp_path / "chain.conllu"
        path.write_text("# newdoc id = chain\n" + sentence * m)
        results: dict[str, list] = {}
        for name in ("zero_link_counts", "_first_orders", "_dominance"):
            def recorded(*args, fn=getattr(metrics, name), name=name):
                results.setdefault(name, []).append(fn(*args))
                return results[name][-1]
            monkeypatch.setattr(metrics, name, recorded)
        assert main(["score", str(path), str(path), "--metrics", "zero",
                     "--jobs", "1", "--format", "tsv"]) == 0
        assert results["zero_link_counts"] == [(m - 1, 0, 0, 0)]
        assert len(results["_first_orders"]) == 2
        assert len(results["_dominance"]) == 1


def _entities_data(layer):
    # eid-sorted so the oracle's duplicate-span pairing ties resolve like
    # the documented document-order-then-eid rule
    return [[(m.position_set, m.is_zero) for m in e.mentions]
            for e in sorted(layer.entities, key=lambda e: e.eid)]


def _anaphoric_zeros(layer):
    return sum(1 for e in layer.entities
               for i, m in enumerate(e.mentions) if i > 0 and m.is_zero)


class TestZeroSingletonInvariance:
    def test_zero_counts_ignore_the_singleton_flag(self):
        # a singleton entity holds no anaphoric zero and no preceding
        # mention, so on duplicate-free annotations the flag cannot move
        # the counts (with duplicate spans a singleton can steal the
        # counterpart pairing slot of a same-span mention)
        for seed in range(40):
            sub = random.Random(seed)
            skel = gen.random_skeleton(sub, f"d{seed}", n_sentences=(2, 4),
                                       p_empty=0.35)
            def dedupe(specs):
                seen, out = set(), []
                for m in specs:
                    if m.positions not in seen:
                        seen.add(m.positions)
                        out.append(m)
                return out
            key_specs = dedupe(gen.random_mentions(
                sub, skel, n_entities=(1, 4), n_mentions=(1, 4), p_zero=0.5))
            resp_specs = dedupe(gen.perturb_mentions(sub, key_specs, skel,
                                                     p_shrink=0.0))
            key_doc = parse_text(gen.conllu_text(skel, key_specs))[0]
            resp_doc = parse_text(gen.conllu_text(skel, resp_specs))[0]
            kept = score_document_pair(key_doc, resp_doc,
                                       EvalOptions(keep_singletons=True,
                                                   metrics=("zero",)))
            dropped = score_document_pair(key_doc, resp_doc,
                                          EvalOptions(metrics=("zero",)))
            assert kept["zero"] == dropped["zero"], f"seed {seed}"


def _key_response_pair(seed):
    """The skeleton, key and response mentions of one fixed seed."""
    rng = random.Random(seed)
    skel = gen.random_skeleton(rng, f"d{seed}", n_sentences=(1, 3))
    key_specs = gen.random_mentions(rng, skel, n_entities=(1, 4), n_mentions=(1, 4))
    return skel, key_specs, gen.perturb_mentions(rng, key_specs, skel)


def _swapped(field: str) -> str:
    for side, other in (("key_", "response_"), ("response_", "key_")):
        if field.startswith(side):
            return other + field[len(side):]
    return field


# for each metric whose count fields name a side, where each value of its
# count tuple goes when key and response are exchanged
_SWAPPED = {m.name: [m.fields.index(_swapped(f)) for f in m.fields]
            for m in metrics.METRICS if any(f.startswith("key_") for f in m.fields)}


class TestMetamorphicRelations:
    SEEDS = range(300)

    @pytest.mark.parametrize("keep", [False, True])
    def test_swapping_key_and_response_swaps_recall_and_precision(self, keep):
        opts = EvalOptions(match="exact", keep_singletons=keep, metrics=tuple(_SWAPPED))
        for seed in self.SEEDS:
            skel, key_specs, resp_specs = _key_response_pair(seed)
            key = parse_text(gen.conllu_text(skel, key_specs))[0]
            resp = parse_text(gen.conllu_text(skel, resp_specs))[0]
            forward = score_document_pair(key, resp, opts)
            backward = score_document_pair(resp, key, opts)
            for name, order in _SWAPPED.items():
                assert backward[name] == tuple(forward[name][i] for i in order), \
                    f"seed {seed} {name}"

    @pytest.mark.parametrize("match", ["partial", "head", "exact"])
    def test_response_singletons_on_uncovered_nodes_leave_muc_unchanged(self, match):
        # Moosavi & Strube (ACL 2016): MUC does not see singletons, so
        # response entities that resolve nothing cannot move it
        opts = EvalOptions(match=match, keep_singletons=True, metrics=("muc",))
        added = 0
        for seed in self.SEEDS:
            skel, key_specs, resp_specs = _key_response_pair(seed)
            covered = {i for m in key_specs + resp_specs for i in m.positions}
            extra = [gen.MentionSpec(f"x{i}", (i,)) for i in range(len(skel.nodes))
                     if i not in covered]
            added += len(extra)
            key = parse_text(gen.conllu_text(skel, key_specs))[0]
            resp = parse_text(gen.conllu_text(skel, resp_specs))[0]
            padded = parse_text(gen.conllu_text(skel, resp_specs + extra))[0]
            assert (score_document_pair(key, padded, opts)["muc"]
                    == score_document_pair(key, resp, opts)["muc"]), f"seed {seed}"
        assert added > len(self.SEEDS)

    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("match", ["partial", "exact"])
    def test_renaming_entity_ids_leaves_counts_unchanged(self, match, keep):
        # Ids break ties (the order of `sorted_mentions`, which feeds the
        # alignment's tie-break), so the relation holds only where no side
        # has two mentions on one node set
        opts = EvalOptions(match=match, keep_singletons=keep)
        checked = 0
        for seed in self.SEEDS:
            skel, key_specs, resp_specs = _key_response_pair(seed)
            if any(len({m.positions for m in specs}) < len(specs)
                   for specs in (key_specs, resp_specs)):
                continue
            key = parse_text(gen.conllu_text(skel, key_specs))[0]
            resp = parse_text(gen.conllu_text(skel, resp_specs))[0]
            # one renaming of both sides that reverses the order of the ids
            eids = sorted({m.eid for m in key_specs + resp_specs})
            names = {eid: f"r{len(eids) - k:03d}" for k, eid in enumerate(eids)}
            renamed = [parse_text(gen.conllu_text(
                skel, [dataclasses.replace(m, eid=names[m.eid]) for m in specs]))[0]
                for specs in (key_specs, resp_specs)]
            assert (score_document_pair(*renamed, opts)
                    == score_document_pair(key, resp, opts)), f"seed {seed}"
            checked += 1
        assert checked >= 150

    def test_reordering_response_documents_changes_no_row(self, tmp_path, capsys):
        # documents pair by id, and the ids of each file are unique
        rng = random.Random(8)
        key_parts, resp_parts = [], []
        for d in range(8):
            skel = gen.random_skeleton(rng, f"doc{d}", n_sentences=(2, 4))
            specs = gen.random_mentions(rng, skel, n_entities=(2, 5))
            key_parts.append(gen.conllu_text(skel, specs))
            resp_parts.append(gen.conllu_text(skel, gen.perturb_mentions(rng, specs, skel)))
        shuffled = resp_parts[:]
        rng.shuffle(shuffled)
        assert shuffled != resp_parts
        key, resp, moved = (tmp_path / f"{name}.conllu" for name in ("k", "r", "moved"))
        key.write_text("".join(key_parts))
        resp.write_text("".join(resp_parts))
        moved.write_text("".join(shuffled))
        reports = []
        for path in (resp, moved):
            for jobs in ("1", "2"):
                assert main(["score", str(key), str(path), "--per-doc", "--format", "json",
                             "--jobs", jobs]) == 0
                reports.append(json.loads(capsys.readouterr().out))
        first = reports[0]
        for report in reports[1:]:
            assert report["documents"] == first["documents"]
            for dataset, rows in report["datasets"].items():
                for metric, row in rows.items():
                    expected = first["datasets"][dataset][metric]
                    if metric in ("muc", "blanc", "mor", "zero"):
                        assert row == expected, metric
                    else:
                        # B3, LEA and CEAF-e sum float numerators, so their
                        # totals depend on the order of the documents until
                        # those sums are exact; CoNLL averages two of them
                        assert all(abs(row[k] - expected[k]) <= 0.01 for k in row), metric


class TestEvaluate:
    def test_macro_is_unweighted_mean(self, fixtures_dir):
        animals = parse_text((fixtures_dir / "animals.conllu").read_text())
        zeros = parse_text((fixtures_dir / "zeros.conllu").read_text())
        report = evaluate({"a": animals, "z": zeros}, {"a": animals, "z": zeros},
                          EvalOptions())
        for name, macro in report.macro.items():
            mean = sum(d[name].f1 for d in report.per_dataset.values()) / 2
            assert macro.f1 == pytest.approx(mean)

    @pytest.mark.parametrize("metrics, message", [
        (("muc", "conll", "muc"), "more than once: muc"), ((), "no metrics")])
    def test_duplicate_or_no_metrics_are_rejected(self, fixtures_dir, metrics, message):
        animals = parse_text((fixtures_dir / "animals.conllu").read_text())
        with pytest.raises(ValueError, match=message):
            evaluate({"a": animals}, {"a": animals}, EvalOptions(metrics=metrics))

    def test_options_are_a_checked_value(self):
        # workers started by spawn receive the options pickled
        opts = EvalOptions(match="exact", metrics=("muc",))
        assert repr(opts) == ("EvalOptions(match='exact', keep_singletons=False,"
                              " metrics=('muc',), upos_filter=None)")
        copy = pickle.loads(pickle.dumps(opts))
        assert type(copy) is EvalOptions and copy == opts and hash(copy) == hash(opts)
        assert EvalOptions() == EvalOptions("partial", False, metrics.ALL_METRICS, None)
        with pytest.raises(ValueError, match="^unknown match policy 'x'$"):
            EvalOptions("x")
        assert opts._replace(match="head") == EvalOptions("head", metrics=("muc",))
        with pytest.raises(ValueError, match="^no metrics given$"):
            opts._replace(metrics=())

    @pytest.mark.parametrize("tag", ["", " ", "\t"])
    def test_blank_upos_filter_is_rejected(self, tag):
        # a falsy filter would otherwise score unfiltered
        with pytest.raises(ValueError, match="names no tag"):
            EvalOptions(upos_filter=tag)

    def test_no_datasets_give_an_empty_report(self):
        report = evaluate({}, {}, EvalOptions())
        assert report.per_dataset == {} and report.macro == {}

    def test_conll_is_mean_of_three(self, fixtures_dir):
        animals = parse_text((fixtures_dir / "animals.conllu").read_text())
        perturbed = _perturbed_response(animals)
        report = evaluate({"a": animals}, {"a": perturbed}, EvalOptions())
        scores = report.per_dataset["a"]
        assert scores["conll"].f1 == pytest.approx(
            (scores["muc"].f1 + scores["bcub"].f1 + scores["ceafe"].f1) / 3)

    def test_missing_response_document_scores_empty(self, fixtures_dir, caplog):
        animals = parse_text((fixtures_dir / "animals.conllu").read_text())
        with caplog.at_level("WARNING", logger="corefeval"):
            report = evaluate({"a": animals}, {"a": animals[:1]}, EvalOptions())
        assert any("missing from the response" in r.message for r in caplog.records)
        full = evaluate({"a": animals}, {"a": animals}, EvalOptions())
        assert report.per_dataset["a"]["conll"].f1 < full.per_dataset["a"]["conll"].f1
        # as if the response held the key document without annotation
        stripped = evaluate({"a": animals}, {"a": [animals[0], strip_entities(animals[1])]},
                            EvalOptions(), per_doc=True)
        assert evaluate({"a": animals}, {"a": animals[:1]}, EvalOptions(),
                        per_doc=True) == stripped

    def test_generated_document_keys_avoid_real_ids(self):
        # "a" repeats, so documents pair by position; the key generated for
        # the second document must not be the first document's id
        ids = ["a#1", "a", "a"]
        keys = [key for key, _, _ in pair_documents(ids, ids, "x")]
        assert len(set(keys)) == 3
        assert keys[0] == "a#1" and keys[2] == "a#2"
        assert keys[1] not in ids

    def test_extra_response_document_fails(self, fixtures_dir):
        animals = parse_text((fixtures_dir / "animals.conllu").read_text())
        with pytest.raises(DocumentPairError):
            evaluate({"a": animals[:1]}, {"a": animals}, EvalOptions())
        # a dataset that one side lacks
        with pytest.raises(DocumentPairError, match="^dataset b missing from the response$"):
            evaluate({"a": animals, "b": animals}, {"a": animals}, EvalOptions())
        with pytest.raises(DocumentPairError,
                           match="^response datasets not present in the key: b$"):
            evaluate({"a": animals}, {"a": animals, "b": animals}, EvalOptions())
        # without ids documents pair by position, so their counts must agree
        with pytest.raises(DocumentPairError, match="^dataset x: 1 key vs 2 response documents"
                                                    " and no document ids to pair by$"):
            pair_documents([None], [None, None], "x")

    def test_upos_filter_keeps_relevant_entities(self, fixtures_dir):
        animals = parse_text((fixtures_dir / "animals.conllu").read_text())
        report = evaluate({"a": animals}, {"a": animals},
                          EvalOptions(upos_filter="PROPN", keep_singletons=True))
        assert report.per_dataset["a"]["conll"].f1 == pytest.approx(1.0)
        # flat child makes Mr./NOUN + Brown/PROPN count for PROPN: e2 kept
        opts = EvalOptions(upos_filter="PROPN", keep_singletons=True)
        counts = score_document_pair(animals[0], animals[0], opts)
        assert counts["ceafe"][1] == 1

    def test_with_singletons_lower_when_response_omits_them(self):
        # a response that finds no singletons loses recall once singletons
        # are kept on the key side
        rng = random.Random(11)
        skel = gen.random_skeleton(rng, "d", n_sentences=(3, 4), n_words=(6, 9))
        key_specs = gen.random_mentions(rng, skel, n_entities=(3, 4),
                                        n_mentions=(1, 3))
        sizes: dict[str, int] = {}
        for m in key_specs:
            sizes[m.eid] = sizes.get(m.eid, 0) + 1
        if not any(n == 1 for n in sizes.values()):
            key_specs.append(gen.MentionSpec("extra", (0,)))
            sizes["extra"] = 1
        resp_specs = [m for m in key_specs if sizes[m.eid] > 1]
        key_doc = parse_text(gen.conllu_text(skel, key_specs))[0]
        resp_doc = parse_text(gen.conllu_text(skel, resp_specs))[0]
        without = evaluate({"d": [key_doc]}, {"d": [resp_doc]}, EvalOptions())
        kept = evaluate({"d": [key_doc]}, {"d": [resp_doc]},
                        EvalOptions(keep_singletons=True))
        assert without.per_dataset["d"]["conll"].f1 == pytest.approx(1.0)
        assert kept.per_dataset["d"]["conll"].f1 < 1.0

    def test_head_policy_on_identity(self, fixtures_dir):
        for name in ("animals", "zeros", "discontinuous"):
            docs = parse_text((fixtures_dir / f"{name}.conllu").read_text())
            for match in ("partial", "exact", "head"):
                for keep in (False, True):
                    report = evaluate({name: docs}, {name: docs},
                                      EvalOptions(match=match, keep_singletons=keep))
                    for metric, scores in report.per_dataset[name].items():
                        assert scores.f1 == pytest.approx(1.0), (name, match, keep, metric)


def _perturbed_response(docs):
    from corefeval.transforms import apply_ops, reduce_layer_to_heads
    return [apply_ops(d, reduce_layer_to_heads) for d in docs]
