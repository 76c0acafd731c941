import random

import pytest

import gen
import oracles
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
from corefeval.transforms import remove_singletons_layer

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
        assert counts_to_prfs({"muc": muc_counts(key, key)}, ("muc",))["muc"].f1 == 1.0

    def test_split_response(self):
        # key {a,b,c}; response {a,b} + {c}: recall 1/2, precision 1/1
        key = clusters({0, 1, 2})
        resp = clusters({0, 1}, {2})
        rn, rd, pn, pd = muc_counts(key, resp)
        assert (rn / rd, pn / pd) == (0.5, 1.0)
        scores = counts_to_prfs({"muc": (rn, rd, pn, pd)}, ("muc",))
        assert scores["muc"].f1 == pytest.approx(2 / 3)

    def test_disjoint(self):
        key = clusters({0, 1})
        resp = clusters({5, 6})
        assert counts_to_prfs({"muc": muc_counts(key, resp)}, ("muc",))["muc"] \
            == (0.0, 0.0, 0.0)


class TestBcubHandCases:
    def test_even_split(self):
        key = clusters({0, 1, 2, 3})
        resp = clusters({0, 1}, {2, 3})
        rn, rd, pn, pd = bcub_counts(key, resp)
        assert rn / rd == pytest.approx(0.5)
        assert pn / pd == pytest.approx(1.0)

    def test_spurious_mention_hits_precision(self):
        key = clusters({0, 1})
        resp = clusters({0, 1, 99})
        rn, rd, pn, pd = bcub_counts(key, resp)
        assert rn / rd == pytest.approx(1.0)
        assert pn / pd == pytest.approx((2 / 3 + 2 / 3 + 0) / 3)


class TestCeafeHandCases:
    def test_split_singletons(self):
        phi, nk, nr = ceafe_counts(clusters({0, 1}), clusters({0}, {1}))
        assert phi == pytest.approx(2 / 3)
        assert (nk, nr) == (1, 2)

    def test_mixed_single_and_multi_edge_components(self):
        # components: key 0 split in two; keys 1 and 2 one edge each; keys
        # 3 and 4 share response 4, and key 3 also overlaps response 5
        key = clusters({0, 1}, {2, 3}, {4, 5, 6}, {7, 8}, {9})
        resp = clusters({0}, {1}, {2, 3}, {4, 5}, {7, 9}, {8})
        phi, nk, nr = ceafe_counts(key, resp)
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
            phi, nk, nr = ceafe_counts(key, resp)
            r, p, _ = oracles.perm_ceafe(key, resp)
            assert phi / nk == pytest.approx(r, abs=APPROX)
            assert phi / nr == pytest.approx(p, abs=APPROX)


class TestBlancHandCases:
    def test_single_entity_doc_reduces_to_coref_class(self):
        key = clusters({0, 1, 2})
        counts = blanc_counts(key, key)
        assert counts[3:] == (0, 0, 0)
        assert blanc_prf(counts) == (1.0, 1.0, 1.0)

    def test_class_empty_on_one_side_scores_zero(self):
        key = clusters({0, 1}, {2})   # has non-coref links
        resp = clusters({0, 1, 2})    # none
        result = blanc_prf(blanc_counts(key, resp))
        coref = prf(1, 1, 1, 3)
        assert result.recall == pytest.approx((coref.recall + 0) / 2)


class TestLeaHandCases:
    def test_split_with_singletons_excluded(self):
        # spec-style example: singleton response entity already removed
        key = clusters({0, 1, 2})
        resp = clusters({0, 1})
        rn, rd, pn, pd = lea_counts(key, resp)
        assert rn / rd == pytest.approx(1 / 3)
        assert pn / pd == pytest.approx(1.0)

    def test_all_singletons_identity_with_self_links(self):
        key = clusters({0}, {1}, {2})
        rn, rd, pn, pd = lea_counts(key, key)
        assert (rn / rd, pn / pd) == (1.0, 1.0)

    def test_singleton_against_bigger_cluster_unresolved(self):
        key = clusters({0})
        resp = clusters({0, 1})
        rn, rd, _, _ = lea_counts(key, resp)
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


def _layer_pair(key_text, resp_text, keep_singletons=True):
    key = build_coref_layer(parse_text(key_text)[0])
    resp = build_coref_layer(parse_text(resp_text)[0])
    if not keep_singletons:
        remove_singletons_layer(key)
        remove_singletons_layer(resp)
    return key, resp


class TestMetricOracleEquivalence:
    def test_all_entity_metrics_match_oracles(self):
        checked = 0
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
                    kc, rc = relabeled_clusters(key, resp, policy)
                    checked += 1
                    _assert_oracle_match(kc, rc, f"seed {seed} {policy} keep={keep}")
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


def _assert_oracle_match(kc, rc, context):
    got = {
        "muc": muc_counts(kc, rc),
        "bcub": bcub_counts(kc, rc),
        "ceafe": ceafe_counts(kc, rc),
        "blanc": blanc_counts(kc, rc),
        "lea": lea_counts(kc, rc),
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
        assert counts.tp >= 1 and counts.prf() == (1.0, 1.0, 1.0)

    def test_differing_universes_rejected(self, fixtures_dir):
        docs = parse_text((fixtures_dir / "zeros.conllu").read_text())
        with pytest.raises(DocumentPairError):
            score_document_pair(docs[0], docs[1], ZERO_ONLY)

    def test_random_against_naive_definition(self):
        for seed in range(200):
            sub = random.Random(seed)
            skel = gen.random_skeleton(sub, f"d{seed}", n_sentences=(2, 4),
                                       p_empty=0.35)
            key_specs = gen.random_mentions(sub, skel, n_entities=(1, 4),
                                            n_mentions=(1, 4), p_zero=0.5)
            resp_specs = gen.perturb_mentions(sub, key_specs, skel,
                                              p_shrink=0.0)
            key, resp = _layer_pair(gen.conllu_text(skel, key_specs),
                                    gen.conllu_text(skel, resp_specs))
            got = zero_link_counts(key, resp)
            expected = oracles.naive_zero_counts(_entities_data(key),
                                                 _entities_data(resp))
            assert got == expected, f"seed {seed}"
            tp, wl, fp, fn = got
            assert tp + wl + fn == _anaphoric_zeros(key), f"seed {seed}"
            assert tp + wl + fp == _anaphoric_zeros(resp), f"seed {seed}"


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
