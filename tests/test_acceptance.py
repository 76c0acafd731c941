"""Acceptance suite: one test per criterion, each printing a PASS line.

Random inputs come from the shared generator; expected values come from
the independent oracle implementations or are pinned by hand.
"""

import json
import multiprocessing
import random
import time

import pytest

import gen
import oracles
from test_baselines import PRONOUN_EXPECTED, PROPN_EXPECTED, entity_map
from corefeval.align import EXACT, PARTIAL, align_mentions, matches
from corefeval.baselines import pronoun_gender_link_layer, propn_lemma_merge_layer
from corefeval.cli import main, validate_path
from corefeval.conllu import docs_to_text, parse_text
from corefeval.metrics import (
    EvalOptions,
    bcub_counts,
    blanc_counts,
    ceafe_counts,
    counts_to_prfs,
    evaluate,
    lea_counts,
    mor_counts,
    muc_counts,
    relabeled_clusters,
    zero_link_counts,
)
from corefeval.model import build_coref_layer
from corefeval.transforms import (
    apply_ops,
    conservative_head_reduce_layer,
    merge_same_span_layer,
    reduce_layer_to_heads,
    remove_singletons_layer,
)

TOL = 1e-9
BUNDLED = ("animals", "zeros", "discontinuous",
           "pronoun_baseline", "propn_baseline")


@pytest.fixture(scope="session")
def ten_k_fixture(tmp_path_factory):
    rng = random.Random(99)
    path = tmp_path_factory.mktemp("bench") / "ten_k.conllu"
    path.write_text(gen.synthetic_corpus(rng, n_docs=5, sents_per_doc=85,
                                         words_per_sent=24))
    return path


@pytest.fixture(scope="session")
def big_corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench_big")
    key = base / "key.conllu"
    resp = base / "resp.conllu"
    key.write_text(gen.synthetic_corpus(random.Random(7), n_docs=600,
                                        sents_per_doc=85, words_per_sent=24))
    resp.write_text(gen.synthetic_corpus(random.Random(7), n_docs=600,
                                         sents_per_doc=85, words_per_sent=24,
                                         perturb=True))
    return key, resp


def run_score_json(out_dir, key, resp, *flags):
    out = out_dir / "report.json"
    code = main(["score", str(key), str(resp), "--format", "json",
                 "-o", str(out), *flags])
    assert code == 0
    return json.loads(out.read_text())


def test_criterion_01_identity_scoring(fixtures_dir, ten_k_fixture, tmp_path, capsys):
    corpora = [fixtures_dir / f"{name}.conllu" for name in BUNDLED]
    corpora.append(ten_k_fixture)
    for path in corpora:
        for match in ("partial", "exact", "head"):
            for singleton_flags in ((), ("--keep-singletons",)):
                payload = run_score_json(tmp_path, path, path, "--match", match,
                                         "--jobs", "1", *singleton_flags)
                for dataset, scores in payload["datasets"].items():
                    for metric, values in scores.items():
                        assert values == {"r": 100.0, "p": 100.0, "f1": 100.0}, \
                            (path.name, match, singleton_flags, metric)
    started = time.perf_counter()
    assert main(["score", str(ten_k_fixture), str(ten_k_fixture)]) == 0
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    assert elapsed < 1.0, f"identity scoring of 10k words took {elapsed:.2f}s"
    print(f"criterion 1 PASS: identity scoring is 100.00 everywhere "
          f"({len(corpora)} corpora x 6 variants; 10k words in {elapsed:.2f}s)")


def test_criterion_02_partial_match_table():
    def key_with(positions, head_index, n_words=12):
        skel = gen.Skeleton("d", [gen.SentenceSpec([
            gen.NodeSpec(str(i), f"w{i}", f"l{i}", "NOUN", "_",
                         "0" if i == 1 else str(i - 1), "dep", "_", False)
            for i in range(1, n_words + 1)])])
        key_doc = parse_text(gen.conllu_text(skel, [
            gen.MentionSpec("e1", positions, ("x", str(head_index)))]))[0]
        return build_coref_layer(key_doc).sorted_mentions()[0], skel

    def resp_over(skel, positions):
        doc = parse_text(gen.conllu_text(skel, [gen.MentionSpec("r", positions)]))[0]
        return build_coref_layer(doc).sorted_mentions()[0]

    # continuous key over {0,1,2}, head at 1; discontinuous key over
    # {0,1,4}, head at 1; a response matches iff it is a subset of the key
    # containing the head
    continuous = [((1,), True), ((0, 1), True), ((1, 2), True),
                  ((0, 1, 2), True), ((0,), False), ((0, 2), False),
                  ((0, 1, 2, 3), False), ((3,), False)]
    discontinuous = [((1,), True), ((1, 4), True), ((0, 1, 4), True),
                     ((0, 4), False), ((1, 2), False), ((0, 1, 2, 4), False),
                     ((2,), False)]
    key, skel = key_with((0, 1, 2), 2)
    for positions, expected in continuous:
        assert matches(key, resp_over(skel, positions), PARTIAL) is expected
    key, skel = key_with((0, 1, 4), 2)
    for positions, expected in discontinuous:
        assert matches(key, resp_over(skel, positions), PARTIAL) is expected
    print(f"criterion 2 PASS: partial-match predicate table "
          f"({len(continuous) + len(discontinuous)} continuous and "
          f"discontinuous cases)")


def _random_scored_pair(seed):
    sub = random.Random(seed)
    skel = gen.random_skeleton(sub, f"d{seed}", n_sentences=(1, 3))
    key_specs = gen.random_mentions(sub, skel, n_entities=(1, 4),
                                    n_mentions=(1, 3))[:10]
    resp_specs = gen.perturb_mentions(sub, key_specs, skel)[:10]
    key = build_coref_layer(parse_text(gen.conllu_text(skel, key_specs))[0])
    resp = build_coref_layer(parse_text(gen.conllu_text(skel, resp_specs))[0])
    return key, resp


def test_criterion_03_metric_oracle_equivalence():
    docs = 0
    for seed in range(500):
        key, resp = _random_scored_pair(seed)
        keep = seed % 2 == 0
        policy = EXACT if seed % 4 < 2 else PARTIAL
        if not keep:
            remove_singletons_layer(key)
            remove_singletons_layer(resp)
        # the counters read the package's table, the oracles the reference
        # clusterings numbered over the same alignment
        sides = relabeled_clusters(key, resp, policy)
        kc, rc = oracles.relabel(key, resp, align_mentions(
            key.sorted_mentions(), resp.sorted_mentions(), policy).pairs)
        got = counts_to_prfs({
            "muc": muc_counts(*sides), "bcub": bcub_counts(*sides),
            "ceafe": ceafe_counts(*sides), "blanc": blanc_counts(*sides),
            "lea": lea_counts(*sides),
        }, ("muc", "bcub", "ceafe", "blanc", "lea"))
        expected = {
            "muc": oracles.naive_muc(kc, rc),
            "bcub": oracles.naive_bcub(kc, rc),
            "ceafe": oracles.perm_ceafe(kc, rc),
            "blanc": oracles.naive_blanc(kc, rc),
            "lea": oracles.naive_lea(kc, rc),
        }
        for name, (r, p, f) in expected.items():
            assert abs(got[name].recall - r) < TOL, (seed, name)
            assert abs(got[name].precision - p) < TOL, (seed, name)
            assert abs(got[name].f1 - f) < TOL, (seed, name)
        key_sets = [m.position_set for m in key.sorted_mentions()]
        resp_sets = [m.position_set for m in resp.sorted_mentions()]
        ov, kl, rl = mor_counts(key.sorted_mentions(), resp.sorted_mentions())
        mor = counts_to_prfs({"mor": (ov, kl, rl)}, ("mor",))["mor"]
        r, p, f = oracles.exhaustive_mor(key_sets, resp_sets)
        assert abs(mor.recall - r) < TOL and abs(mor.precision - p) < TOL, seed
        if len(key_sets) <= 6 and len(resp_sets) <= 6:
            assert oracles.perm_mor(key_sets, resp_sets) == (r, p, f), seed
        docs += 1
    assert docs == 500
    print("criterion 3 PASS: 500 random documents match the brute-force "
          "oracles for MUC/B3/CEAF-e/BLANC/LEA/MOR within 1e-9")


def test_criterion_04_zero_score_oracle():
    docs = 0
    for seed in range(200):
        sub = random.Random(10_000 + seed)
        skel = gen.random_skeleton(sub, f"d{seed}", n_sentences=(2, 4),
                                   p_empty=0.35)
        key_specs = gen.random_mentions(sub, skel, n_entities=(1, 4),
                                        n_mentions=(1, 4), p_zero=0.5)
        zeros = [m for m in key_specs
                 if all(skel.nodes[p].is_empty for p in m.positions)]
        for extra in zeros[5:]:
            key_specs.remove(extra)
        resp_specs = gen.perturb_mentions(sub, key_specs, skel, p_shrink=0.0)
        key = build_coref_layer(parse_text(gen.conllu_text(skel, key_specs))[0])
        resp = build_coref_layer(parse_text(gen.conllu_text(skel, resp_specs))[0])
        # then the same layers with same-span entities merged, so that one
        # entity's mentions overlap and a node's first mention order is not
        # monotone in its position
        for merged in (False, True):
            if merged:
                merge_same_span_layer(key)
                merge_same_span_layer(resp)
            got = zero_link_counts(key, resp)
            expected = oracles.naive_zero_counts(
                [[(m.position_set, m.is_zero) for m in e.mentions]
                 for e in sorted(key.entities, key=lambda e: e.eid)],
                [[(m.position_set, m.is_zero) for m in e.mentions]
                 for e in sorted(resp.entities, key=lambda e: e.eid)])
            assert got == expected, f"seed {seed} merged {merged}"
            tp, wl, fp, fn = got
            anaphoric = lambda layer: sum(
                1 for e in layer.entities
                for i, m in enumerate(e.mentions) if i > 0 and m.is_zero)
            assert tp + wl + fn == anaphoric(key), f"seed {seed} merged {merged}"
            assert tp + wl + fp == anaphoric(resp), f"seed {seed} merged {merged}"
        docs += 1
    assert docs == 200
    print("criterion 4 PASS: 200 random documents match the naive zero-score "
          "definition exactly, count identities included")


def test_criterion_05_head_match_equivalence(tmp_path):
    for seed in range(30):
        sub = random.Random(seed)
        skel = gen.random_skeleton(sub, f"d{seed}", n_sentences=(2, 3),
                                   n_words=(5, 9))
        key_specs = gen.random_mentions(sub, skel, treelet_only=True,
                                        distinct_heads=True,
                                        n_entities=(2, 4), n_mentions=(1, 3))
        resp_specs = gen.respan_around_heads(sub, key_specs, skel)
        key_doc = parse_text(gen.conllu_text(skel, key_specs))[0]
        resp_doc = parse_text(gen.conllu_text(skel, resp_specs))[0]
        opts_head = EvalOptions(match="head")
        direct = evaluate({"d": [key_doc]}, {"d": [resp_doc]}, opts_head)
        manual = evaluate({"d": [apply_ops(key_doc, conservative_head_reduce_layer)]},
                          {"d": [apply_ops(resp_doc, conservative_head_reduce_layer)]},
                          EvalOptions(match="partial"))
        assert direct.per_dataset == manual.per_dataset, f"seed {seed}"
        padded = evaluate({"d": [key_doc]},
                          {"d": [apply_ops(resp_doc, reduce_layer_to_heads)]}, opts_head)
        assert direct.per_dataset == padded.per_dataset, f"seed {seed}"
    print("criterion 5 PASS: head match equals partial match on reduced "
          "files and ignores extra response words around the head (30 seeds)")


def _dedupe_spans(specs):
    seen, out = set(), []
    for m in specs:
        if m.positions not in seen:
            seen.add(m.positions)
            out.append(m)
    return out


def test_criterion_06_singleton_invariance():
    seeds = 0
    for seed in range(30):
        sub = random.Random(500 + seed)
        skel = gen.random_skeleton(sub, f"d{seed}", n_sentences=(2, 3))
        key_specs = _dedupe_spans(gen.random_mentions(sub, skel, n_entities=(1, 3),
                                                      n_mentions=(2, 3)))
        resp_specs = _dedupe_spans(gen.perturb_mentions(sub, key_specs, skel))
        key_doc = parse_text(gen.conllu_text(skel, key_specs))[0]
        resp_doc = parse_text(gen.conllu_text(skel, resp_specs))[0]

        nodes = len(build_coref_layer(key_doc).nodes)
        def inject(specs, how_many):
            out = list(specs)
            for k in range(how_many):
                start = sub.randrange(max(1, nodes - 2))
                out.append(gen.MentionSpec(
                    f"s{k}", tuple(range(start, min(nodes, start + sub.randint(1, 2))))))
            return out

        key_plus = parse_text(gen.conllu_text(skel, inject(key_specs, 3)))[0]
        resp_plus = parse_text(gen.conllu_text(skel, inject(resp_specs, 2)))[0]
        for match in ("partial", "exact", "head"):
            opts = EvalOptions(match=match)
            base = evaluate({"d": [key_doc]}, {"d": [resp_doc]}, opts)
            with_key = evaluate({"d": [key_plus]}, {"d": [resp_doc]}, opts)
            with_resp = evaluate({"d": [key_doc]}, {"d": [resp_plus]}, opts)
            assert base.per_dataset == with_key.per_dataset, (seed, match, "key")
            assert base.per_dataset == with_resp.per_dataset, (seed, match, "resp")

        exact = evaluate({"d": [key_doc]}, {"d": [resp_doc]},
                         EvalOptions(match="exact")).per_dataset["d"]
        partial = evaluate({"d": [key_doc]}, {"d": [resp_doc]},
                           EvalOptions(match="partial")).per_dataset["d"]
        for metric in ("muc", "bcub", "ceafe"):
            assert exact[metric].f1 <= partial[metric].f1 + 1e-12, (seed, metric)
        seeds += 1
    assert seeds == 30
    print("criterion 6 PASS: singleton injection never moves singleton-"
          "excluded scores; exact <= partial f1 ordering holds (30 seeds)")


def test_criterion_07_head_only_response_relations(tmp_path):
    rng = random.Random(123)
    key_parts, resp_parts = [], []
    for d in range(25):
        skel = gen.random_skeleton(rng, f"doc{d}", n_sentences=(3, 5),
                                   n_words=(7, 10), p_empty=0.1)
        specs = [m for m in gen.random_mentions(
                     rng, skel, treelet_only=True, distinct_heads=True,
                     no_singletons=True, n_entities=(2, 4), n_mentions=(2, 3))
                 if len(m.positions) >= 2 or skel.nodes[m.positions[0]].is_empty]
        # keep the key singleton-free so no response head gets orphaned by
        # the singleton exclusion
        sizes: dict[str, int] = {}
        for m in specs:
            sizes[m.eid] = sizes.get(m.eid, 0) + 1
        specs = [m for m in specs if sizes[m.eid] >= 2]
        shaken = gen.perturb_mentions(rng, specs, skel, p_drop=0.2,
                                      p_shrink=0.0, p_relabel=0.15)
        heads_only = gen.reduce_to_span_heads(shaken, skel)
        key_parts.append(gen.conllu_text(skel, specs))
        resp_parts.append(gen.conllu_text(skel, heads_only))
    key = tmp_path / "key.conllu"
    resp = tmp_path / "resp.conllu"
    key.write_text("".join(key_parts))
    resp.write_text("".join(resp_parts))

    scores = {}
    for match in ("partial", "exact", "head"):
        payload = run_score_json(tmp_path, key, resp, "--match", match, "--jobs", "1")
        scores[match] = payload["datasets"]["key"]
    conll_partial = scores["partial"]["conll"]["f1"]
    conll_exact = scores["exact"]["conll"]["f1"]
    conll_head = scores["head"]["conll"]["f1"]
    mor = scores["partial"]["mor"]
    assert conll_partial - conll_exact > 20, (conll_partial, conll_exact)
    assert conll_head == pytest.approx(conll_partial, abs=1e-9)
    assert mor["p"] > 95.0
    assert mor["r"] < 60.0
    print(f"criterion 7 PASS: head-only response: exact {conll_exact:.2f} "
          f"<< partial {conll_partial:.2f} = head {conll_head:.2f}; "
          f"MOR P {mor['p']:.1f} R {mor['r']:.1f}")


def test_criterion_08_round_trip(fixtures_dir):
    files = 0
    for name in BUNDLED:
        text = (fixtures_dir / f"{name}.conllu").read_text()
        assert docs_to_text(parse_text(text)) == text, name
        files += 1
    saw_discontinuous = saw_empty = 0
    for seed in range(50):
        sub = random.Random(seed * 31)
        _, specs, text = gen.random_document(
            sub, f"doc{seed}", p_discontinuous=0.4, p_provided_head=0.3)
        assert docs_to_text(parse_text(text)) == text, f"seed {seed}"
        saw_discontinuous += "[1/" in text
        saw_empty += ".1\t" in text
        files += 1
    assert saw_discontinuous >= 5 and saw_empty >= 5
    assert files >= 55
    print(f"criterion 8 PASS: byte-identical round-trip on {files} files "
          f"({saw_discontinuous} with discontinuous mentions, "
          f"{saw_empty} with empty nodes)")


def _burn(n):
    total = 0
    for i in range(n):
        total += i * i
    return total


def _machine_parallel_capacity():
    n = 4_000_000
    started = time.perf_counter()
    for _ in range(4):
        _burn(n)
    serial = time.perf_counter() - started
    with multiprocessing.get_context("fork").Pool(2) as pool:
        started = time.perf_counter()
        pool.map(_burn, [n] * 4)
        parallel = time.perf_counter() - started
    return serial / parallel


def test_criterion_09_performance(big_corpus, capsys):
    key, resp = big_corpus
    started = time.perf_counter()
    code = main(["score", str(key), str(resp)])
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    assert code == 0
    assert elapsed < 60.0, f"full metric set took {elapsed:.1f}s"

    capacity = _machine_parallel_capacity()
    message = f"1.2M words scored in {elapsed:.1f}s"
    if capacity >= 1.25:
        started = time.perf_counter()
        main(["score", str(key), str(resp), "--jobs", "1", "--metrics", "conll"])
        one = time.perf_counter() - started
        started = time.perf_counter()
        main(["score", str(key), str(resp), "--jobs", "2", "--metrics", "conll"])
        two = time.perf_counter() - started
        capsys.readouterr()
        speedup = one / two
        # near-linear relative to what this machine gives two processes
        assert speedup >= 0.6 * capacity, (speedup, capacity)
        message += (f"; --jobs scaling {speedup:.2f}x of {capacity:.2f}x "
                    "machine capacity")
    else:
        message += f" (machine parallel capacity only {capacity:.2f}x; scaling not measurable)"
    print(f"criterion 9 PASS: {message}")


def test_criterion_10_baselines(fixtures_dir, tmp_path):
    pronoun_doc = parse_text(
        (fixtures_dir / "pronoun_baseline.conllu").read_text())[0]
    linked = apply_ops(pronoun_doc, pronoun_gender_link_layer)
    assert entity_map(linked) == PRONOUN_EXPECTED
    propn_doc = parse_text(
        (fixtures_dir / "propn_baseline.conllu").read_text())[0]
    merged = apply_ops(propn_doc, propn_lemma_merge_layer)
    assert entity_map(merged) == PROPN_EXPECTED
    for i, doc in enumerate((linked, merged)):
        out = tmp_path / f"baseline{i}.conllu"
        out.write_text(docs_to_text([doc]))
        assert validate_path(str(out)) == []
    print("criterion 10 PASS: baseline rules reproduce the hand-derived "
          "outputs on the 20-sentence fixtures and validate cleanly")
