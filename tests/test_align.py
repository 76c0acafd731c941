import itertools
import random

import pytest

import gen
import oracles
import corefeval.align
from corefeval.align import (
    EXACT,
    PARTIAL,
    align_mentions,
    matches,
    max_total_overlap,
)
from corefeval.conllu import parse_file, parse_text
from corefeval.heads import mention_head
from corefeval.metrics import ceafe_counts, mor_counts
from corefeval.model import Mention, build_coref_layer
from corefeval.transforms import conservative_head_reduce_layer


def align_edges(overlap, key_sizes):
    """The alignment of keys of `key_sizes` to responses over the candidate
    edges `overlap`, (key, response) -> overlap: `align._align` on their
    adjacency lists."""
    adj = [[] for _ in key_sizes]
    for (i, j), ov in overlap.items():
        adj[i].append((j, ov))
    n_resps = max((j for _, j in overlap), default=-1) + 1
    return corefeval.align._align(adj, n_resps, {}, key_sizes)


def reference_match(key, resp, policy):
    """The match predicate from its definition, independent of `matches`."""
    if policy == EXACT:
        return key.position_set == resp.position_set
    return oracles.naive_partial_match(resp.position_set, key.position_set, mention_head(key))


def two_sided(key_specs, resp_specs, n_words=10):
    """Build one skeleton and parse two annotations of it."""
    skel = gen.Skeleton("d", [gen.SentenceSpec([
        gen.NodeSpec(str(i), f"w{i}", f"l{i}", "NOUN", "_",
                     "0" if i == 1 else str(i - 1), "dep", "_", False)
        for i in range(1, n_words + 1)])])
    key = build_coref_layer(parse_text(gen.conllu_text(skel, [
        gen.MentionSpec(eid, pos, fields) for eid, pos, *rest in key_specs
        for fields in [rest[0] if rest else ()]]))[0])
    resp = build_coref_layer(parse_text(gen.conllu_text(skel, [
        gen.MentionSpec(eid, pos) for eid, pos in resp_specs]))[0])
    return key.sorted_mentions(), resp.sorted_mentions()


class TestMatchPredicate:
    # continuous key over positions {0,1,2}, head at position 1 (provided
    # head index 2); position 3 lies outside the key
    CONTINUOUS = [
        ((1,), True), ((0, 1), True), ((1, 2), True), ((0, 1, 2), True),
        ((0,), False), ((0, 2), False), ((2,), False), ((0, 1, 2, 3), False),
        ((1, 3), False), ((3,), False),
    ]

    @pytest.mark.parametrize("resp_positions,expected", CONTINUOUS)
    def test_continuous_partial_matching(self, resp_positions, expected):
        key_ms, resp_ms = two_sided(
            [("e1", (0, 1, 2), ("thing", "2"))], [("r1", resp_positions)])
        assert matches(key_ms[0], resp_ms[0], PARTIAL) is expected

    # discontinuous key {0, 1, 4} with head 1; 2, 3 fill the gap
    DISCONTINUOUS = [
        ((1,), True), ((1, 4), True), ((0, 1), True), ((0, 1, 4), True),
        ((0, 4), False), ((1, 2), False), ((0, 1, 2, 4), False), ((4,), False),
    ]

    @pytest.mark.parametrize("resp_positions,expected", DISCONTINUOUS)
    def test_discontinuous_partial_matching(self, resp_positions, expected):
        key_ms, resp_ms = two_sided(
            [("e1", (0, 1, 4), ("thing", "2"))], [("r1", resp_positions)])
        assert matches(key_ms[0], resp_ms[0], PARTIAL) is expected

    def test_exact_requires_equality(self):
        key_ms, resp_ms = two_sided([("e1", (0, 1, 2))],
                                    [("r1", (0, 1, 2)), ("r2", (0, 1))])
        by_span = {r.position_set: r for r in resp_ms}
        assert matches(key_ms[0], by_span[frozenset({0, 1, 2})], EXACT)
        assert not matches(key_ms[0], by_span[frozenset({0, 1})], EXACT)

    def test_subset_enumeration_against_predicate(self):
        # every nonempty subset of a 3-node key plus one outside node
        key_ms, _ = two_sided([("e1", (0, 2, 4), ("thing", "2"))], [])
        key = key_ms[0]
        head = mention_head(key)
        for mask in range(1, 16):
            positions = tuple(p for bit, p in enumerate((0, 2, 4, 6))
                              if mask & (1 << bit))
            _, resp_ms = two_sided([], [("r1", positions)])
            expected = set(positions) <= {0, 2, 4} and head in positions
            assert matches(key, resp_ms[0], PARTIAL) is expected

    def test_head_looked_up_only_for_a_response_strictly_inside(self, monkeypatch):
        # keys {0,1,2}, {4,5} and {7,8}: an identical response, a part of
        # the key and none; only the second key's head is looked up
        looked_up = []

        def head(key):
            looked_up.append(key.positions)
            return mention_head(key)

        monkeypatch.setattr(corefeval.align, "mention_head", head)
        key_ms, resp_ms = two_sided([("e1", (0, 1, 2)), ("e2", (4, 5)), ("e3", (7, 8))],
                                    [("r1", (0, 1, 2)), ("r2", (5,))])
        assert len(align_mentions(key_ms, resp_ms, PARTIAL).pairs) == 1
        assert looked_up == [(4, 5)]


class TestAlignment:
    def test_identical_lists_align_perfectly(self):
        specs = [("e1", (0, 1)), ("e1", (3,)), ("e2", (5, 6, 7))]
        key_ms, resp_ms = two_sided(specs, [(e, p) for e, p in specs])
        alignment = align_mentions(key_ms, resp_ms, EXACT)
        assert len(alignment.pairs) == 3
        for k, r in alignment.pairs:
            assert k.position_set == r.position_set

    def test_overlap_breaks_cardinality_ties(self):
        # key {a,b,c} head b; responses {b} and {a,b,c}: the full span wins
        key_ms, resp_ms = two_sided([("e1", (0, 1, 2), ("x", "2"))],
                                    [("r1", (1,)), ("r2", (0, 1, 2))])
        alignment = align_mentions(key_ms, resp_ms, PARTIAL)
        ((key, resp),) = alignment.pairs
        assert resp.position_set == frozenset({0, 1, 2})

    def test_documented_tie_break_on_nested_keys(self):
        # keys {a,b,c} head b and {b} head b; single response {b}: equal
        # overlap, the tighter key {b} wins
        key_ms, resp_ms = two_sided(
            [("e1", (0, 1, 2), ("x", "2")), ("e2", (1,))], [("r1", (1,))])
        alignment = align_mentions(key_ms, resp_ms, PARTIAL)
        ((key, _resp),) = alignment.pairs
        assert key.position_set == frozenset({1})

    def test_alignment_size_bounded(self, rng):
        for seed in range(25):
            key_ms, resp_ms = _random_pair(seed)
            for policy in (EXACT, PARTIAL):
                alignment = align_mentions(key_ms, resp_ms, policy)
                assert len(alignment.pairs) <= min(len(key_ms), len(resp_ms))

    def test_partial_cardinality_at_least_exact(self, rng):
        for seed in range(25):
            key_ms, resp_ms = _random_pair(seed)
            exact = align_mentions(key_ms, resp_ms, EXACT)
            partial = align_mentions(key_ms, resp_ms, PARTIAL)
            assert len(partial.pairs) >= len(exact.pairs)

    def test_exact_is_span_intersection_when_duplicate_free(self, rng):
        for seed in range(25):
            key_ms, resp_ms = _random_pair(seed)
            key_spans = [m.position_set for m in key_ms]
            resp_spans = [m.position_set for m in resp_ms]
            if len(set(key_spans)) < len(key_spans):
                continue
            if len(set(resp_spans)) < len(resp_spans):
                continue
            alignment = align_mentions(key_ms, resp_ms, EXACT)
            assert {k.position_set for k, _ in alignment.pairs} == \
                   set(key_spans) & set(resp_spans)

    def test_exhaustive_oracle_agreement(self):
        for seed in range(120):
            key_ms, resp_ms = _random_pair(seed, small=True)
            for policy in (EXACT, PARTIAL):
                edges = [(i, j) for i, k in enumerate(key_ms)
                         for j, r in enumerate(resp_ms) if reference_match(k, r, policy)]
                overlaps = {(i, j): len(key_ms[i].position_set
                                        & resp_ms[j].position_set)
                            for i, j in edges}
                sizes = [len(k.position_set) for k in key_ms]
                expected = oracles.exhaustive_alignment(edges, overlaps, sizes)
                aligned = align_mentions(key_ms, resp_ms, policy).pairs
                assert [(key_ms.index(k), resp_ms.index(r)) for k, r in aligned] \
                    == expected, f"seed {seed} policy {policy}"

    def test_candidate_overlaps_are_the_intersections(self):
        # the predicate fixes each edge's overlap without intersecting sets
        for seed in range(200):
            key_ms, resp_ms = _random_pair(seed, p_discontinuous=0.3)
            for policy in (EXACT, PARTIAL):
                adj, later = corefeval.align._candidate_edges(key_ms, resp_ms, policy)
                got = {(i, j): ov for i, row in enumerate(adj) for j, ov in row}
                assert sum(map(len, adj)) == len(got)
                # a response identical to an earlier one has no column of its
                # own: it is a twin of the first
                first, twins = {}, {}
                for j, r in enumerate(resp_ms):
                    if (g := first.setdefault(r.position_set, j)) != j:
                        twins.setdefault(g, []).append(j)
                assert later == twins
                assert got == {(i, j): len(k.position_set & r.position_set)
                               for i, k in enumerate(key_ms)
                               for j, r in enumerate(resp_ms)
                               if j == first[r.position_set]
                               and reference_match(k, r, policy)}

    def test_order_independence(self, rng):
        key_ms, resp_ms = _random_pair(7)
        pairs = align_mentions(key_ms, resp_ms, PARTIAL).pairs
        shuffled_keys = list(key_ms)
        shuffled_resps = list(resp_ms)
        random.Random(1).shuffle(shuffled_keys)
        random.Random(2).shuffle(shuffled_resps)
        pairs2 = align_mentions(shuffled_keys, shuffled_resps, PARTIAL).pairs
        as_sets = lambda ps: {(k.position_set, r.position_set) for k, r in ps}
        assert as_sets(pairs) == as_sets(pairs2)


class TestSolverCalls:
    """Every solve goes through `corefeval.align.linear_sum_assignment`,
    looked up when called, and only for components with several edges."""

    @pytest.fixture
    def calls(self, monkeypatch):
        solve = corefeval.align.linear_sum_assignment
        shapes = []

        def counted(cost, *args, **kwargs):
            # a list of rows that carries numpy's cell count as `size`
            shapes.append((len(cost), len(cost[0])))
            assert cost.size == len(cost) * len(cost[0])
            return solve(cost, *args, **kwargs)

        monkeypatch.setattr(corefeval.align, "linear_sum_assignment", counted)
        return shapes

    def test_multi_edge_components_call_the_solver(self, calls):
        assert align_edges({(0, 0): 2, (0, 1): 1, (1, 0): 2}, [3, 2]) \
            == [(0, 1), (1, 0)]
        assert len(calls) > 0
        assert calls == [(2, 2)]  # one solve for the one multi-edge component
        calls.clear()
        assert max_total_overlap([frozenset({0, 1, 2})],
                                 [frozenset({0, 1}), frozenset({1, 2})]) == 2
        assert calls == [(1, 2)]
        calls.clear()
        phi, _, _ = ceafe_counts([frozenset({0, 1}), frozenset({2, 3})],
                                 [frozenset({0, 1, 2}), frozenset({3})])
        assert phi == pytest.approx(4 / 5 + 2 / 3)
        assert calls == [(2, 2)]

    def test_single_edge_input_never_calls_the_solver(self, calls, fixtures_dir):

        sets = [frozenset({0}), frozenset({1, 2}), frozenset({3, 4, 5})]
        assert align_edges({(0, 0): 1, (1, 1): 2, (2, 2): 1}, [1, 2, 3]) \
            == [(0, 0), (1, 1), (2, 2)]
        assert max_total_overlap(sets, sets[:2]) == 3
        assert ceafe_counts(sets, sets) == (3.0, 3, 3)
        for doc in parse_file(fixtures_dir / "animals.conllu"):
            ms = build_coref_layer(doc).sorted_mentions()
            assert len(align_mentions(ms, ms, PARTIAL).pairs) == len(ms)
        assert calls == []

    def test_one_response_entity_over_several_key_entities_takes_no_solve(self, calls):
        # a CEAF-e component with one column: the key entities compete for it
        keys = [frozenset({0, 1}), frozenset({2}), frozenset({3, 4, 5})]
        phi, nk, nr = ceafe_counts(keys, [frozenset({0, 2, 3, 4}), frozenset({6})])
        assert (phi, nk, nr) == (2 * 2 / (3 + 4), 3, 2)
        assert calls == []

    def test_one_call_per_multi_edge_component_on_dense_n160(self, calls):
        # equal overlaps and key sizes: every perfect matching ties on the
        # layered weight, so the tie-break alone picks the diagonal
        n = 160
        overlap = {(i, j): 1 for i in range(n) for j in range(n)}
        # beside it, two single edges and a 2×3 component
        overlap.update({(n, n): 1, (n + 1, n + 1): 2,
                        (n + 2, n + 2): 1, (n + 2, n + 3): 2, (n + 3, n + 4): 1,
                        (n + 3, n + 2): 1})
        got = align_edges(overlap, [3] * n + [1, 2, 2, 2])
        assert got == [(i, i) for i in range(n)] + [
            (n, n), (n + 1, n + 1), (n + 2, n + 3), (n + 3, n + 2)]
        assert sorted(calls) == [(2, 3), (n, n)]

    def test_one_call_when_the_optimum_reverses_the_lexicographic_order(self, calls):
        # the anti-diagonal has the larger overlap, so every key's first
        # candidate response is the wrong one
        n = 80
        overlap = {(i, j): 2 if i + j == n - 1 else 1
                   for i in range(n) for j in range(n)}
        assert align_edges(overlap, [5] * n) == [(i, n - 1 - i) for i in range(n)]
        assert calls == [(n, n)]

    def test_tie_heavy_components_match_the_exhaustive_oracle(self, calls):
        # few distinct overlaps and key sizes: many optima tie on the
        # layered weight and only the lexicographic rule tells them apart
        sub = random.Random(6)
        for case in range(400):
            n_keys, n_resps = sub.randint(1, 5), sub.randint(1, 5)
            edges = sorted(sub.sample(
                [(i, j) for i in range(n_keys) for j in range(n_resps)],
                sub.randint(1, min(9, n_keys * n_resps))))
            overlaps = {e: sub.choice((1, 1, 1, 2)) for e in edges}
            sizes = [sub.choice((2, 2, 3)) for _ in range(n_keys)]
            expected = oracles.exhaustive_alignment(edges, overlaps, sizes)
            assert align_edges(overlaps, sizes) == expected, case
        assert calls  # the cases reached the solver

    def test_twin_nests_need_no_solve(self, calls, fixtures_dir):
        # the score_stress shape: in each of the two sentences of a document,
        # 32 nested key mentions end on one head and 16 single-word response
        # mentions, one per entity, lie on that head: one column of twins
        docs = zip(parse_file(fixtures_dir / "nest_key.conllu"),
                   parse_file(fixtures_dir / "nest_response.conllu"))
        for key_doc, resp_doc in docs:
            for reduced in (False, True):
                layers = build_coref_layer(key_doc), build_coref_layer(resp_doc)
                if reduced:
                    for layer in layers:
                        conservative_head_reduce_layer(layer)
                key_ms, resp_ms = (layer.sorted_mentions() for layer in layers)
                assert (len(key_ms), len(resp_ms)) == (64, 32)
                # the 16 tightest keys of a nest, in document order, take its
                # responses in order: the innermost 16 of the nested spans;
                # after the reduction, the first 16 keys reduced to the head
                first = 1 if reduced else 16
                assert [(key_ms.index(k), resp_ms.index(r))
                        for k, r in align_mentions(key_ms, resp_ms, PARTIAL).pairs] \
                    == [(32 * s + first + b, 16 * s + b) for s in (0, 1) for b in range(16)]
                assert mor_counts(key_ms, resp_ms)[0] == 16 * 2
                assert calls == []

    def test_a_component_of_twins_and_another_response_takes_one_solve(self, calls):
        # keys {0,1,2} and {1} on head 1; responses {1} twice and {0,1}: one
        # component of two groups, solved over its three responses
        key_ms, resp_ms = two_sided([("e1", (0, 1, 2), ("x", "2")), ("e2", (1,))],
                                    [("r1", (1,)), ("r2", (0, 1)), ("r3", (1,))])
        assert [(key_ms.index(k), resp_ms.index(r))
                for k, r in align_mentions(key_ms, resp_ms, PARTIAL).pairs] == [(0, 0), (1, 1)]
        assert [len(r.position_set) for r in resp_ms] == [2, 1, 1]
        assert calls == [(2, 3)]
        calls.clear()
        assert max_total_overlap([k.position_set for k in key_ms],
                                 [r.position_set for r in resp_ms]) == 3
        assert calls == [(2, 3)]

    def test_twin_heavy_inputs_match_the_exhaustive_oracles(self, calls):
        # repeated response spans, key twins, nests on one head and mixed
        # components, straight as mentions over the nodes of random trees
        sub = random.Random(14)
        docs = [parse_text(gen.conllu_text(gen.random_skeleton(
            sub, f"d{n}", n_sentences=(1, 1), n_words=(5, 7), p_empty=0.2), []))[0]
            for n in range(6)]
        no_solve = 0
        for case in range(3000):
            nodes = sub.choice(docs).nodes

            def span():
                a = sub.randrange(len(nodes))
                b = sub.randrange(a, min(a + 4, len(nodes)))
                return tuple(p for p in range(a, b + 1) if p == a or sub.random() < 0.8)

            key_spans = []
            for _ in range(sub.randint(1, 5)):
                key_spans.append(sub.choice(key_spans) if key_spans and sub.random() < 0.25
                                 else span())
            key_ms = [Mention("k", ps, nodes) for ps in key_spans]
            resp_spans = []
            for _ in range(sub.randint(1, 6)):
                if resp_spans and sub.random() < 0.4:
                    resp_spans.append(sub.choice(resp_spans))
                elif sub.random() < 0.7:  # a part of a key around its head
                    key = sub.choice(key_ms)
                    head = mention_head(key)
                    resp_spans.append(tuple(p for p in key.positions
                                            if p == head or sub.random() < 0.3))
                else:
                    resp_spans.append(span())
            resp_ms = [Mention("r", ps, nodes) for ps in resp_spans]
            solves = len(calls)
            for policy in (EXACT, PARTIAL):
                edges = [(i, j) for i, k in enumerate(key_ms)
                         for j, r in enumerate(resp_ms) if reference_match(k, r, policy)]
                overlaps = {(i, j): len(key_ms[i].position_set & resp_ms[j].position_set)
                            for i, j in edges}
                sizes = [len(k.position_set) for k in key_ms]
                expected = oracles.exhaustive_alignment(edges, overlaps, sizes)
                aligned = align_mentions(key_ms, resp_ms, policy).pairs
                assert [(key_ms.index(k), resp_ms.index(r)) for k, r in aligned] \
                    == expected, f"case {case} policy {policy}"
            key_sets = [set(ps) for ps in key_spans]
            resp_sets = [set(ps) for ps in resp_spans]
            total = max_total_overlap(key_sets, resp_sets)
            assert oracles.exhaustive_mor(key_sets, resp_sets) == oracles.prf_from(
                total, sum(map(len, key_sets)), total, sum(map(len, resp_sets))), case
            no_solve += len(calls) == solves and len(set(resp_spans)) < len(resp_spans)
        assert calls and no_solve > 600  # both the solve and the closed form ran

    def test_ceafe_phi_does_not_depend_on_the_tied_edge_set(self, monkeypatch):
        # every similarity is 1/2 or 1, so each optimum sums exactly; the
        # first two keys and responses have two tied optimal edge sets
        key = [frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5, 6, 7, 8, 9})]
        resp = [frozenset({0, 2}), frozenset({1, 3}), frozenset({4, 5, 6, 7, 8, 9})]
        picked = []

        def brute(first):
            def solve(cost):
                cols = range(len(cost[0]))
                perms = list(itertools.permutations(cols, len(cost)))
                totals = [sum(cost[a][b] for a, b in enumerate(p)) for p in perms]
                best = [p for p, t in zip(perms, totals) if t == max(totals)]
                chosen = best[0] if first else best[-1]
                picked.append(chosen)
                return list(range(len(cost))), list(chosen)
            return solve

        phis = []
        for solver in (None, brute(True), brute(False)):
            if solver:
                monkeypatch.setattr(corefeval.align, "linear_sum_assignment", solver)
            for k_order in itertools.permutations(range(3)):
                phi, _, _ = ceafe_counts([key[i] for i in k_order], resp)
                phis.append(phi)
        assert picked[0] != picked[-1]  # the two brute solvers differ
        assert phis == [2.0] * len(phis)


def _random_pair(seed, small=False, p_discontinuous=0.15):
    sub = random.Random(seed)
    skel = gen.random_skeleton(sub, f"d{seed}", n_sentences=(1, 2),
                               n_words=(4, 7 if small else 9))
    key = gen.random_mentions(sub, skel, n_entities=(1, 3),
                              n_mentions=(1, 3 if small else 4),
                              p_discontinuous=p_discontinuous)
    resp = gen.perturb_mentions(sub, key, skel)
    key_layer = build_coref_layer(parse_text(gen.conllu_text(skel, key))[0])
    resp_layer = build_coref_layer(parse_text(gen.conllu_text(skel, resp))[0])
    return key_layer.sorted_mentions(), resp_layer.sorted_mentions()
