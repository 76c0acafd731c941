"""Coreference evaluation: MUC, B³, CEAF-e, CoNLL, BLANC, LEA, the mention
overlap ratio and the anaphor-decomposable zero score.

Scoring runs per document pair: optional entity filtering by head UPOS,
optional singleton removal (on both sides), the head-match reduction when
requested, mention alignment, then metric counting over the relabeled
clusterings.  MUC, B³, CEAF-e, BLANC and LEA all read one key×response
contingency table of those clusterings, kept as each entity's nonzero
cells.  Counts are plain number tuples that sum across documents
(micro aggregation inside a dataset); datasets combine by unweighted
macro-averaging.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate
from typing import Iterable, NamedTuple

from .align import (
    EXACT,
    HEAD,
    PARTIAL,
    POLICIES,
    align_mentions,
    max_total_overlap,
    optimal_edges,
)
from .conllu import Document
from .errors import DocumentPairError
from .model import CorefLayer, Entity, Mention, build_coref_layer
from .transforms import (
    conservative_head_reduce_layer,
    filter_by_head_upos_layer,
    remove_singletons_layer,
)

log = logging.getLogger("corefeval")

ENTITY_METRICS = ("muc", "bcub", "ceafe", "blanc", "lea")
ALL_METRICS = ("muc", "bcub", "ceafe", "conll", "blanc", "lea", "mor", "zero")
CONLL_PARTS = ("muc", "bcub", "ceafe")

Cluster = frozenset[int]


class PRF(NamedTuple):
    recall: float
    precision: float
    f1: float


def prf(rec_num: float, rec_den: float, prec_num: float, prec_den: float) -> PRF:
    r = rec_num / rec_den if rec_den else 0.0
    p = prec_num / prec_den if prec_den else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return PRF(r, p, f)


def _mean_prfs(prfs: list[PRF]) -> PRF:
    n = len(prfs)
    return PRF(
        sum(x.recall for x in prfs) / n,
        sum(x.precision for x in prfs) / n,
        sum(x.f1 for x in prfs) / n,
    )


class ZeroScoreCounts(NamedTuple):
    tp: int
    wl: int
    fp: int
    fn: int

    def prf(self) -> PRF:
        return prf(self.tp, self.tp + self.wl + self.fn,
                   self.tp, self.tp + self.wl + self.fp)


@dataclass(frozen=True)
class EvalOptions:
    match: str = PARTIAL
    keep_singletons: bool = False
    metrics: tuple[str, ...] = ALL_METRICS
    upos_filter: str | None = None

    def __post_init__(self):
        if self.match not in POLICIES:
            raise ValueError(f"unknown match policy {self.match!r}")
        if not self.metrics:
            raise ValueError("no metrics given")
        unknown = set(self.metrics) - set(ALL_METRICS)
        if unknown:
            raise ValueError(f"unknown metrics: {', '.join(sorted(unknown))}")
        twice = sorted(m for m, n in Counter(self.metrics).items() if n > 1)
        if twice:
            raise ValueError(f"metrics given more than once: {', '.join(twice)}")
        if self.upos_filter is not None and not self.upos_filter.strip():
            raise ValueError(f"UPOS filter {self.upos_filter!r} names no tag")


# ---------------------------------------------------------------------------
# Metric counting over relabeled clusterings.
#
# Key mentions are numbered 0..nk-1 in document order; an aligned response
# mention takes over the number of its key partner, an unaligned one gets a
# number no key mention has.  All metrics below see only these clusterings,
# through the rows of their contingency table (`_spreads`).

def _spreads(clusters: list[Cluster], other_clusters: list[Cluster]) -> list[dict[int, int]]:
    """Each cluster's row of the contingency table against `other_clusters`:
    how many of its mentions each other cluster holds, nonzero cells only,
    in the order the cluster's mentions first meet them."""
    owner = {m: o for o, c in enumerate(other_clusters) for m in c}
    rows = []
    for c in clusters:
        row: dict[int, int] = {}
        for o in map(owner.get, c):
            if o is not None:
                row[o] = row.get(o, 0) + 1
        rows.append(row)
    return rows


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _muc_half(clusters: list[Cluster], others: list[Cluster]) -> tuple[int, int]:
    num = den = 0
    for c, row in zip(clusters, _spreads(clusters, others)):
        if len(c) > 1:
            num += sum(row.values()) - len(row)
            den += len(c) - 1
    return num, den


def muc_counts(key_clusters: list[Cluster], resp_clusters: list[Cluster]) -> tuple:
    return (*_muc_half(key_clusters, resp_clusters), *_muc_half(resp_clusters, key_clusters))


def _bcub_half(clusters: list[Cluster], others: list[Cluster]) -> tuple[float, int]:
    num = 0.0
    for c, row in zip(clusters, _spreads(clusters, others)):
        num += sum(n * n for n in row.values()) / len(c)
    return num, sum(map(len, clusters))


def bcub_counts(key_clusters: list[Cluster], resp_clusters: list[Cluster]) -> tuple:
    return (*_bcub_half(key_clusters, resp_clusters), *_bcub_half(resp_clusters, key_clusters))


def ceafe_counts(key_clusters: list[Cluster], resp_clusters: list[Cluster]) -> tuple:
    """Total entity similarity 2|K∩R|/(|K|+|R|) under optimal assignment."""
    similarity = [[(rj, 2.0 * n / (len(k) + len(resp_clusters[rj]))) for rj, n in row.items()]
                  for k, row in zip(key_clusters, _spreads(key_clusters, resp_clusters))]
    # fsum: phi does not depend on the order the components are solved in
    phi = math.fsum(w for _, _, w in optimal_edges(similarity, len(resp_clusters)))
    return (phi, len(key_clusters), len(resp_clusters))


def blanc_counts(key_clusters: list[Cluster], resp_clusters: list[Cluster]) -> tuple:
    """Link counts: (coref both, coref key, coref resp, non-coref both,
    non-coref key, non-coref resp)."""
    rows = _spreads(key_clusters, resp_clusters)
    in_resp = [0] * len(resp_clusters)  # the table's column sums
    for row in rows:
        for rj, n in row.items():
            in_resp[rj] += n
    ck = sum(_pairs(len(c)) for c in key_clusters)
    cr = sum(_pairs(len(c)) for c in resp_clusters)
    cc = sum(_pairs(n) for row in rows for n in row.values())
    # non-coreferent in both: pairs of common mentions apart on both sides
    nn = (_pairs(sum(in_resp)) - sum(_pairs(sum(row.values())) for row in rows)
          - sum(map(_pairs, in_resp)) + cc)
    nk = _pairs(sum(map(len, key_clusters))) - ck
    nr = _pairs(sum(map(len, resp_clusters))) - cr
    return (cc, ck, cr, nn, nk, nr)


def blanc_prf(counts: tuple) -> PRF:
    cc, ck, cr, nn, nk, nr = counts
    parts: list[PRF] = []
    if ck or cr:
        parts.append(prf(cc, ck, cc, cr))
    if nk or nr:
        parts.append(prf(nn, nk, nn, nr))
    if not parts:
        return PRF(0.0, 0.0, 0.0)
    return _mean_prfs(parts)


def _lea_half(clusters: list[Cluster], others: list[Cluster]) -> tuple[float, int]:
    num = 0.0
    for c, row in zip(clusters, _spreads(clusters, others)):
        if len(c) == 1:
            # self-link: resolved iff the counterpart entity is the same singleton
            num += 1.0 if any(len(others[o]) == 1 for o in row) else 0.0
        else:
            num += len(c) * sum(map(_pairs, row.values())) / _pairs(len(c))
    return num, sum(map(len, clusters))


def lea_counts(key_clusters: list[Cluster], resp_clusters: list[Cluster]) -> tuple:
    return (*_lea_half(key_clusters, resp_clusters), *_lea_half(resp_clusters, key_clusters))


def mor_counts(key_ms: list[Mention], resp_ms: list[Mention]) -> tuple:
    """Mention overlap under the alignment maximizing total shared words;
    entity membership plays no role."""
    overlap = max_total_overlap(
        [m.position_set for m in key_ms], [m.position_set for m in resp_ms])
    return (overlap, sum(len(m.positions) for m in key_ms),
            sum(len(m.positions) for m in resp_ms))


# ---------------------------------------------------------------------------
# Zero anaphora

def _zeros(layer: CorefLayer) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    """The layer's zero mentions by node positions, each as (entity index,
    order in its entity), in `sorted_mentions` order."""
    out: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for ei, entity in enumerate(layer.entities):
        for order, mention in enumerate(entity.mentions):
            if mention.is_zero:
                out.setdefault(mention.positions, []).append((ei, order))
    for group in out.values():
        group.sort(key=lambda zero: layer.entities[zero[0]].eid)
    return out


def _first_orders(entity: Entity) -> dict[int, int]:
    """Each node of an entity -> the order of its first mention covering it."""
    first: dict[int, int] = {}
    for order, mention in enumerate(entity.mentions):
        for i in mention.positions:
            first.setdefault(i, order)
    return first


def _dominance(key_first: dict[int, int], resp_first: dict[int, int]) -> tuple[list[int], list[int]]:
    """The nodes two entities share, as their key orders in ascending order
    and the running minimum of their response orders."""
    small, big = sorted((key_first, resp_first), key=len)
    shared = sorted((key_first[i], resp_first[i]) for i in small if i in big)
    return [k for k, _ in shared], list(accumulate((r for _, r in shared), min))


def zero_link_counts(key_layer: CorefLayer, resp_layer: CorefLayer) -> tuple:
    """(tp, wl, fp, fn) over anaphoric zeros.

    A zero's counterpart is the response zero with the same nodes, paired
    one-to-one in document order.  A key zero that is not the first mention
    of its entity is tp when some earlier mention of its entity shares a
    node with some earlier mention of its counterpart's entity, wl when the
    counterpart exists and is anaphoric but no such node exists, fn
    otherwise.  fp counts response-side anaphoric zeros with no anaphoric
    key counterpart.
    """
    resp_zeros = _zeros(resp_layer)
    key_first = cache(lambda ki: _first_orders(key_layer.entities[ki]))
    resp_first = cache(lambda ri: _first_orders(resp_layer.entities[ri]))
    dominance = cache(lambda ki, ri: _dominance(key_first(ki), resp_first(ri)))

    tp = wl = fn = 0
    for positions, zeros in _zeros(key_layer).items():
        twins = resp_zeros.get(positions, ())
        for n, (ki, order) in enumerate(zeros):
            if order == 0:
                continue
            if n >= len(twins) or twins[n][1] == 0:
                fn += 1
                continue
            ri, twin_order = twins[n]
            # a shared node: key order below `order`, response order below `twin_order`
            key_orders, minima = dominance(ki, ri)
            before = bisect_left(key_orders, order)
            if before and minima[before - 1] < twin_order:
                tp += 1
            else:
                wl += 1
    anaphoric = sum(order > 0 for zeros in resp_zeros.values() for _, order in zeros)
    return (tp, wl, anaphoric - tp - wl, fn)


# ---------------------------------------------------------------------------
# Document pipeline

def check_same_nodes(key_layer: CorefLayer, resp_layer: CorefLayer) -> None:
    """The scorer requires response tokens identical to the key's, empty
    nodes included."""
    doc = key_layer.doc.doc_id
    # each sentence ends in one blank line
    key_sents = key_layer.doc.lines.count("")
    resp_sents = resp_layer.doc.lines.count("")
    if key_sents != resp_sents:
        raise DocumentPairError(
            f"document {doc}: sentence counts differ ({key_sents} vs {resp_sents})")
    if len(key_layer.nodes) != len(resp_layer.nodes):
        raise DocumentPairError(
            f"document {doc}: node counts differ "
            f"({len(key_layer.nodes)} vs {len(resp_layer.nodes)})")
    key, resp = key_layer.nodes, resp_layer.nodes
    at = key.first_difference(resp)
    if at is not None:
        raise DocumentPairError(
            f"document {doc}: tokens differ at sentence {key.sent_index[at] + 1},"
            f" node {key.ids[at]} ({key.column(at, 1)!r} vs sentence"
            f" {resp.sent_index[at] + 1}, node {resp.ids[at]} {resp.column(at, 1)!r})")


def relabeled_clusters(
    key_layer: CorefLayer, resp_layer: CorefLayer, policy: str
) -> tuple[list[Cluster], list[Cluster]]:
    """Align mentions and re-number response mentions with the key identity
    of their aligned partner."""
    key_ms = key_layer.sorted_mentions()
    resp_ms = resp_layer.sorted_mentions()
    key_number = {id(m): i for i, m in enumerate(key_ms)}
    resp_number = {id(m): len(key_ms) + j for j, m in enumerate(resp_ms)}
    resp_number.update((id(r), key_number[id(k)])
                       for k, r in align_mentions(key_ms, resp_ms, policy).pairs)
    return ([frozenset(key_number[id(m)] for m in e.mentions) for e in key_layer.entities],
            [frozenset(resp_number[id(m)] for m in e.mentions) for e in resp_layer.entities])


def score_document_pair(key_doc: Document, resp_doc: Document | None,
                        opts: EvalOptions) -> dict[str, tuple]:
    """The metric counts of one document pair; a response document of None
    (the key's is missing from the response) has no mentions."""
    key_layer = build_coref_layer(key_doc)
    resp_layer = (CorefLayer(key_doc, key_doc.nodes, []) if resp_doc is None
                  else build_coref_layer(resp_doc))
    check_same_nodes(key_layer, resp_layer)

    if opts.upos_filter:
        filter_by_head_upos_layer(key_layer, opts.upos_filter)
        filter_by_head_upos_layer(resp_layer, opts.upos_filter)
    if not opts.keep_singletons:
        remove_singletons_layer(key_layer)
        remove_singletons_layer(resp_layer)

    if opts.match == HEAD:
        conservative_head_reduce_layer(key_layer)
        conservative_head_reduce_layer(resp_layer)
    policy = EXACT if opts.match == EXACT else PARTIAL

    counts: dict[str, tuple] = {}
    if "zero" in opts.metrics:
        # after the head reduction, so that the head-match variant equals
        # scoring explicitly reduced files
        counts["zero"] = zero_link_counts(key_layer, resp_layer)

    entity_metrics = [m for m in ENTITY_METRICS if m in opts.metrics]
    if "conll" in opts.metrics:
        entity_metrics = sorted(set(entity_metrics) | set(CONLL_PARTS),
                                key=ENTITY_METRICS.index)
    if entity_metrics:
        key_clusters, resp_clusters = relabeled_clusters(key_layer, resp_layer, policy)
        counters = {
            "muc": muc_counts, "bcub": bcub_counts, "ceafe": ceafe_counts,
            "blanc": blanc_counts, "lea": lea_counts,
        }
        for name in entity_metrics:
            counts[name] = counters[name](key_clusters, resp_clusters)
    if "mor" in opts.metrics:
        counts["mor"] = mor_counts(
            key_layer.sorted_mentions(), resp_layer.sorted_mentions())
    return counts


# ---------------------------------------------------------------------------
# Aggregation

def add_counts(total: dict[str, tuple], counts: dict[str, tuple]) -> None:
    for name, values in counts.items():
        prev = total.get(name)
        total[name] = values if prev is None else tuple(
            a + b for a, b in zip(prev, values))


def counts_to_prfs(counts: dict[str, tuple], metrics: tuple[str, ...]) -> dict[str, PRF]:
    out: dict[str, PRF] = {}
    for name in ("muc", "bcub", "lea"):
        if name in counts:
            rn, rd, pn, pd = counts[name]
            out[name] = prf(rn, rd, pn, pd)
    if "ceafe" in counts:
        phi, nk, nr = counts["ceafe"]
        out["ceafe"] = prf(phi, nk, phi, nr)
    if "blanc" in counts:
        out["blanc"] = blanc_prf(counts["blanc"])
    if "mor" in counts:
        ov, kl, rl = counts["mor"]
        out["mor"] = prf(ov, kl, ov, rl)
    if "zero" in counts:
        out["zero"] = ZeroScoreCounts(*counts["zero"]).prf()
    if "conll" in metrics and all(p in out for p in CONLL_PARTS):
        out["conll"] = _mean_prfs([out[p] for p in CONLL_PARTS])
    return {name: out[name] for name in ALL_METRICS
            if name in out and name in metrics}


def macro_average(per_dataset: dict[str, dict[str, PRF]]) -> dict[str, PRF]:
    return {name: _mean_prfs([scores[name] for scores in per_dataset.values()])
            for name in ALL_METRICS
            if per_dataset and all(name in scores for scores in per_dataset.values())}


@dataclass
class ScoreReport:
    """Per-dataset and macro-averaged scores for one evaluation run."""

    variant: tuple[str, bool]  # (match policy, singletons kept)
    metrics: tuple[str, ...]
    per_dataset: dict[str, dict[str, PRF]]
    macro: dict[str, PRF]
    per_doc: dict[str, dict[str, dict[str, PRF]]] = field(default_factory=dict)


def pair_documents(
    key_ids: list[str | None], resp_ids: list[str | None], dataset: str
) -> list[tuple[str, int, int | None]]:
    """Pair key and response documents, given their ids, as (doc_key,
    key_index, resp_index).  Documents pair by id when the ids are unique on
    both sides, otherwise by position, and then a missing or repeated key
    id takes the document's position into its doc_key ("#3", "doc#3", with
    "#" appended until it is no document's id).  A key document missing
    from the response has resp_index None (it scores against an empty
    twin); a response document missing from the key is an error."""
    if (None not in key_ids and None not in resp_ids
            and len(set(key_ids)) == len(key_ids)
            and len(set(resp_ids)) == len(resp_ids)):
        by_id = {doc_id: j for j, doc_id in enumerate(resp_ids)}
        pairs = []
        for i, doc_id in enumerate(key_ids):
            j = by_id.pop(doc_id, None)
            if j is None:
                log.warning("dataset %s: document %s missing from the response;"
                            " scoring it as empty", dataset, doc_id)
            pairs.append((doc_id, i, j))
        if by_id:
            raise DocumentPairError(
                f"dataset {dataset}: response documents not present in the key: "
                + ", ".join(sorted(by_id)))
        return pairs
    if len(key_ids) != len(resp_ids):
        raise DocumentPairError(
            f"dataset {dataset}: {len(key_ids)} key vs {len(resp_ids)} "
            "response documents and no document ids to pair by")
    uses = Counter(key_ids)
    pairs = []
    for i, doc_id in enumerate(key_ids):
        doc_key = doc_id
        if not doc_id or uses[doc_id] > 1:
            doc_key = f"{doc_id or ''}#{i}"
            while doc_key in uses:  # generated keys differ by their position
                doc_key += "#"
        pairs.append((doc_key, i, i))
    return pairs


def build_report(
    datasets: list[str],
    results: Iterable[tuple[str, str, dict[str, tuple]]],
    opts: EvalOptions,
    per_doc: bool = False,
) -> ScoreReport:
    """Aggregate ordered (dataset, doc_key, counts) results: counts are
    summed within a dataset and the datasets' scores macro-averaged."""
    totals: dict[str, dict[str, tuple]] = {name: {} for name in datasets}
    doc_scores: dict[str, dict[str, dict[str, PRF]]] = {}
    for name, doc_key, counts in results:
        add_counts(totals[name], counts)
        if per_doc:
            doc_scores.setdefault(name, {})[doc_key] = counts_to_prfs(counts, opts.metrics)
    per_dataset = {name: counts_to_prfs(t, opts.metrics) for name, t in totals.items()}
    return ScoreReport((opts.match, opts.keep_singletons), opts.metrics,
                       per_dataset, macro_average(per_dataset), doc_scores)


def evaluate(
    key_datasets: dict[str, list[Document]],
    resp_datasets: dict[str, list[Document]],
    opts: EvalOptions,
    per_doc: bool = False,
) -> ScoreReport:
    """Score response datasets against key datasets (same names)."""
    for name in key_datasets:
        if name not in resp_datasets:
            raise DocumentPairError(f"dataset {name} missing from the response")
    extra = set(resp_datasets) - set(key_datasets)
    if extra:
        raise DocumentPairError(
            "response datasets not present in the key: " + ", ".join(sorted(extra)))
    results = []
    for name, key_docs in key_datasets.items():
        resp_docs = resp_datasets[name]
        for doc_key, i, j in pair_documents([d.doc_id for d in key_docs],
                                            [d.doc_id for d in resp_docs], name):
            resp = None if j is None else resp_docs[j]
            results.append((name, doc_key, score_document_pair(key_docs[i], resp, opts)))
    return build_report(list(key_datasets), results, opts, per_doc)
