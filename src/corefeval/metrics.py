"""Coreference evaluation: MUC, B³, CEAF-e, CoNLL, BLANC, LEA, the mention
overlap ratio and the anaphor-decomposable zero score.

Scoring runs per document pair: optional entity filtering by head UPOS,
optional singleton removal (on both sides), the head-match reduction when
requested, mention alignment, then metric counting.  MUC, B³, CEAF-e,
BLANC and LEA all read one key×response contingency table of the aligned
mentions, built once per document pair and kept as each entity's nonzero
cells.  Counts are plain number tuples that sum across documents
(micro aggregation inside a dataset); datasets combine by unweighted
macro-averaging.  `score_datasets` pairs, scores and sums for both
`evaluate` and the `score` command, into a `ScoreReport` of counts.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from collections import Counter
from functools import cache, partial
from itertools import accumulate, starmap
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple

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


class PRF(NamedTuple):
    recall: float
    precision: float
    f1: float


def prf(rec_num: float, rec_den: float, prec_num: float, prec_den: float) -> PRF:
    r = rec_num / rec_den if rec_den else 0.0
    p = prec_num / prec_den if prec_den else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return PRF(r, p, f)


def _mean_prfs(*prfs: PRF) -> PRF:
    return PRF(*(sum(column) / len(prfs) for column in zip(*prfs)))


def _shared_prf(num: float, key_den: int, resp_den: int) -> PRF:
    return prf(num, key_den, num, resp_den)


def blanc_prf(cc: int, ck: int, cr: int, nn: int, nk: int, nr: int) -> PRF:
    # the mean of the coreference and non-coreference scores that have links
    parts = [prf(n, k, n, r) for n, k, r in ((cc, ck, cr), (nn, nk, nr)) if k or r]
    return _mean_prfs(*parts) if parts else PRF(0.0, 0.0, 0.0)


class ZeroScoreCounts(NamedTuple):
    tp: int
    wl: int
    fp: int
    fn: int


class Metric(NamedTuple):
    """One row of `METRICS`: a metric's name, what its count function reads
    (TABLE, MENTIONS or LAYERS; a metric that averages others reads their
    names), the name of that function in this module (looked up at call
    time), the fields of its count tuple (`key_…`/`response_…` where the
    two sides trade places) and its rule from counts to a PRF."""

    name: str
    reads: str | tuple[str, ...]
    counter: str
    fields: tuple[str, ...]
    rule: Callable[..., PRF]


TABLE, MENTIONS, LAYERS = "table", "mentions", "layers"
METRICS = (  # in report order
    Metric("muc", TABLE, "muc_counts",
           ("key_links_found", "key_links", "response_links_found", "response_links"), prf),
    Metric("bcub", TABLE, "bcub_counts",
           ("key_credit", "key_mentions", "response_credit", "response_mentions"), prf),
    Metric("ceafe", TABLE, "ceafe_counts",
           ("similarity", "key_entities", "response_entities"), _shared_prf),
    Metric("conll", ("muc", "bcub", "ceafe"), "", (), _mean_prfs),
    Metric("blanc", TABLE, "blanc_counts",
           ("common_coref_links", "key_coref_links", "response_coref_links",
            "common_noncoref_links", "key_noncoref_links", "response_noncoref_links"), blanc_prf),
    Metric("lea", TABLE, "lea_counts",
           ("key_resolution", "key_importance", "response_resolution", "response_importance"),
           prf),
    Metric("mor", MENTIONS, "mor_counts", ("shared_nodes", "key_nodes", "response_nodes"),
           _shared_prf),
    Metric("zero", LAYERS, "zero_link_counts", ZeroScoreCounts._fields,
           lambda tp, wl, fp, fn: prf(tp, tp + wl + fn, tp, tp + wl + fp)),
)
ALL_METRICS = tuple(m.name for m in METRICS)
ENTITY_METRICS = tuple(m.name for m in METRICS if m.reads == TABLE)
CONLL_PARTS = METRICS[ALL_METRICS.index("conll")].reads


class _Options(NamedTuple):
    """The scoring options; `EvalOptions` checks them when they are made."""

    match: str = PARTIAL
    keep_singletons: bool = False
    metrics: tuple[str, ...] = ALL_METRICS
    upos_filter: str | None = None


class EvalOptions(_Options):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # `_replace` checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self


# ---------------------------------------------------------------------------
# Metric counting over the contingency table of the aligned mentions.
#
# Cell (K, R) counts the aligned mention pairs with the key mention in key
# entity K and the response mention in response entity R.  A side of the
# table is, in entity order, each entity's size, its row of nonzero cells
# {other entity index: aligned pairs} and the other side's entity sizes.

Side = tuple[list[int], list[dict[int, int]], list[int]]


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _muc_half(side: Side) -> tuple[int, int]:
    sizes, rows, _ = side
    num = den = 0
    for size, row in zip(sizes, rows):
        if size > 1:
            # its size less its parts: one per cell, one per unaligned mention
            num += sum(row.values()) - len(row)
            den += size - 1
    return num, den


def muc_counts(key: Side, resp: Side) -> tuple:
    return (*_muc_half(key), *_muc_half(resp))


def _bcub_half(side: Side) -> tuple[float, int]:
    sizes, rows, _ = side
    num = 0.0
    for size, row in zip(sizes, rows):
        num += sum(n * n for n in row.values()) / size
    return num, sum(sizes)


def bcub_counts(key: Side, resp: Side) -> tuple:
    return (*_bcub_half(key), *_bcub_half(resp))


def ceafe_counts(key: Side, resp: Side) -> tuple:
    """Total entity similarity 2|K∩R|/(|K|+|R|) under optimal assignment."""
    sizes, rows, resp_sizes = key
    similarity = [[(rj, 2.0 * n / (size + resp_sizes[rj])) for rj, n in row.items()]
                  for size, row in zip(sizes, rows)]
    # fsum: phi does not depend on the order the components are solved in
    phi = math.fsum(w for _, _, w in optimal_edges(similarity, len(resp_sizes)))
    return (phi, len(sizes), len(resp_sizes))


def blanc_counts(key: Side, resp: Side) -> tuple:
    """Coreference and non-coreference link counts."""
    (key_sizes, key_rows, _), (resp_sizes, resp_rows, _) = key, resp
    ck, cr = sum(map(_pairs, key_sizes)), sum(map(_pairs, resp_sizes))
    cc = sum(_pairs(n) for row in key_rows for n in row.values())
    # non-coreferent in both: pairs of aligned mentions apart on both sides
    key_aligned, resp_aligned = ([sum(row.values()) for row in rows]
                                 for rows in (key_rows, resp_rows))
    nn = (_pairs(sum(key_aligned)) - sum(map(_pairs, key_aligned))
          - sum(map(_pairs, resp_aligned)) + cc)
    nk = _pairs(sum(key_sizes)) - ck
    nr = _pairs(sum(resp_sizes)) - cr
    return (cc, ck, cr, nn, nk, nr)


def _lea_half(side: Side) -> tuple[float, int]:
    sizes, rows, other_sizes = side
    num = 0.0
    for size, row in zip(sizes, rows):
        if size == 1:
            # self-link: resolved iff the counterpart entity is the same singleton
            num += 1.0 if any(other_sizes[o] == 1 for o in row) else 0.0
        else:
            num += size * sum(map(_pairs, row.values())) / _pairs(size)
    return num, sum(sizes)


def lea_counts(key: Side, resp: Side) -> tuple:
    return (*_lea_half(key), *_lea_half(resp))


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
) -> tuple[Side, Side]:
    """Align mentions and count them into the key and the response side of
    the contingency table.  The name, from when response mentions took the
    numbers of their key partners, stays for `perfbench/tracing.py` until
    ROADMAP direction 6 part B."""
    key_index = {e.eid: i for i, e in enumerate(key_layer.entities)}
    resp_index = {e.eid: j for j, e in enumerate(resp_layer.entities)}
    pairs = align_mentions(key_layer.sorted_mentions(), resp_layer.sorted_mentions(),
                           policy).pairs
    key_rows: list[dict[int, int]] = [{} for _ in key_layer.entities]
    resp_rows: list[dict[int, int]] = [{} for _ in resp_layer.entities]
    for (i, j), n in Counter((key_index[k.eid], resp_index[r.eid]) for k, r in pairs).items():
        key_rows[i][j] = resp_rows[j][i] = n
    key_sizes = [len(e.mentions) for e in key_layer.entities]
    resp_sizes = [len(e.mentions) for e in resp_layer.entities]
    return (key_sizes, key_rows, resp_sizes), (resp_sizes, resp_rows, key_sizes)


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

    # a metric that averages others is counted as its parts, all after the
    # reduction.  So `--match head` equals `conservative-head-reduce` then
    # partial matching with singletons kept; without them, it equals
    # `remove-singletons,conservative-head-reduce` then that (reducing first
    # would let injected singletons change which spans are kept intact)
    wanted = set(opts.metrics).union(
        *(m.reads for m in METRICS if not m.counter and m.name in opts.metrics))
    counts: dict[str, tuple] = {}
    table = None
    for m in METRICS:
        if not m.counter or m.name not in wanted:
            continue
        if m.reads == TABLE:
            if table is None:
                table = relabeled_clusters(key_layer, resp_layer, policy)
            sides = table
        elif m.reads == MENTIONS:
            sides = key_layer.sorted_mentions(), resp_layer.sorted_mentions()
        else:
            sides = key_layer, resp_layer
        counts[m.name] = globals()[m.counter](*sides)
    return counts


# ---------------------------------------------------------------------------
# Aggregation

def add_counts(total: dict[str, tuple], counts: dict[str, tuple]) -> None:
    for name, values in counts.items():
        prev = total.get(name)
        total[name] = values if prev is None else tuple(a + b for a, b in zip(prev, values))


def counts_to_prfs(counts: dict[str, tuple], metrics: tuple[str, ...]) -> dict[str, PRF]:
    out: dict[str, PRF] = {}
    for m in METRICS:
        if not m.counter:
            if all(part in out for part in m.reads):
                out[m.name] = m.rule(*(out[part] for part in m.reads))
        elif m.name in counts:
            out[m.name] = m.rule(*counts[m.name])
    return {name: scores for name, scores in out.items() if name in metrics}


def macro_average(per_dataset: dict[str, dict[str, PRF]]) -> dict[str, PRF]:
    return {name: _mean_prfs(*(scores[name] for scores in per_dataset.values()))
            for name in ALL_METRICS
            if per_dataset and all(name in scores for scores in per_dataset.values())}


class ScoreReport(NamedTuple):
    """One evaluation run as counts: each dataset's summed count tuples by
    metric (`METRICS` names their fields), and each document's by dataset
    and doc_key (only with `per_doc`).  The PRF views are read from them."""

    variant: tuple[str, bool]  # (match policy, singletons kept)
    metrics: tuple[str, ...]
    counts: dict[str, dict[str, tuple]]
    doc_counts: dict[str, dict[str, dict[str, tuple]]]

    @property
    def per_dataset(self) -> dict[str, dict[str, PRF]]:
        return {name: counts_to_prfs(c, self.metrics) for name, c in self.counts.items()}

    @property
    def macro(self) -> dict[str, PRF]:
        return macro_average(self.per_dataset)

    @property
    def per_doc(self) -> dict[str, dict[str, dict[str, PRF]]]:
        return {name: {doc_key: counts_to_prfs(c, self.metrics) for doc_key, c in docs.items()}
                for name, docs in self.doc_counts.items()}


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


def score_datasets(datasets: Iterable[tuple[str, list, list]], doc_id: Callable,
                   score_all: Callable[[Iterator[tuple]], Iterable[dict[str, tuple]]],
                   opts: EvalOptions, per_doc: bool = False) -> ScoreReport:
    """The report of (name, key documents, response documents) datasets:
    the one engine of `evaluate` and the `score` command.  A document is
    what `doc_id` reads an id from (a `Document`, or the CLI's span of
    one).  The task iterator given to `score_all` pairs each dataset when
    it reaches it and yields (key, response or None, opts); `score_all`
    yields each task's counts in task order, summed in that order."""
    totals: dict[str, dict[str, tuple]] = {}
    doc_keys: list[tuple[str, str]] = []

    def tasks() -> Iterator[tuple]:
        for name, keys, resps in datasets:
            totals[name] = {}
            ids = [doc_id(d) for d in keys], [doc_id(d) for d in resps]
            for doc_key, i, j in pair_documents(*ids, name):
                doc_keys.append((name, doc_key))
                yield keys[i], None if j is None else resps[j], opts

    doc_counts: dict[str, dict[str, dict[str, tuple]]] = {}
    for n, counts in enumerate(score_all(tasks())):
        name, doc_key = doc_keys[n]
        add_counts(totals[name], counts)
        if per_doc:
            doc_counts.setdefault(name, {})[doc_key] = counts
    return ScoreReport((opts.match, opts.keep_singletons), opts.metrics, totals, doc_counts)


def evaluate(key_datasets: dict[str, list[Document]], resp_datasets: dict[str, list[Document]],
             opts: EvalOptions, per_doc: bool = False) -> ScoreReport:
    """Score response datasets against key datasets (same names)."""
    for name in key_datasets:
        if name not in resp_datasets:
            raise DocumentPairError(f"dataset {name} missing from the response")
    extra = set(resp_datasets) - set(key_datasets)
    if extra:
        raise DocumentPairError(
            "response datasets not present in the key: " + ", ".join(sorted(extra)))
    datasets = ((name, docs, resp_datasets[name]) for name, docs in key_datasets.items())
    return score_datasets(datasets, attrgetter("doc_id"),
                          partial(starmap, score_document_pair), opts, per_doc)
