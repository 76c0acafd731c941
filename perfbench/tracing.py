"""Traced in-process replay of the CLI's per-document sequence.

The replay parses a workload's command line with the CLI's own parser and
then calls the package's public functions in the order `score`,
`transform` and `baseline` call them, with a span around each call.  Two
module attributes are wrapped while a replay runs, to time and count
alignment: `corefeval.metrics.align_mentions` and
`corefeval.align.linear_sum_assignment` (counted only inside
`align_mentions`; the mention-overlap metric calls it too).

Spans stay in memory as (name, start, end, parent) and are reduced to
per-layer self times at the end.  A layer's self time is the duration of
its spans minus the time their child spans cover, so alignment inside
`relabeled_clusters` counts once, as `align.align`.
"""

from __future__ import annotations

import statistics
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import corefeval.align
import corefeval.metrics
from corefeval.align import EXACT, HEAD, PARTIAL
from corefeval.baselines import BASELINE_RULES
from corefeval.cli import build_parser
from corefeval.conllu import docs_to_text, parse_text, scan_document_spans
from corefeval.heads import mention_head
from corefeval.metrics import (
    CONLL_PARTS,
    ENTITY_METRICS,
    EvalOptions,
    add_counts,
    bcub_counts,
    blanc_counts,
    ceafe_counts,
    check_same_nodes,
    counts_to_prfs,
    lea_counts,
    macro_average,
    mor_counts,
    muc_counts,
    relabeled_clusters,
    score_document_pair,
    zero_link_counts,
)
from corefeval.model import build_coref_layer
from corefeval.transforms import (
    LAYER_TRANSFORMS,
    conservative_head_reduce_layer,
    filter_by_head_upos_layer,
    merge_same_span_layer,
    remove_singletons_layer,
    rewrite_entity_annotations,
    strip_entities,
)

# spans whose self time is a layer metric ("<name>_s")
LAYER_SPANS = (
    "cli.read",
    "conllu.scan", "conllu.parse", "conllu.copy", "conllu.serialize",
    "model.build",
    "heads.head",
    "transforms.filter", "transforms.head_reduce", "transforms.merge",
    "transforms.strip", "transforms.rewrite",
    "align.align",
    "metrics.check_nodes", "metrics.relabel", "metrics.zero", "metrics.muc",
    "metrics.bcub", "metrics.ceafe", "metrics.blanc", "metrics.lea",
    "metrics.mor", "metrics.aggregate",
    "baselines.rules",
)
COUNTS = ("conllu.lines", "model.nodes", "model.mentions", "heads.calls",
          "align.lsa_calls", "align.lsa_cells", "align.pairs",
          "baselines.entities_out")

_ENTITY_COUNTERS = {"muc": muc_counts, "bcub": bcub_counts, "ceafe": ceafe_counts,
                    "blanc": blanc_counts, "lea": lea_counts}
# spans of the rewrite operations the workloads run
_OP_SPANS = {conservative_head_reduce_layer: "transforms.head_reduce",
             merge_same_span_layer: "transforms.merge",
             **{rule: "baselines.rules" for rule in BASELINE_RULES.values()}}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> Counter:
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _parent), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]


@contextmanager
def instrument(tracer: Tracer):
    """Route alignment through timed and counting wrappers."""
    align_mentions = corefeval.metrics.align_mentions
    lsa = corefeval.align.linear_sum_assignment
    inside = False

    def traced_align(key_ms, resp_ms, policy):
        nonlocal inside
        inside = True
        try:
            result = tracer.call("align.align", align_mentions, key_ms, resp_ms, policy)
        finally:
            inside = False
        tracer.counts["align.pairs"] += len(result.pairs)
        return result

    def counted_lsa(cost, *args, **kwargs):
        if inside:
            tracer.counts["align.lsa_calls"] += 1
            tracer.counts["align.lsa_cells"] += cost.size
        return lsa(cost, *args, **kwargs)

    corefeval.metrics.align_mentions = traced_align
    corefeval.align.linear_sum_assignment = counted_lsa
    try:
        yield
    finally:
        corefeval.metrics.align_mentions = align_mentions
        corefeval.align.linear_sum_assignment = lsa


def eval_options(args) -> EvalOptions:
    """The options `cmd_score` builds from its arguments."""
    return EvalOptions(
        match=args.match,
        keep_singletons=args.keep_singletons,
        metrics=tuple(m.strip() for m in args.metrics.split(",") if m.strip()),
        upos_filter=args.upos_filter,
    )


def replay(tracer: Tracer, argv: list[str]):
    """Run one CLI command as traced library calls.  Returns the per-document
    counts of `score` or the output text of `transform`/`baseline`."""
    args = build_parser().parse_args(argv)
    if args.command == "score":
        return _replay_score(tracer, args.key, args.response, eval_options(args))
    if args.command == "transform":
        ops = [LAYER_TRANSFORMS[n.strip()] for n in args.ops.split(",") if n.strip()]
        return _replay_rewrite(tracer, args.paths[0], ops, strip=False)
    if args.command == "baseline":
        names = [args.pipeline] if args.pipeline else args.rules.split(",")
        return _replay_rewrite(tracer, args.paths[0],
                               [BASELINE_RULES[n.strip()] for n in names], args.strip)
    raise ValueError(f"no replay for {args.command!r}")


# ---------------------------------------------------------------------------
# score

def _paired_chunks(key_data: bytes, resp_data: bytes, key_spans, resp_spans):
    """Key and response chunks paired by document id; the generated inputs
    carry unique ids on both sides."""
    by_id = {doc_id: (start, end) for doc_id, start, end in resp_spans}
    for doc_id, start, end in key_spans:
        rs, re_ = by_id[doc_id]
        yield key_data[start:end], resp_data[rs:re_]


def _replay_score(tr: Tracer, key_path: str, resp_path: str, opts: EvalOptions):
    key_data = tr.call("cli.read", Path(key_path).read_bytes)
    resp_data = tr.call("cli.read", Path(resp_path).read_bytes)
    key_spans = tr.call("conllu.scan", scan_document_spans, key_data)
    resp_spans = tr.call("conllu.scan", scan_document_spans, resp_data)
    totals: dict[str, tuple] = {}
    per_doc = []
    for key_chunk, resp_chunk in _paired_chunks(key_data, resp_data, key_spans, resp_spans):
        counts = tr.call("doc", _score_pair, tr, key_chunk, resp_chunk, opts)
        tr.call("metrics.aggregate", add_counts, totals, counts)
        per_doc.append(counts)
    name = Path(key_path).stem
    per_dataset = {name: tr.call("metrics.aggregate", counts_to_prfs, totals, opts.metrics)}
    tr.call("metrics.aggregate", macro_average, per_dataset)
    return per_doc


def _parse_chunk(chunk: bytes):
    return parse_text(chunk.decode("utf-8"))[0]


def _heads(mentions) -> None:
    for mention in mentions:
        mention_head(mention)


def _mentions(layer) -> list:
    return [m for e in layer.entities for m in e.mentions]


def _score_pair(tr: Tracer, key_chunk: bytes, resp_chunk: bytes, opts: EvalOptions) -> dict:
    """`score_document_pair` as separately timed calls."""
    call = tr.call
    key_doc = call("conllu.parse", _parse_chunk, key_chunk)
    resp_doc = call("conllu.parse", _parse_chunk, resp_chunk)
    key_layer = call("model.build", build_coref_layer, key_doc)
    resp_layer = call("model.build", build_coref_layer, resp_doc)
    call("metrics.check_nodes", check_same_nodes, key_layer, resp_layer)
    tr.counts["conllu.lines"] += key_chunk.count(b"\n") + resp_chunk.count(b"\n")
    tr.counts["model.nodes"] += len(key_layer.nodes) + len(resp_layer.nodes)
    tr.counts["model.mentions"] += len(_mentions(key_layer)) + len(_mentions(resp_layer))

    for layer in (key_layer, resp_layer):
        if opts.upos_filter:
            call("transforms.filter", filter_by_head_upos_layer, layer, opts.upos_filter)
        if not opts.keep_singletons:
            call("transforms.filter", remove_singletons_layer, layer)
    # fills the head cache, so that alignment below excludes head finding
    mentions = _mentions(key_layer) + _mentions(resp_layer)
    call("heads.head", _heads, mentions)
    tr.counts["heads.calls"] += len(mentions)
    if opts.match == HEAD:
        call("transforms.head_reduce", conservative_head_reduce_layer, key_layer)
        call("transforms.head_reduce", conservative_head_reduce_layer, resp_layer)
    policy = EXACT if opts.match == EXACT else PARTIAL

    counts: dict[str, tuple] = {}
    if "zero" in opts.metrics:
        counts["zero"] = call("metrics.zero", zero_link_counts, key_layer, resp_layer)
    entity_metrics = [m for m in ENTITY_METRICS if m in opts.metrics]
    if "conll" in opts.metrics:
        entity_metrics = sorted(set(entity_metrics) | set(CONLL_PARTS),
                                key=ENTITY_METRICS.index)
    if entity_metrics:
        key_clusters, resp_clusters = call(
            "metrics.relabel", relabeled_clusters, key_layer, resp_layer, policy)
        for name in entity_metrics:
            counts[name] = call(f"metrics.{name}", _ENTITY_COUNTERS[name],
                                key_clusters, resp_clusters)
    if "mor" in opts.metrics:
        counts["mor"] = call("metrics.mor", lambda: mor_counts(
            key_layer.sorted_mentions(), resp_layer.sorted_mentions()))
    return counts


def score_drift(argv: list[str], traced: list[dict]) -> int:
    """Untimed check: the number of documents whose counts rebuilt from the
    per-layer calls differ from `score_document_pair`'s."""
    args = build_parser().parse_args(argv)
    opts = eval_options(args)
    key_data = Path(args.key).read_bytes()
    resp_data = Path(args.response).read_bytes()
    pairs = _paired_chunks(key_data, resp_data, scan_document_spans(key_data),
                           scan_document_spans(resp_data))
    expected = [score_document_pair(_parse_chunk(k), _parse_chunk(r), opts)
                for k, r in pairs]
    return (sum(a != b for a, b in zip(expected, traced))
            + abs(len(expected) - len(traced)))


# ---------------------------------------------------------------------------
# transform / baseline

def _rewrite_doc(tr: Tracer, doc, ops, strip: bool):
    """One document of `_rewrite_files`."""
    call = tr.call
    doc = call("conllu.copy", doc.copy)
    if strip:
        doc = call("transforms.strip", strip_entities, doc)
    layer = call("model.build", build_coref_layer, doc)
    mentions = _mentions(layer)
    tr.counts["model.nodes"] += len(layer.nodes)
    tr.counts["model.mentions"] += len(mentions)
    call("heads.head", _heads, mentions)
    tr.counts["heads.calls"] += len(mentions)
    for op in ops:
        call(_OP_SPANS[op], op, layer)
    if any(op in BASELINE_RULES.values() for op in ops):
        tr.counts["baselines.entities_out"] += len(layer.entities)
    call("transforms.rewrite", rewrite_entity_annotations, doc, layer)
    return doc


def _replay_rewrite(tr: Tracer, path: str, ops, strip: bool) -> str:
    text = tr.call("cli.read", Path(path).read_text, "utf-8")
    docs = tr.call("conllu.parse", parse_text, text, path)
    tr.counts["conllu.lines"] += text.count("\n")
    out = [tr.call("doc", _rewrite_doc, tr, doc, ops, strip) for doc in docs]
    return tr.call("conllu.serialize", docs_to_text, out)


# ---------------------------------------------------------------------------
# metrics of one traced pass

def layer_metrics(tr: Tracer, total_s: float, main_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, given its total time and the
    time of the untraced in-process `main()` on the same input."""
    self_t = tr.self_times()
    out = {f"{name}_s": self_t[name] for name in LAYER_SPANS}
    out.update({name: float(tr.counts[name]) for name in COUNTS})
    calls = tr.counts["align.lsa_calls"]
    out["align.pairs_per_lsa_call"] = tr.counts["align.pairs"] / max(calls, 1)
    docs_ms = [d * 1000.0 for d in tr.durations("doc")]
    out["doc.latency_p50_ms"] = statistics.median(docs_ms)
    out["doc.latency_p90_ms"] = statistics.quantiles(docs_ms, n=10, method="inclusive")[8]
    out["cli.other_s"] = main_s - sum(self_t[name] for name in LAYER_SPANS)
    out["trace.total_s"] = total_s
    out["trace.overhead_s"] = total_s - main_s
    return out
