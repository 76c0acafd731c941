"""Corpus statistics over entities and mentions.

Three tables: entity counts and length distribution, mention counts and
length distribution (mention length = number of nonempty nodes, so zeros
have length 0), and mention detail flags (with empty node, with gap,
non-treelet) plus the head UPOS distribution.  Per-1000-words rates use
surface words only.

Every table is a function of a tally: the counts of one document
(`tally`), which add up over documents.  A corpus's row is the `row` of
the sum of its documents' tallies, so no document's layer is kept once
it is counted.
"""

from __future__ import annotations

from collections import Counter

from .heads import mention_head, treelet_roots
from .model import CorefLayer

HEAD_UPOS_COLUMNS = ("NOUN", "PRON", "PROPN", "DET", "ADJ", "VERB", "ADV", "NUM")

ENTITY_COLUMNS = ("count", "per_1k", "max_len", "avg_len",
                  "len_1", "len_2", "len_3", "len_4", "len_5plus")
MENTION_COLUMNS = ("count", "per_1k", "max_len", "avg_len",
                   "len_0", "len_1", "len_2", "len_3", "len_4", "len_5plus")
DETAIL_COLUMNS = ("w_empty", "w_gap", "non_tree") + tuple(
    t.lower() for t in HEAD_UPOS_COLUMNS) + ("other",)

TABLES = ("entities", "mentions", "details")
WORDS = ("words", None)  # the tally key of the surface word count


def tally(layer: CorefLayer, tables: tuple[str, ...], keep_singletons: bool) -> Counter:
    """The counts of one document that the rows of `tables` are made of,
    keyed (table, bucket), plus its surface words under `WORDS`: entities
    by mention count; mentions by surface length, singletons only with
    `keep_singletons`; and for "details" the mentions (under "total") and
    those with each flag or head UPOS column.  Heads are found only for
    "details"."""
    nodes = layer.nodes
    counts = Counter({WORDS: len(nodes) - sum(map(nodes.is_empty, range(len(nodes))))})
    for entity in layer.entities:
        if "entities" in tables:
            counts["entities", len(entity.mentions)] += 1
        for mention in entity.mentions:
            if "mentions" in tables and (keep_singletons or not entity.is_singleton):
                counts["mentions", mention.surface_length] += 1
            if "details" in tables:
                counts["details", "total"] += 1
                counts["details", "w_empty"] += mention.contains_empty
                counts["details", "w_gap"] += mention.is_discontinuous
                counts["details", "non_tree"] += len(treelet_roots(mention)) > 1
                tag = nodes.column(mention_head(mention), 3)
                counts["details", tag.lower() if tag in HEAD_UPOS_COLUMNS else "other"] += 1
    return counts


def row(total: Counter, table: str) -> dict[str, float]:
    """The row of `table` for the summed tallies `total`."""
    if table == "details":
        mentions = total["details", "total"]
        return {c: _pct(total["details", c], mentions) for c in DETAIL_COLUMNS}
    lengths = {key[1]: n for key, n in total.items() if key[0] == table}
    count, words = sum(lengths.values()), total[WORDS]
    out = {
        "count": count,
        "per_1k": 1000.0 * count / words if words else 0.0,
        "max_len": max(lengths, default=0),
        "avg_len": sum(length * n for length, n in lengths.items()) / count if count else 0.0,
    }
    for bucket in range(1 if table == "entities" else 0, 5):
        out[f"len_{bucket}"] = _pct(lengths.get(bucket, 0), count)
    out["len_5plus"] = _pct(sum(n for length, n in lengths.items() if length >= 5), count)
    return out


def _pct(n: int, total: int) -> float:
    return 100.0 * n / total if total else 0.0

