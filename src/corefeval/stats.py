"""Corpus statistics over entities and mentions.

Three tables: entity counts and length distribution, mention counts and
length distribution (mention length = number of nonempty nodes, so zeros
have length 0), and mention detail flags (with empty node, with gap,
non-treelet) plus the head UPOS distribution.  Per-1000-words rates use
surface words only.
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


def _surface_words(layers: list[CorefLayer]) -> int:
    return sum(1 for layer in layers for tid in layer.nodes.ids if "." not in tid)


def _length_row(lengths: list[int], words: int, first_bucket: int) -> dict[str, float]:
    """Count, rate per 1000 words, maximum and mean of `lengths`, and the
    percentage of each length from `first_bucket` to 4 and of 5 or more."""
    total = len(lengths)
    counts = Counter(lengths)

    def pct(n: int) -> float:
        return 100.0 * n / total if total else 0.0

    row = {
        "count": total,
        "per_1k": 1000.0 * total / words if words else 0.0,
        "max_len": max(lengths, default=0),
        "avg_len": sum(lengths) / total if total else 0.0,
    }
    for bucket in range(first_bucket, 5):
        row[f"len_{bucket}"] = pct(counts[bucket])
    row["len_5plus"] = pct(sum(n for length, n in counts.items() if length >= 5))
    return row


def entity_stats(layers: list[CorefLayer]) -> dict[str, float]:
    """Entity totals, rate per 1000 words and length distribution
    (length = number of mentions; singletons have length 1)."""
    lengths = [len(e.mentions) for layer in layers for e in layer.entities]
    return _length_row(lengths, _surface_words(layers), 1)


def mention_stats(layers: list[CorefLayer], include_singletons: bool = True) -> dict[str, float]:
    """Mention totals, rate per 1000 words and length distribution
    (length counts surface words only; zeros have length 0)."""
    lengths = [m.surface_length for layer in layers for e in layer.entities
               if include_singletons or not e.is_singleton for m in e.mentions]
    return _length_row(lengths, _surface_words(layers), 0)


def mention_detail_stats(layers: list[CorefLayer]) -> dict[str, float]:
    """Percentages of mentions with an empty node, with a gap and not
    forming a connected subtree, plus the head UPOS distribution.  The
    three flags are independent; a mention may carry several."""
    total = 0
    w_empty = w_gap = non_tree = 0
    upos: dict[str, int] = {}
    for layer in layers:
        for entity in layer.entities:
            for mention in entity.mentions:
                total += 1
                if mention.contains_empty:
                    w_empty += 1
                if mention.is_discontinuous:
                    w_gap += 1
                if len(treelet_roots(mention)) > 1:
                    non_tree += 1
                tag = mention_head(mention).upos
                upos[tag if tag in HEAD_UPOS_COLUMNS else "other"] = (
                    upos.get(tag if tag in HEAD_UPOS_COLUMNS else "other", 0) + 1)
    def pct(n: int) -> float:
        return 100.0 * n / total if total else 0.0

    row = {"w_empty": pct(w_empty), "w_gap": pct(w_gap), "non_tree": pct(non_tree)}
    for tag in HEAD_UPOS_COLUMNS:
        row[tag.lower()] = pct(upos.get(tag, 0))
    row["other"] = pct(upos.get("other", 0))
    return row
