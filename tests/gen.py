"""Random CorefUD document generator for tests.

Emits CoNLL-U text directly (independently of the package serializer) from
explicit mention descriptions, so tests always know which node sets each
mention is supposed to contain.  Node positions are document-wide indexes
over surface words and empty nodes in order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

UPOS_CHOICES = ("NOUN", "VERB", "PROPN", "PRON", "DET", "ADJ", "ADV", "NUM")
LEMMAS = ("dog", "cat", "house", "river", "idea", "brown", "smith", "car",
          "tree", "bird", "stone", "cloud")
GENDERS = ("Masc", "Fem", "Neut")
DEPRELS = ("nsubj", "obj", "obl", "nmod", "amod", "det", "advmod", "conj", "flat")


@dataclass
class NodeSpec:
    tid: str              # CoNLL-U id within the sentence ("3" or "3.1")
    form: str
    lemma: str
    upos: str
    feats: str            # raw FEATS column
    head: str             # raw HEAD column ("0", "2", or "_")
    deprel: str
    deps: str              # raw DEPS column
    is_empty: bool
    position: int = -1     # document-wide position, filled by Skeleton


@dataclass
class SentenceSpec:
    nodes: list[NodeSpec]


@dataclass
class MentionSpec:
    eid: str
    positions: tuple[int, ...]      # document-wide node positions, sorted
    fields: tuple[str, ...] = ()    # opening fields (etype, head index, ...)


@dataclass
class Skeleton:
    doc_id: str
    sentences: list[SentenceSpec]
    nodes: list[NodeSpec] = field(default_factory=list)

    def __post_init__(self):
        for sent in self.sentences:
            for node in sent.nodes:
                node.position = len(self.nodes)
                self.nodes.append(node)

    def parent_position(self, node: NodeSpec) -> int | None:
        """Position of the basic parent (first enhanced parent for empty
        nodes), resolved like the toolkit resolves them."""
        sent = next(s for s in self.sentences if node in s.nodes)
        by_id = {n.tid: n for n in sent.nodes}
        if node.is_empty:
            head = node.deps.split("|")[0].split(":")[0] if node.deps != "_" else "0"
        else:
            head = node.head
        if head in ("0", "_") or head not in by_id:
            return None
        return by_id[head].position


def random_skeleton(rng: random.Random, doc_id: str,
                    n_sentences: tuple[int, int] = (1, 4),
                    n_words: tuple[int, int] = (3, 9),
                    p_empty: float = 0.15) -> Skeleton:
    sentences = []
    for _ in range(rng.randint(*n_sentences)):
        count = rng.randint(*n_words)
        nodes: list[NodeSpec] = []
        for i in range(1, count + 1):
            lemma = rng.choice(LEMMAS)
            upos = rng.choice(UPOS_CHOICES)
            feats = f"Gender={rng.choice(GENDERS)}" if (
                upos in ("NOUN", "PRON") and rng.random() < 0.8) else "_"
            head = "0" if i == 1 else str(rng.randint(1, i - 1))
            deprel = "root" if i == 1 else rng.choice(DEPRELS)
            nodes.append(NodeSpec(str(i), f"{lemma}{i}", lemma, upos, feats,
                                  head, deprel, "_", False))
            if rng.random() < p_empty:
                parent = rng.randint(1, i)
                nodes.append(NodeSpec(f"{i}.1", "_", "_", "PRON", "_", "_",
                                      "_", f"{parent}:nsubj", True))
        sentences.append(SentenceSpec(nodes))
    return Skeleton(doc_id, sentences)


def conllu_text(skel: Skeleton, mentions: list[MentionSpec]) -> str:
    """Emit CoNLL-U text with the given mention annotation."""
    opens: dict[int, list[str]] = {}
    closes: dict[int, list[str]] = {}
    for mention in sorted(mentions, key=lambda m: (m.positions[0],
                                                   -m.positions[-1], m.eid)):
        runs: list[list[int]] = [[mention.positions[0]]]
        for pos in mention.positions[1:]:
            if pos == runs[-1][-1] + 1:
                runs[-1].append(pos)
            else:
                runs.append([pos])
        fields = "".join("-" + f for f in mention.fields)
        for part_no, run in enumerate(runs, start=1):
            label = mention.eid
            if len(runs) > 1:
                label += f"[{part_no}/{len(runs)}]"
            body = label + (fields if part_no == 1 else "")
            if len(run) == 1:
                opens.setdefault(run[0], []).append(f"({body})")
            else:
                opens.setdefault(run[0], []).append(f"({body}")
                closes.setdefault(run[-1], []).insert(0, f"{label})")

    lines = [f"# newdoc id = {skel.doc_id}"]
    for i, sent in enumerate(skel.sentences, start=1):
        lines.append(f"# sent_id = {skel.doc_id}-s{i}")
        for node in sent.nodes:
            entity = ("".join(closes.get(node.position, ()))
                      + "".join(opens.get(node.position, ())))
            misc = f"Entity={entity}" if entity else "_"
            lines.append("\t".join([node.tid, node.form, node.lemma, node.upos,
                                    "_", node.feats, node.head, node.deprel,
                                    node.deps, misc]))
        lines.append("")
    return "\n".join(lines) + "\n"


def _spans_overlap(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return not (a[-1] < b[0] or b[-1] < a[0])


def random_mentions(rng: random.Random, skel: Skeleton, eid_prefix: str = "e",
                    n_entities: tuple[int, int] = (1, 4),
                    n_mentions: tuple[int, int] = (1, 4),
                    p_discontinuous: float = 0.15,
                    p_zero: float = 0.2,
                    p_provided_head: float = 0.0,
                    no_singletons: bool = False,
                    treelet_only: bool = False,
                    distinct_heads: bool = False) -> list[MentionSpec]:
    """Draw a random, serializable mention annotation.

    Mentions of one entity never overlap (the bracket format could not
    express that).  With `treelet_only`, every mention is a node plus a
    subset of its children, making its head predictable; `distinct_heads`
    additionally makes all mention heads distinct document-wide.
    """
    mentions: list[MentionSpec] = []
    used_heads: set[int] = set()
    for e in range(rng.randint(*n_entities)):
        eid = f"{eid_prefix}{e + 1}"
        want = rng.randint(*n_mentions)
        if no_singletons:
            want = max(want, 2)
        spans: list[tuple[int, ...]] = []
        for _ in range(want * 4):
            if len(spans) >= want:
                break
            span = _random_span(rng, skel, p_discontinuous, p_zero,
                                treelet_only, distinct_heads, used_heads)
            if span is None:
                continue
            if any(_spans_overlap(span, other) for other in spans):
                continue
            spans.append(span)
            if distinct_heads:
                used_heads.add(_span_head(skel, span))
        if no_singletons and len(spans) < 2:
            continue
        for span in sorted(spans):
            fields: tuple[str, ...] = ()
            if rng.random() < p_provided_head:
                fields = ("thing", str(rng.randint(1, len(span))))
            mentions.append(MentionSpec(eid, span, fields))
    return mentions


def _random_span(rng, skel: Skeleton, p_discontinuous: float, p_zero: float,
                 treelet_only: bool, distinct_heads: bool,
                 used_heads: set[int]) -> tuple[int, ...] | None:
    sent = rng.choice(skel.sentences)
    nodes = sent.nodes
    if treelet_only:
        root = rng.choice(nodes)
        if distinct_heads and root.position in used_heads:
            return None
        children = [n for n in nodes
                    if skel.parent_position(n) == root.position]
        take = [c.position for c in children if rng.random() < 0.7]
        return tuple(sorted([root.position] + take))
    empties = [n for n in nodes if n.is_empty]
    if empties and rng.random() < p_zero:
        return (rng.choice(empties).position,)
    start = rng.randrange(len(nodes))
    length = min(rng.randint(1, 4), len(nodes) - start)
    span = [n.position for n in nodes[start:start + length]]
    if rng.random() < p_discontinuous and start + length + 1 < len(nodes):
        extra_at = rng.randrange(start + length + 1, len(nodes))
        span.append(nodes[extra_at].position)
    return tuple(sorted(span))


def _span_head(skel: Skeleton, span: tuple[int, ...]) -> int:
    """Head of a treelet span: the node whose parent is outside."""
    inside = set(span)
    for pos in span:
        parent = skel.parent_position(skel.nodes[pos])
        if parent is None or parent not in inside:
            return pos
    return span[0]


def perturb_mentions(rng: random.Random, mentions: list[MentionSpec],
                     skel: Skeleton,
                     p_drop: float = 0.2,
                     p_shrink: float = 0.3,
                     p_relabel: float = 0.2) -> list[MentionSpec]:
    """A response-like variant of a key annotation: drops mentions,
    shrinks spans (keeping a random node subset) and moves mentions
    between entities."""
    eids = sorted({m.eid for m in mentions}) or ["e1"]
    out: list[MentionSpec] = []
    spans_by_eid: dict[str, list[tuple[int, ...]]] = {}
    for mention in mentions:
        if rng.random() < p_drop:
            continue
        span = mention.positions
        if len(span) > 1 and rng.random() < p_shrink:
            keep = sorted(rng.sample(span, rng.randint(1, len(span))))
            span = tuple(keep)
        eid = mention.eid
        if rng.random() < p_relabel:
            eid = rng.choice(eids)
        if any(_spans_overlap(span, other) for other in spans_by_eid.get(eid, ())):
            continue
        spans_by_eid.setdefault(eid, []).append(span)
        out.append(MentionSpec(eid, span))
    return out


def reduce_to_span_heads(mentions: list[MentionSpec], skel: Skeleton) -> list[MentionSpec]:
    """Head-only response for treelet mentions (head known by construction)."""
    out: dict[tuple[str, int], MentionSpec] = {}
    for mention in mentions:
        head = _span_head(skel, mention.positions)
        out[(mention.eid, head)] = MentionSpec(mention.eid, (head,))
    return list(out.values())


def random_document(rng: random.Random, doc_id: str, **mention_kwargs) -> tuple[Skeleton, list[MentionSpec], str]:
    skel = random_skeleton(rng, doc_id)
    mentions = random_mentions(rng, skel, **mention_kwargs)
    return skel, mentions, conllu_text(skel, mentions)


def random_pair(seed: int) -> tuple[str, str]:
    """A key of one to three documents and a response drawn from it, as
    texts: general mentions (shared heads, discontinuous spans, provided
    heads, singletons), perturbed by `perturb_mentions`."""
    rng = random.Random(seed)
    key, resp = [], []
    for d in range(rng.randint(1, 3)):
        skel = random_skeleton(rng, f"d{d}", n_sentences=(1, 4))
        specs = random_mentions(rng, skel, p_discontinuous=rng.choice((0.15, 0.4)),
                                p_provided_head=rng.choice((0.0, 0.5)))
        key.append(conllu_text(skel, specs))
        resp.append(conllu_text(skel, perturb_mentions(rng, specs, skel)))
    return "".join(key), "".join(resp)


def respan_around_heads(rng: random.Random, mentions: list[MentionSpec],
                        skel: Skeleton,
                        p_drop: float = 0.15,
                        p_relabel: float = 0.15) -> list[MentionSpec]:
    """Response variant of a treelet annotation that keeps every mention's
    head but redraws which of the head's children are in the span (possibly
    adding words the key span did not have)."""
    eids = sorted({m.eid for m in mentions}) or ["e1"]
    out: list[MentionSpec] = []
    used: dict[str, list[tuple[int, ...]]] = {}
    children_of: dict[int, list[int]] = {}
    for node in skel.nodes:
        parent = skel.parent_position(node)
        if parent is not None:
            children_of.setdefault(parent, []).append(node.position)
    for mention in mentions:
        if rng.random() < p_drop:
            continue
        head = _span_head(skel, mention.positions)
        take = [c for c in children_of.get(head, ()) if rng.random() < 0.6]
        span = tuple(sorted([head] + take))
        eid = rng.choice(eids) if rng.random() < p_relabel else mention.eid
        if any(_spans_overlap(span, other) for other in used.get(eid, ())):
            continue
        used.setdefault(eid, []).append(span)
        out.append(MentionSpec(eid, span))
    return out


def synthetic_corpus(rng: random.Random, n_docs: int, sents_per_doc: int,
                     words_per_sent: int, perturb: bool = False) -> str:
    """Large benchmark corpus: multi-word entity mentions every other
    sentence, pronoun-style mentions in between, an anaphoric zero every
    tenth sentence.  With `perturb`, spans shrink and some mentions drop,
    producing a response-like variant over the same tokens."""
    out: list[str] = []
    for d in range(n_docs):
        out.append(f"# newdoc id = doc{d}")
        eid = 0
        current = None
        for s in range(sents_per_doc):
            out.append(f"# sent_id = doc{d}-s{s}")
            start_new = s % 2 == 0
            if start_new:
                eid += 1
                current = f"e{eid}"
            dropped = perturb and rng.random() < 0.1
            close_at = 3 if perturb and rng.random() < 0.4 else 4
            for w in range(1, words_per_sent + 1):
                misc = "_"
                if not dropped:
                    if w == 2 and start_new:
                        misc = f"Entity=({current}"
                    elif w == close_at and start_new:
                        misc = f"Entity={current})"
                    elif w == 6 and not start_new:
                        misc = f"Entity=({current})"
                head = "0" if w == 1 else str(rng.randint(1, w - 1))
                deprel = "root" if w == 1 else "dep"
                out.append(f"{w}\tw{w}\tl{w}\tNOUN\t_\t_\t{head}\t{deprel}\t_\t{misc}")
            if s % 10 == 5:
                out.append(f"{words_per_sent}.1\t_\t_\tPRON\t_\t_\t_\t_"
                           f"\t1:nsubj\tEntity=({current})")
            out.append("")
    return "\n".join(out) + "\n"
