"""Seeded input generators for the benchmark workloads.

The benchmark owns these generators, so that an edit to the test-suite
generator cannot change what the benchmark measures.  Each generator takes
a `random.Random` and returns CoNLL-U text; the same seed gives the same
bytes.  Sizes are fixed and only the content varies with the seed, so that
runs on different seeds do the same amount of work.

Three shapes:

* `corpus`: the shape of acceptance criterion 9 (85 sentences x 24 words
  per document, one mention per sentence, an anaphoric zero every tenth
  sentence) with a perturbed response over the same tokens.  Every
  alignment component is a single key/response edge.
* `stress`: short documents whose alignment components are dense.  Key
  trees are chains, so a contiguous span's head is its last word.  "Nest"
  sentences carry `NEST` nested key mentions ending on one word, one per
  entity, and the response puts `RESP` single-word mentions on that word,
  again one per entity.  Every entity recurs in every nest sentence.
  Filler sentences between them carry discontinuous mentions and anaphoric
  zeros of those long chains.
* `rewrite`: documents with a realistic part-of-speech, lemma and gender
  mix (recurring proper-noun names with `flat`, gendered nouns and
  pronouns), multiword range lines, empty nodes, discontinuous mentions and
  a few pronouns annotated in two entities, so that the transforms and the
  baseline rules all have work to do.
"""

from __future__ import annotations

import random

NEST = 32
RESP = 16


def _entity_values(mentions: list[tuple[str, tuple[int, ...]]]) -> dict[int, str]:
    """`Entity` values by node position; brackets in the order the
    toolkit writes them (closes innermost first, then opens)."""
    opens: dict[int, list[str]] = {}
    closes: dict[int, list[str]] = {}
    for eid, positions in sorted(mentions, key=lambda m: (m[1][0], -m[1][-1], m[0])):
        runs = [[positions[0]]]
        for pos in positions[1:]:
            if pos == runs[-1][-1] + 1:
                runs[-1].append(pos)
            else:
                runs.append([pos])
        for part, run in enumerate(runs, start=1):
            label = eid if len(runs) == 1 else f"{eid}[{part}/{len(runs)}]"
            if len(run) == 1:
                opens.setdefault(run[0], []).append(f"({label})")
            else:
                opens.setdefault(run[0], []).append(f"({label}")
                closes.setdefault(run[-1], []).insert(0, f"{label})")
    return {pos: "".join(closes.get(pos, ())) + "".join(opens.get(pos, ()))
            for pos in opens.keys() | closes.keys()}


class _Doc:
    """Rows of one document; node positions count words and empty nodes,
    not multiword range lines."""

    def __init__(self, doc_id: str):
        self.doc_id = doc_id
        self.sentences: list[list[tuple]] = []
        self.nodes = 0

    def sentence(self) -> None:
        self.sentences.append([])

    def row(self, tid: str, form: str, lemma: str = "_", upos: str = "_",
            feats: str = "_", head: str = "_", deprel: str = "_",
            deps: str = "_", misc: str = "", node: bool = True) -> int:
        pos = self.nodes if node else -1
        self.sentences[-1].append(
            (pos, tid, form, lemma, upos, feats, head, deprel, deps, misc))
        if node:
            self.nodes += 1
        return pos

    def lines(self, mentions: list[tuple[str, tuple[int, ...]]]) -> list[str]:
        values = _entity_values(mentions)
        out = [f"# newdoc id = {self.doc_id}"]
        for s, rows in enumerate(self.sentences, start=1):
            out.append(f"# sent_id = {self.doc_id}-s{s}")
            for pos, *cols, misc in rows:
                attrs = [f"Entity={values[pos]}"] if pos in values else []
                if misc:
                    attrs.append(misc)
                cols.insert(4, "_")  # XPOS
                out.append("\t".join(cols + ["|".join(attrs) or "_"]))
            out.append("")
        return out


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# corpus: key vs perturbed response, criterion-9 shape

def corpus(rng: random.Random, n_docs: int, sents: int = 85,
           words: int = 24) -> tuple[str, str]:
    key: list[str] = []
    resp: list[str] = []
    for d in range(n_docs):
        for out in (key, resp):
            out.append(f"# newdoc id = doc{d}")
        eid = 0
        for s in range(sents):
            for out in (key, resp):
                out.append(f"# sent_id = doc{d}-s{s}")
            opens = s % 2 == 0
            if opens:
                eid += 1
            dropped = rng.random() < 0.1
            close_at = 3 if rng.random() < 0.4 else 4
            for w in range(1, words + 1):
                head = "0" if w == 1 else str(rng.randint(1, w - 1))
                row = f"{w}\tw{w}\tl{w}\tNOUN\t_\t_\t{head}\t{'root' if w == 1 else 'dep'}\t_\t"
                key_misc = resp_misc = "_"
                if opens and w == 2:
                    key_misc = resp_misc = f"Entity=(e{eid}"
                elif opens and w == 4:
                    key_misc = f"Entity=e{eid})"
                elif not opens and w == 6:
                    key_misc = resp_misc = f"Entity=(e{eid})"
                if opens and w == 3 and close_at == 3:
                    resp_misc = f"Entity=e{eid})"
                elif opens and w == 4 and close_at == 4:
                    resp_misc = f"Entity=e{eid})"
                key.append(row + key_misc)
                resp.append(row + ("_" if dropped else resp_misc))
            if s % 10 == 5:
                row = f"{words}.1\t_\t_\tPRON\t_\t_\t_\t_\t1:nsubj\tEntity=(e{eid})"
                key.append(row)
                resp.append(row)
            for out in (key, resp):
                out.append("")
    return _text(key), _text(resp)


# ---------------------------------------------------------------------------
# stress: dense same-head nesting, long chains, discontinuous mentions, zeros

def _chain_sentence(doc: _Doc, n_words: int, empty_after: int = 0) -> tuple[list[int], int]:
    """Words 1..n, each the child of the next; the last is the root.  With
    `empty_after`, an empty node follows that word.  Returns the word
    positions and the empty node's position (-1 without one)."""
    words = []
    empty = -1
    for w in range(1, n_words + 1):
        head = "0" if w == n_words else str(w + 1)
        words.append(doc.row(str(w), f"s{w}", f"s{w}", "NOUN", "_", head,
                             "root" if w == n_words else "dep"))
        if w == empty_after:
            empty = doc.row(f"{w}.1", "_", "_", "PRON", deps=f"{w}:nsubj")
    return words, empty


def stress(rng: random.Random, n_docs: int, nest_sents: int) -> tuple[str, str]:
    key: list[str] = []
    resp: list[str] = []
    filler_words = 8
    for d in range(n_docs):
        doc = _Doc(f"stress{d}")
        key_ms: list[tuple[str, tuple[int, ...]]] = []
        resp_ms: list[tuple[str, tuple[int, ...]]] = []
        for _ in range(nest_sents):
            doc.sentence()
            words, _ = _chain_sentence(doc, NEST + 3)
            at = rng.randint(NEST, NEST + 2)  # 1-based id of the shared head
            head = words[at - 1]
            for k in range(1, NEST + 1):
                key_ms.append((f"n{k}", tuple(range(head - k + 1, head + 1))))
            for r in range(1, RESP + 1):
                resp_ms.append((f"r{r}", (head,)))

            doc.sentence()
            surface, zero = _chain_sentence(doc, filler_words,
                                            rng.randint(1, filler_words))
            a = rng.randint(0, 1)
            b = rng.randint(a + 3, len(surface) - 2)
            disc = (surface[a], surface[a + 1], surface[b], surface[b + 1])
            key_ms.append((f"d{rng.randint(1, 4)}", disc))
            resp_ms.append((f"d{rng.randint(1, 4)}", disc))
            key_ms.append((f"n{rng.randint(1, NEST)}", (zero,)))
            resp_ms.append((f"r{rng.randint(1, RESP)}", (zero,)))
        key += doc.lines(key_ms)
        resp += doc.lines(resp_ms)
    return _text(key), _text(resp)


# ---------------------------------------------------------------------------
# rewrite: realistic mix for the transforms and the baseline rules

NAMES = (("Anna", "Berg", "Fem"), ("Karel", "Novak", "Masc"),
         ("Marie", "Holm", "Fem"), ("Jan", "Lind", "Masc"),
         ("Eva", "Stone", "Fem"), ("Petr", "Vale", "Masc"))
NOUNS = (("dog", "Masc"), ("house", "Neut"), ("river", "Fem"), ("car", "Neut"),
         ("letter", "Masc"), ("garden", "Fem"), ("idea", "Fem"), ("stone", "Masc"),
         ("bird", "Masc"), ("table", "Neut"), ("song", "Fem"), ("road", "Fem"))
PRONOUNS = {"Masc": "he", "Fem": "she", "Neut": "it"}
VERBS = ("see", "take", "find", "give", "know", "like", "move", "hold")
ADJS = ("old", "red", "small", "quiet", "new", "dark")
ADVS = ("again", "today", "slowly", "there")


def rewrite(rng: random.Random, n_docs: int, sents: int) -> str:
    lines: list[str] = []
    for d in range(n_docs):
        doc = _Doc(f"news{d}")
        mentions: list[tuple[str, tuple[int, ...]]] = []
        state = _RewriteState()
        for _ in range(sents):
            doc.sentence()
            _rewrite_sentence(rng, doc, mentions, state)
        lines += doc.lines(mentions)
    return _text(lines)


class _RewriteState:
    """Entity bookkeeping of one document: names and noun lemmas keep
    their entity; pronouns and zeros refer back by gender."""

    def __init__(self):
        self.next_eid = 0
        self.by_name: dict[str, str] = {}
        self.by_noun: dict[str, str] = {}
        self.recent: list[tuple[str, str]] = []  # (eid, gender), newest last

    def new(self) -> str:
        self.next_eid += 1
        return f"e{self.next_eid}"

    def referent(self, gender: str | None) -> str:
        for eid, g in reversed(self.recent[-8:]):
            if gender is None or g == gender:
                return eid
        return self.new()

    def seen(self, eid: str, gender: str) -> None:
        self.recent.append((eid, gender))


def _rewrite_sentence(rng: random.Random, doc: _Doc, mentions: list,
                      state: _RewriteState) -> None:
    # words as (form, lemma, upos, feats, head index or -1, deprel, misc);
    # chunks record which word indices form a mention and of which entity
    words: list[list] = []
    chunks: list[tuple[str, list[int]]] = []
    ranges: dict[int, str] = {}  # first word index -> multiword token form

    def add(form, lemma, upos, feats="_", head=None, deprel="dep", misc=""):
        words.append([form, lemma, upos, feats, head, deprel, misc])
        return len(words) - 1

    def noun_phrase(deprel: str, contracted: bool = False) -> tuple[list[int], str]:
        lemma, gender = rng.choice(NOUNS)
        first = len(words)
        if contracted:
            ranges[first] = "du"
            add("de", "de", "ADP", deprel="case")
        det = add("the", "the", "DET", deprel="det")
        if rng.random() < 0.4:
            adj = rng.choice(ADJS)
            add(adj, adj, "ADJ", deprel="amod")
        noun = add(lemma, lemma, "NOUN", f"Gender={gender}", deprel=deprel)
        for i in range(first, noun):
            words[i][4] = noun
        eid = state.by_noun.get(lemma) if rng.random() < 0.6 else None
        if eid is None:
            eid = state.by_noun[lemma] = state.new()
        state.seen(eid, gender)
        return list(range(det, noun + 1)), eid

    def argument(deprel: str) -> int:
        """A name, pronoun or noun phrase; returns its head word."""
        kind = rng.random()
        if kind < 0.3:
            first, last, gender = rng.choice(NAMES)
            a = add(first, first, "PROPN", deprel=deprel)
            add(last, last, "PROPN", head=a, deprel="flat")
            if first not in state.by_name:
                state.by_name[first] = state.new()
            eid = state.by_name[first]
            state.seen(eid, gender)
            chunks.append((eid, [a, a + 1]))
            return a
        if kind < 0.5:
            gender = rng.choice(("Masc", "Fem", "Neut"))
            p = add(PRONOUNS[gender], PRONOUNS[gender], "PRON", f"Gender={gender}",
                    deprel=deprel)
            eid = state.referent(gender)
            state.seen(eid, gender)
            chunks.append((eid, [p]))
            if rng.random() < 0.15:  # annotated in two entities
                other = state.referent(None)
                if other != chunks[-1][0]:
                    chunks.append((other, [p]))
            return p
        span, eid = noun_phrase(deprel)
        chunks.append((eid, span))
        return span[-1]

    argument("nsubj")
    lemma = rng.choice(VERBS)
    verb = add(lemma, lemma, "VERB", deprel="root")
    obj = argument("obj")
    zero = rng.random() < 0.3
    if rng.random() < 0.5:
        span, eid = noun_phrase("obl", contracted=True)
        chunks.append((eid, span))
    if rng.random() < 0.25 and words[obj][2] == "NOUN":
        # the object mention continues discontinuously over a trailing adverb
        lemma = rng.choice(ADVS)
        adv = add(lemma, lemma, "ADV", deprel="advmod")
        for i, (eid, span) in enumerate(chunks):
            if span[-1] == obj:
                chunks[i] = (eid, span + [adv])
    punct = add(".", ".", "PUNCT", deprel="punct")
    for i, w in enumerate(words):
        if w[4] is None:
            w[4] = -1 if i == verb else verb
    words[punct - 1][6] = "SpaceAfter=No"

    positions: dict[int, int] = {}
    for i, (form, lemma, upos, feats, head, deprel, misc) in enumerate(words):
        if i in ranges:
            doc.row(f"{i + 1}-{i + 2}", ranges[i], node=False)
        positions[i] = doc.row(str(i + 1), form, lemma, upos, feats,
                               str(head + 1), deprel, misc=misc)
        if zero and i == verb:
            zero_pos = doc.row(f"{i + 1}.1", "_", "_", "PRON",
                               deps=f"{i + 1}:nsubj")
            mentions.append((state.referent(None), (zero_pos,)))
    for eid, span in chunks:
        mentions.append((eid, tuple(positions[i] for i in span)))
