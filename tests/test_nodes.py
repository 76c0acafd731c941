"""`Nodes` builds each node on first use and reads the tree as positions:
the built nodes, parents and depths against a reference read from the raw
lines, and counts of the nodes built."""

import random

import pytest

import gen
from corefeval import conllu
from corefeval.cli import main, validate_path
from corefeval.conllu import iter_documents, parse_file, parse_text
from corefeval.metrics import EvalOptions, check_same_nodes, score_document_pair
from corefeval.model import build_coref_layer

FIELDS = ("index", "sent_index", "line", "id", "is_empty", "form", "lemma",
          "upos", "gender", "deprel")


def _vary(text: str, rng: random.Random) -> str:
    """`text` with what `gen` does not write: multiword range lines,
    dependency cycles, unresolved heads, heads on empty nodes and empty
    nodes with several or unresolved enhanced heads."""
    blocks = []
    for block in text.rstrip("\n").split("\n\n"):
        lines = block.split("\n")
        comments = [line for line in lines if line.startswith("#")]
        rows = [line.split("\t") for line in lines if not line.startswith("#")]
        ids = [row[0] for row in rows]
        words = [row for row in rows if "." not in row[0]]
        for row in rows:
            r = rng.random()
            if "." in row[0]:
                if r < 0.4:
                    row[8] = (f"{rng.choice(ids)}:dep|0:root|{len(words) + 3}:obj"
                              f"|{rng.choice(ids)}:conj")
            elif r < 0.15:
                row[6] = rng.choice(ids)  # may close a cycle, or be the node itself
            elif r < 0.25:
                row[6] = rng.choice((str(len(words) + 1), "1.9", "01"))
        if rng.random() < 0.3:
            words[0][6] = words[-1][0]  # the root joins a cycle
        body, free = [], 1
        for row in rows:
            if "." not in row[0] and free <= int(row[0]) < len(words) and rng.random() < 0.3:
                body.append(f"{row[0]}-{int(row[0]) + 1}\tfused" + "\t_" * 8)
                free = int(row[0]) + 2
            body.append("\t".join(row))
        blocks.append("\n".join(comments + body))
    return "\n\n".join(blocks) + "\n\n"


def _reference(lines: list[str]) -> list[dict]:
    """Each node's fields read from `lines`, with `parent` and
    `enhanced_parents` as positions."""
    sentences: list[list[tuple[int, list[str]]]] = [[]]
    for at, line in enumerate(lines):
        if line == "":
            sentences.append([])
        elif not line.startswith("#") and "-" not in line.split("\t")[0]:
            sentences[-1].append((at, line.split("\t")))
    out: list[dict] = []
    for sent, rows in enumerate(sentences):
        position = {row[0]: len(out) + k for k, (_at, row) in enumerate(rows)}
        for at, row in rows:
            empty = "." in row[0]
            deps = [] if row[8] in ("_", "") else [d.partition(":") for d in row[8].split("|")]
            out.append({
                "index": len(out), "sent_index": sent, "line": at, "id": row[0],
                "is_empty": empty, "form": row[1], "lemma": row[2], "upos": row[3],
                "gender": next((f[len("Gender="):] for f in row[5].split("|")
                                if f.startswith("Gender=")), None),
                "deprel": next((rel for _h, _s, rel in deps if rel), "") if empty else row[7],
                "parent": None if empty else position.get(row[6]),
                "enhanced_parents": [position[h] for h, _s, _rel in deps
                                     if h != "0" and h in position] if empty else [],
            })
    return out


def _documents(fixtures_dir) -> list[str]:
    texts = [conllu.doc_to_text(doc) for path in sorted(fixtures_dir.glob("*.conllu"))
             for doc in parse_file(path)]
    rng = random.Random(5)
    for k in range(60):
        skel = gen.random_skeleton(rng, f"r{k}", p_empty=0.3)
        texts.append(_vary(gen.conllu_text(skel, gen.random_mentions(rng, skel)), rng))
    return texts


def _as_built(node) -> dict:
    return {field: getattr(node, field) for field in FIELDS}


def _tree(rows: list[dict]) -> tuple[list[int], list[int | None]]:
    """`Nodes.parent` and `Nodes.depth` of each node, from the `_reference`
    rows: an empty node hangs off its first enhanced parent, and a depth
    that runs into a cycle is None."""
    parents = [(row["enhanced_parents"] or [-1])[0] if row["is_empty"]
               else -1 if row["parent"] is None else row["parent"] for row in rows]
    depths: list[int | None] = []
    for at in range(len(rows)):
        seen: set[int] = set()
        while at >= 0 and at not in seen:
            seen.add(at)
            at = parents[at]
        depths.append(len(seen) - 1 if at < 0 else None)
    return parents, depths


class TestBuiltNodesEqualTheLines:
    @pytest.mark.parametrize("order", ["forward", "reverse", "shuffled"])
    def test_every_node(self, fixtures_dir, order):
        rng = random.Random(order)
        texts = _documents(fixtures_dir)
        assert sum(not line.startswith("#") and "-" in line.split("\t")[0]
                   for text in texts for line in text.split("\n")) > 50
        for text in texts:
            doc = parse_text(text)[0]
            nodes = doc.nodes
            positions = list(range(len(nodes)))
            if order == "forward":
                built = list(nodes)
            else:
                if order == "reverse":
                    positions.reverse()
                else:
                    rng.shuffle(positions)
                built = [None] * len(nodes)
                for i in positions:
                    built[i] = nodes[i]
            rows = _reference(doc.lines)
            assert [_as_built(node) for node in built] == [
                {field: row[field] for field in FIELDS} for row in rows], text
            parents, depths = _tree(rows)
            got = [None] * len(nodes)
            for i in positions:
                got[i] = (nodes.depth(i), nodes.parent(i))
            assert got == list(zip(depths, parents)), text
            copy = doc.copy()
            for i in positions:
                assert nodes[i] is built[i] and copy.nodes[i] is built[i]
            if built:
                assert nodes[-1] is built[-1]
                assert nodes[1:3] == built[1:3]
            with pytest.raises(IndexError):
                nodes[len(nodes)]

    def test_the_documents_have_cycles_and_unresolved_heads(self, fixtures_dir):
        cycles = unresolved = several = 0
        for text in _documents(fixtures_dir):
            lines = parse_text(text)[0].lines
            rows = _reference(lines)
            for row in rows:
                head = lines[row["line"]].split("\t")[6]
                unresolved += row["parent"] is None and head not in ("0", "_")
                several += len(row["enhanced_parents"]) > 1
                seen, at = set(), row["index"]
                while at is not None and at not in seen:
                    seen.add(at)
                    at = rows[at]["parent"]
                cycles += at is not None
        assert unresolved > 40 and cycles > 100 and several > 50


class TestWords:
    def test_words_are_the_nodes_with_those_tags(self, fixtures_dir):
        """`Nodes.words` against the built nodes, on lines whose XPOS,
        lemma or form spell another UPOS tag."""
        rng = random.Random(9)
        tags = [*gen.UPOS_CHOICES, "X"]
        for text in _documents(fixtures_dir):
            rows = [line.split("\t") for line in text.split("\n")]
            for row in rows:
                if len(row) == 10:
                    row[1:3] = rng.choice(tags), rng.choice(tags)
                    row[4] = rng.choice(tags)
            doc = parse_text("\n".join("\t".join(row) for row in rows))[0]
            for upos in (("PROPN",), ("NOUN", "PRON")):
                words = list(doc.nodes.words(*upos))
                assert words == [(n.index, n.upos, n.lemma, n.gender) for n in doc.nodes
                                 if n.upos in upos and not n.is_empty], text

@pytest.fixture
def built(monkeypatch) -> list[int]:
    """A one-element list counting `Node` constructions."""
    count = [0]
    init = conllu.Node.__init__

    def counting_init(self, *args):
        count[0] += 1
        init(self, *args)

    monkeypatch.setattr(conllu.Node, "__init__", counting_init)
    return count


@pytest.fixture
def corpus(tmp_path):
    """A key and a response file shaped like the benchmark corpus: a mention
    in every sentence, an empty node in every tenth."""
    key, resp = tmp_path / "key.conllu", tmp_path / "resp.conllu"
    key.write_text(gen.synthetic_corpus(random.Random(3), 2, 30, 24))
    resp.write_text(gen.synthetic_corpus(random.Random(3), 2, 30, 24, perturb=True))
    return key, resp


@pytest.fixture
def tagged(tmp_path):
    """Documents with every UPOS the baseline rules read, `Gender` on most
    nouns and pronouns, and a few entities."""
    rng = random.Random(7)
    parts = []
    for d in range(4):
        skel = gen.random_skeleton(rng, f"d{d}", n_sentences=(20, 30), n_words=(8, 15))
        parts.append(gen.conllu_text(skel, gen.random_mentions(rng, skel, n_entities=(3, 6))))
    path = tmp_path / "tagged.conllu"
    path.write_text("".join(parts))
    return path


def _mention_nodes(doc) -> set[int]:
    """The positions of the document's mention nodes."""
    return {i for _eid, runs, _f in doc.mentions for first, last in runs
            for i in range(first, last + 1)}


class TestNodesBuilt:
    def test_reading_builds_none(self, built, corpus, fixtures_dir):
        key, resp = corpus
        paths = [key, resp, *sorted(fixtures_dir.glob("*.conllu"))]
        for path in paths:
            assert parse_text(path.read_text())
            assert list(iter_documents(path))
            assert validate_path(str(path)) == []
            validate_path(str(path), strict=True)
        assert built[0] == 0

    def test_checking_the_nodes_builds_none(self, built, corpus):
        key, resp = corpus
        for key_doc, resp_doc in zip(parse_file(key), parse_file(resp)):
            key_layer, resp_layer = build_coref_layer(key_doc), build_coref_layer(resp_doc)
            before = built[0]
            check_same_nodes(key_layer, resp_layer)
            check_same_nodes(key_layer, key_layer)
            assert built[0] == before

    @pytest.mark.parametrize("match", ["partial", "exact", "head"])
    def test_scoring_builds_none(self, built, corpus, match):
        key, resp = corpus
        for key_doc, resp_doc in zip(parse_file(key), parse_file(resp)):
            assert score_document_pair(key_doc, resp_doc, EvalOptions(match=match))
        assert built[0] == 0

    def test_upos_filter_builds_only_mention_nodes(self, built, corpus):
        """The filter reads the UPOS of heads and of their flat children."""
        key, resp = corpus
        for key_doc, resp_doc in zip(parse_file(key), parse_file(resp)):
            before = built[0]
            score_document_pair(key_doc, resp_doc, EvalOptions(upos_filter="NOUN"))
            bound = len(_mention_nodes(key_doc)) + len(_mention_nodes(resp_doc))
            assert 0 < built[0] - before <= bound < len(key_doc.nodes)

    @pytest.mark.parametrize("rules", [["--pipeline", "simple-rule-based", "--strip"],
                                       ["--rules", "pronoun-gender,propn-lemma"]])
    def test_baseline_builds_none(self, built, tagged, tmp_path, rules):
        out = tmp_path / "out.conllu"
        assert main(["baseline", str(tagged), *rules, "-o", str(out), "--jobs", "1"]) == 0
        assert out.read_text() != tagged.read_text() and built[0] == 0
