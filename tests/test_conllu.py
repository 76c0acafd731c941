import random
import re
from collections import Counter

import pytest

import gen
import oracles
from corefeval import conllu
from corefeval.conllu import (
    EntityReader,
    parse_text,
    docs_to_text,
    scan_document_spans,
)
from corefeval.errors import ConlluParseError


def make_doc(*sentences: list[str], doc_id: str = "d1") -> str:
    lines = [f"# newdoc id = {doc_id}"]
    for sent in sentences:
        lines.extend(sent)
        lines.append("")
    return "\n".join(lines) + "\n"


def tok(tid: str, misc: str = "_", head: str = "0", form: str = "w") -> str:
    return "\t".join([tid, form, form, "NOUN", "_", "_", head, "dep", "_", misc])


def read(*values: tuple[int, str]) -> list:
    """The mentions `EntityReader` reads from (position, value) pairs."""
    reader = EntityReader()
    for position, value in values:
        reader.feed(position, value)
    return reader.end()


class TestEntityReader:
    def test_open_with_fields(self):
        assert read((0, "(e5-person-1-"), (2, "e5)")) == [
            ("e5", (0, 1, 2), ("person", "1", ""))]

    def test_self_closing(self):
        assert read((3, "(e9)")) == [("e9", (3,), ())]

    def test_part_markers(self):
        assert read((0, "(e7[1/2]-org-1-"), (1, "e7[1/2])"), (3, "(e7[2/2]"),
                    (4, "e7[2/2])")) == [("e7", (0, 1, 3, 4), ("org", "1", ""))]

    def test_multiple_brackets(self):
        # a close, a one-node mention and an open in one value
        assert read((0, "(e1"), (1, "e1)(e2-x-1)(e3"), (2, "e3)")) == [
            ("e1", (0, 1), ()), ("e2", (1,), ("x", "1")), ("e3", (1, 2), ())]

    @pytest.mark.parametrize("value, message", [
        ("", "empty Entity value"),
        ("(", "missing entity id in Entity value '('"),
        ("e1", "cannot parse Entity value 'e1' at offset 2"),
        ("(e1[1/1]", "part index out of range in Entity value '(e1[1/1]'"),
        ("(e1[0/2]", "part index out of range in Entity value '(e1[0/2]'"),
        ("(e1]", "cannot parse Entity value '(e1]' at offset 3"),
        ("(e1[1/²])", "malformed part index in Entity value '(e1[1/²])'"),
        # a number has no leading zero
        ("(e1[01/2])", "malformed part index in Entity value '(e1[01/2])'"),
        ("(e1[1/02])", "malformed part index in Entity value '(e1[1/02])'"),
        # of two faults, the first in reading order
        ("e9)(e1[0/2]", "unbalanced Entity bracket: close of 'e9' without open"),
        ("(e1(e1(e2]", "entity 'e1' opened twice without distinct part indices"),
    ])
    def test_malformed(self, value, message):
        with pytest.raises(ConlluParseError) as exc:
            parse_text(make_doc([tok("1", f"Entity={value}")]))
        assert str(exc.value) == f"<string>:2: {message}"


# pieces of random Entity values: every character the brackets use ("0"
# makes leading zeros, "²" is a digit that is not ASCII), whole brackets
# and a part without its "]"
_VALUE_PIECES = [*"()[]-/e12x0²", "(e1", "(e2-x-1", "(e1[1/2]-y", "e1)", "e2)", "e1[2/2])",
                 "(e1)", "(e2[2/2])", "[1/2]", "[2/2]", "[1/2"]


def _reference_feed(reader: EntityReader, position: int, value: str) -> None:
    """`EntityReader.feed`, with the brackets read by `oracles.entity_scan`."""
    for kind, eid, part, fields in oracles.entity_scan(value, ConlluParseError):
        if kind == "close":
            opened = reader.open.pop((eid, part), None)
            if opened is None:
                raise ConlluParseError(
                    f"unbalanced Entity bracket: close of {eid!r} without open")
            reader._complete(eid, part, (opened[0], position), opened[1])
        elif kind == "single":
            reader._complete(eid, part, (position, position), fields)
        elif (eid, part) in reader.open:
            raise ConlluParseError(f"entity {eid!r} opened twice without distinct part indices")
        else:
            reader.open[eid, part] = (position, fields)


def _outcome(feed, values: list[str]):
    """The mentions, open brackets and waiting parts after feeding
    `values`, or the type and message of what the feed raised."""
    reader = EntityReader()
    try:
        for position, value in enumerate(values):
            feed(reader, position, value)
    except Exception as exc:
        return type(exc), exc.args
    return reader._mentions, reader.open, reader._waiting


def test_reader_agrees_with_the_reference_scanner():
    """On seeded random value lists, malformed ones included, the reader
    and the reference give the same mentions and open brackets, or the same
    error; on a value the reference reads, `oracles.entity_brackets` reads
    the same brackets."""
    rng = random.Random(33)
    errors = 0
    for _ in range(20000):
        values = ["".join(rng.choices(_VALUE_PIECES, k=rng.randint(0, 6)))
                  for _ in range(rng.randint(1, 4))]
        expected = _outcome(_reference_feed, values)
        assert _outcome(EntityReader.feed, values) == expected, values
        errors += expected[0] is ConlluParseError
        for value in values:
            try:
                brackets = list(oracles.entity_scan(value))
            except ValueError:
                continue
            assert oracles.entity_brackets(value) == brackets, value
    assert 0 < errors < 20000  # both outcomes are drawn


class TestParsing:
    def test_documents_and_sentences(self):
        text = make_doc([tok("1")], [tok("1"), tok("2", head="1")]) + make_doc(
            [tok("1")], doc_id="d2")
        docs = parse_text(text)
        assert [d.doc_id for d in docs] == ["d1", "d2"]
        # each sentence ends in one blank line
        assert [d.lines.count("") for d in docs] == [2, 1]
        assert docs[0].nodes.sent_index == [0, 1, 1]

    def test_comments_preserved(self):
        text = make_doc(["# sent_id = s1", "# text = w", tok("1")])
        doc = parse_text(text)[0]
        assert doc.lines == [
            "# newdoc id = d1", "# sent_id = s1", "# text = w", tok("1"), ""]
        assert doc.nodes.line_index[0] == 3

    def test_file_without_newdoc_is_one_document(self):
        docs = parse_text(tok("1") + "\n\n")
        assert len(docs) == 1 and docs[0].doc_id is None

    def test_header_only_document(self):
        text = "# newdoc id = d1\n# note = empty\n\n"
        docs = parse_text(text)
        assert len(docs[0].nodes) == 0 and docs[0].nodes.ids == []
        assert docs[0].lines == ["# newdoc id = d1", "# note = empty", ""]
        assert docs_to_text(docs) == text

    def test_entity_extraction(self):
        text = make_doc([tok("1", "SpaceAfter=No|Entity=(e1)")])
        doc = parse_text(text)[0]
        assert conllu.entity_value(doc.lines[doc.nodes.line_index[0]]) == "(e1)"
        assert doc.mentions == [("e1", (0,), ())]

    @pytest.mark.parametrize("bad,message", [
        (make_doc(["1\tw\tw\tNOUN\t_\t_\t0\tdep\t_"]), "10 tab-separated"),
        (make_doc([tok("x1")]), "id syntax"),
        (make_doc([tok("2")]), "not consecutive"),
        (make_doc([tok("1"), tok("1.2"), tok("1.1")]), "strictly increasing"),
        (make_doc([tok("2.1")]), "does not follow"),
        (make_doc([tok("1"), tok("1-2", head="_")]), "does not start"),
        # two blank lines between sentences, and a blank line that opens the file
        ("# newdoc id = d1\n" + tok("1") + "\n\n\n" + tok("1") + "\n\n",
         "<string>:4: empty sentence"),
        ("# newdoc id = d1\n" + tok("1") + "\n\n\n# sent_id = 2\n" + tok("1") + "\n\n",
         "<string>:4: empty sentence"),
        ("\n" + tok("1") + "\n\n", "<string>:1: empty sentence"),
        (make_doc([tok("1"), "# late comment"]), "<string>:3: comment after token"),
        # non-ASCII digits, which str.isdigit accepts
        (make_doc([tok("1"), tok("1.²")]), "<string>:3: unknown token id syntax"),
        (make_doc([tok("1-²", head="_"), tok("1")]), "<string>:2: unknown token id syntax"),
        # a number has no leading zero; "0" is one, which the range checks refuse
        (make_doc([tok("1"), tok("1.01")]),
         re.escape("<string>:3: unknown token id syntax '1.01'")),
        (make_doc([tok("1"), tok("01.1")]),
         re.escape("<string>:3: unknown token id syntax '01.1'")),
        (make_doc([tok("01-2", head="_"), tok("1"), tok("2")]),
         re.escape("<string>:2: unknown token id syntax '01-2'")),
        (make_doc([tok("1-02", head="_"), tok("1"), tok("2")]),
         re.escape("<string>:2: unknown token id syntax '1-02'")),
        (make_doc([tok("1"), tok("1.0")]),
         re.escape("<string>:3: unknown token id syntax '1.0'")),
        (make_doc([tok("0")]), re.escape("<string>:2: unknown token id syntax '0'")),
        (make_doc([tok("0-1", head="_"), tok("1")]),
         re.escape("<string>:2: token range 0-1 does not start at next word id")),
        # a range past the sentence's last word, and ranges that overlap
        (make_doc([tok("1-3", head="_"), tok("1"), tok("2")]),
         "<string>:5: token range 1-3 exceeds sentence"),
        # ... at the blank line that closes an inner sentence
        (make_doc([tok("1-3", head="_"), tok("1"), tok("2")], [tok("1")]),
         "<string>:5: token range 1-3 exceeds sentence"),
        (make_doc([tok("1-3", head="_"), tok("1"), tok("2-3", head="_")]),
         "<string>:4: overlapping token ranges at 2-3"),
    ])
    def test_structural_errors(self, bad, message):
        with pytest.raises(ConlluParseError, match=message):
            parse_text(bad)

    def test_empty_node_order(self):
        # each word's empty nodes strictly increase; a later word starts afresh
        text = "\n".join(tok(tid) for tid in ("1", "1.1", "2", "2.1")) + "\n\n"
        assert parse_text(text)[0].nodes.ids == ["1", "1.1", "2", "2.1"]
        # n.k orders by the integer k within word n, however large k is:
        # 1.2000000000 does not hold back word 2's empty nodes, and two k
        # that differ by one stay apart
        for tids in (("1", "1.2000000000", "2", "2.1"), ("0.1", "1"), ("1", "1.9", "1.10"),
                     ("1", "1.100000000000000000", "1.100000000000000001"),
                     # words past the ids of the parse's fast path
                     (*map(str, range(1, 258)), "257.1", "258", "258.1")):
            text = "\n".join(tok(tid) for tid in tids) + "\n\n"
            assert parse_text(text)[0].nodes.ids == list(tids)
        with pytest.raises(ConlluParseError,
                           match="<string>:3: empty node ids not strictly increasing at 1.1"):
            parse_text("\n".join(tok(tid) for tid in ("1", "1.1", "1.1")) + "\n\n")
        # a k with a leading zero is no number, not a repeat of 1.1
        with pytest.raises(ConlluParseError) as exc:
            parse_text("\n".join(tok(tid) for tid in ("1", "1.01", "1.1")) + "\n\n")
        assert str(exc.value) == "<string>:2: unknown token id syntax '1.01'"

    def test_comment_only_block_is_a_sentence(self):
        doc = parse_text(make_doc([tok("1")], ["# note = x"], [tok("1")]))[0]
        assert doc.nodes.sent_index == [0, 2]
        assert doc.lines.count("") == 3

    def test_entity_on_range_line_rejected(self):
        text = make_doc([
            "1-2\tdont\t_\t_\t_\t_\t_\t_\t_\tEntity=(e1)",
            tok("1"), tok("2", head="1")])
        with pytest.raises(ConlluParseError, match="range line"):
            parse_text(text)

    def test_unbalanced_brackets(self):
        with pytest.raises(ConlluParseError, match="unclosed"):
            parse_text(make_doc([tok("1", "Entity=(e1")]))
        with pytest.raises(ConlluParseError, match="without open"):
            parse_text(make_doc([tok("1", "Entity=e1)")]))
        # one entity id open with and without a part index
        with pytest.raises(ConlluParseError, match="unclosed Entity bracket for 'e1' at"):
            parse_text(make_doc([tok("1", "Entity=(e1(e1[1/2]")]))

    def test_duplicate_open_without_parts(self):
        text = make_doc([tok("1", "Entity=(e1"), tok("2", "Entity=(e1", head="1")])
        with pytest.raises(ConlluParseError, match="opened twice"):
            parse_text(text)

    def test_duplicate_open_with_distinct_parts_ok(self):
        text = make_doc([
            tok("1", "Entity=(e1[1/2]"),
            tok("2", "Entity=(e1[2/2]", head="1"),
            tok("3", "Entity=e1[1/2])", head="1"),
            tok("4", "Entity=e1[2/2])", head="1"),
        ])
        parse_text(text)

    def test_missing_final_newline_warns_once(self, caplog):
        text = make_doc([tok("1")]) + make_doc([tok("1")], doc_id="d2").rstrip("\n")
        with caplog.at_level("WARNING", logger="corefeval"):
            docs = parse_text(text, path="f.conllu")
        assert [d.doc_id for d in docs] == ["d1", "d2"]
        assert [r.getMessage() for r in caplog.records] == [
            "f.conllu: file does not end with a newline"]

    def test_cross_sentence_mention_warns_not_fails(self, caplog):
        text = make_doc([tok("1", "Entity=(e1")], [tok("1", "Entity=e1)")])
        with caplog.at_level("WARNING", logger="corefeval"):
            parse_text(text)
        assert any("crosses a sentence boundary" in r.message for r in caplog.records)

    def test_mention_open_over_three_sentences_warns_at_each_crossing(self, caplog):
        text = make_doc([tok("1", "Entity=(e1")], [tok("1")], [tok("1", "Entity=e1)")])
        with caplog.at_level("WARNING", logger="corefeval"):
            parse_text(text, path="f.conllu")
        assert [r.getMessage() for r in caplog.records] == [
            "f.conllu: mention of e1 crosses a sentence boundary in document d1"] * 2

    def test_bracket_open_at_document_end_is_an_error_not_a_crossing(self, caplog):
        text = make_doc([tok("1", "Entity=(e1)")], [tok("1", "Entity=(e3")])
        with caplog.at_level("WARNING", logger="corefeval"):
            with pytest.raises(ConlluParseError, match="unclosed Entity bracket for 'e3'"):
                parse_text(text)
        assert not any("crosses" in r.message for r in caplog.records)


class TestRoundTrip:
    def test_fixture_files_byte_identical(self, fixtures_dir):
        for path in sorted(fixtures_dir.glob("*.conllu")):
            text = path.read_text(encoding="utf-8")
            assert docs_to_text(parse_text(text, path=str(path))) == text, path.name

    def test_random_files_byte_identical(self, rng):
        for seed in range(40):
            sub = random.Random(seed)
            _, _, text = gen.random_document(
                sub, f"doc{seed}", p_provided_head=0.3, p_discontinuous=0.3)
            assert docs_to_text(parse_text(text)) == text, f"seed {seed}"

    def test_multi_document_file(self, rng):
        parts = [gen.random_document(random.Random(s), f"d{s}")[2] for s in range(5)]
        text = "".join(parts)
        assert docs_to_text(parse_text(text)) == text

    def test_order_preserved(self, rng):
        _, _, text = gen.random_document(rng, "docx")
        doc = parse_text(text)[0]
        again = parse_text(docs_to_text([doc]))[0]
        assert again.lines == doc.lines
        assert again.nodes.line_index == doc.nodes.line_index


def scan_chunks(text: str) -> list[tuple[str | None, str]]:
    """(doc_id, chunk text) per span of `scan_document_spans`."""
    data = text.encode("utf-8")
    return [(doc_id, data[start:end].decode("utf-8"))
            for doc_id, start, end in scan_document_spans(data)]


class TestDocumentSplitting:
    def test_chunks_parse_to_same_documents(self, rng):
        parts = [gen.random_document(random.Random(s), f"d{s}")[2] for s in range(4)]
        text = "".join(parts)
        chunks = scan_chunks(text)
        assert [c[0] for c in chunks] == [f"d{s}" for s in range(4)]
        whole = parse_text(text)
        for (doc_id, chunk), doc in zip(chunks, whole):
            par = parse_text(chunk)
            assert len(par) == 1
            assert docs_to_text(par) == docs_to_text([doc])

    def test_preamble_without_id(self):
        text = tok("1") + "\n\n" + make_doc([tok("1")])
        assert [c[0] for c in scan_chunks(text)] == [None, "d1"]
        assert [d.doc_id for d in parse_text(text)] == [None, "d1"]

    def test_fast_scanner_equivalent_to_line_splitter(self):
        # each scanned chunk parses to the document that parsing the whole
        # file line by line yields
        parts = [gen.random_document(random.Random(s), f"d{s}")[2]
                 for s in range(5)]
        # non-ASCII forms exercise byte-offset handling
        czech = make_doc(["# sent_id = s1", tok("1", form="želva"),
                          tok("2", "Entity=(e1)", "1", form="ptáček")],
                         doc_id="čeština")
        text = czech + "".join(parts)
        fast = scan_chunks(text)
        whole = parse_text(text)
        assert [c[0] for c in fast] == [d.doc_id for d in whole]
        for (fid, ftext), doc in zip(fast, whole):
            assert parse_text(ftext)[0].doc_id == fid
            assert docs_to_text(parse_text(ftext)) == docs_to_text([doc])

    def test_fast_scanner_comment_before_marker(self):
        text = (make_doc([tok("1")])
                + "# leading comment\n# newdoc id = d2\n" + tok("1") + "\n\n")
        chunks = scan_chunks(text)
        assert [c[0] for c in chunks] == ["d1", "d2"]
        doc2 = parse_text(chunks[1][1])[0]
        assert doc2.lines[0] == "# leading comment"

    def test_two_markers_in_one_block_agree_across_splitters(self):
        text = "# newdoc id = a\n# newdoc id = b\n" + tok("1") + "\n\n"
        assert [c[0] for c in scan_chunks(text)] == ["b"]
        assert [d.doc_id for d in parse_text(text)] == ["b"]

    def test_leading_blank_line_before_newdoc(self):
        # one blank line opening the file belongs to no document
        text = "\n" + make_doc([tok("1")]) + make_doc([tok("1")], doc_id="d2")
        assert [c for c in scan_chunks(text)] == [
            ("d1", make_doc([tok("1")])), ("d2", make_doc([tok("1")], doc_id="d2"))]
        docs = parse_text(text)
        assert [d.doc_id for d in docs] == ["d1", "d2"]
        assert docs_to_text(docs) == text[1:]
        with pytest.raises(ConlluParseError, match="<string>:6: expected 10"):
            parse_text(text.replace(tok("1") + "\n\n# newdoc id = d2",
                                    tok("1") + "\n\n# newdoc id = d2\nbad"))

    def test_error_line_numbers_count_from_file_start(self):
        text = make_doc([tok("1")]) + "\n" + make_doc([tok("1"), "x\ty"], doc_id="d2")
        with pytest.raises(ConlluParseError, match="f.conllu:7: expected 10"):
            parse_text(text, path="f.conllu")

    def test_comment_that_only_starts_with_the_marker(self):
        # `# newdocument_note` is an ordinary comment: it neither starts a
        # document nor names one
        text = make_doc([tok("1")], ["# newdocument_note = foo", tok("1")])
        assert [c[0] for c in scan_chunks(text)] == ["d1"]
        docs = parse_text(text)
        assert [d.doc_id for d in docs] == ["d1"]
        assert docs[0].lines.count("") == 2
        # one opening the file leaves it an id-less document
        text = "# newdocument_note = foo\n" + tok("1") + "\n\n"
        assert [c[0] for c in scan_chunks(text)] == [None]
        assert [d.doc_id for d in parse_text(text)] == [None]

    def test_bare_marker_starts_a_document_without_id(self):
        text = make_doc([tok("1")]) + "# newdoc\n" + tok("1") + "\n\n"
        assert [c[0] for c in scan_chunks(text)] == ["d1", None]
        docs = parse_text(text)
        assert [d.doc_id for d in docs] == ["d1", None]
        assert docs[1].lines == ["# newdoc", tok("1"), ""]

    def test_invalid_utf8_in_newdoc_line_names_its_line(self, tmp_path):
        text = make_doc([tok("1")]) + "\n" + make_doc([tok("1")], doc_id="d2")
        data = text.encode().replace(b"id = d2", b"id = d\xff2")
        with pytest.raises(ConlluParseError) as info:
            scan_document_spans(data)
        assert (info.value.path, info.value.line) == (None, 5)
        path = tmp_path / "f.conllu"
        path.write_bytes(data)
        with pytest.raises(ConlluParseError, match=f"{path}:5: invalid UTF-8"):
            conllu.parse_file(path)


def regex_spans(data: bytes) -> list[tuple[str | None, int, int]]:
    """`scan_document_spans` as written with a multiline regex for a
    `# newdoc` line (the marker as a whole word): the reference the byte
    search must agree with."""
    starts: list[tuple[int, str | None]] = []
    for match in re.finditer(rb"^# newdoc(?=[ \t\r\n]|$)", data, re.MULTILINE):
        at = data.rfind(b"\n\n", 0, match.start())
        start = at + 2 if at != -1 else int(data.startswith(b"\n"))
        line_end = data.find(b"\n", match.start())
        line = data[match.start():line_end if line_end != -1 else len(data)]
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            raise ConlluParseError("invalid UTF-8",
                                   line=data.count(b"\n", 0, match.start()) + 1) from None
        doc_id = text.split("=", 1)[1].strip() if "=" in text else None
        if starts and starts[-1][0] == start:
            starts[-1] = (start, doc_id)
        else:
            starts.append((start, doc_id))
    spans = []
    if not starts or starts[0][0] > 0:
        end = starts[0][0] if starts else len(data)
        if data[:end].strip(b"\n"):
            spans.append((None, 0, end))
    for i, (start, doc_id) in enumerate(starts):
        spans.append((doc_id, start, starts[i + 1][0] if i + 1 < len(starts) else len(data)))
    return spans


class TestScanMatchesRegex:
    def check(self, text: str) -> None:
        data = text.encode("utf-8")
        assert scan_document_spans(data) == regex_spans(data), text

    def test_fixtures(self, fixtures_dir):
        for path in sorted(fixtures_dir.glob("*.conllu")):
            data = path.read_bytes()
            assert scan_document_spans(data) == regex_spans(data), path.name

    def test_random_files(self):
        for seed in range(30):
            rng = random.Random(seed)
            parts = [gen.random_document(rng, f"d{seed}-{d}")[2]
                     for d in range(rng.randint(1, 5))]
            self.check("".join(parts))

    def test_marker_on_the_first_line_and_after_a_blank_line(self):
        for text in (make_doc([tok("1")]), "\n" + make_doc([tok("1")]),
                     "\n\n" + make_doc([tok("1")]), "# newdoc",
                     "# newdoc id = x", "\n# newdoc id = x\n"):
            self.check(text)

    def test_two_markers_in_one_block(self):
        self.check("# newdoc id = a\n# newdoc id = b\n" + tok("1") + "\n\n"
                   + make_doc([tok("1")], doc_id="c")
                   + "# x\n# newdoc id = d\n# newdoc\n" + tok("1") + "\n\n")

    def test_markers_that_are_not_whole_words(self):
        text = ("# newdocument id = a\n" + tok("1") + "\n\n"
                + make_doc([tok("1")]) + "# newdocs\n" + tok("1") + "\n\n"
                + " # newdoc id = not at a line start\n" + tok("1") + "\n")
        self.check(text)
        assert [s[0] for s in scan_document_spans(text.encode())] == [None, "d1"]
        for end in ("", "\n", " id = x\n", "\tid = x\n"):
            self.check("# newdoc" + end)

    def test_invalid_utf8_in_a_marker_line(self):
        text = make_doc([tok("1")]) + "\n" + make_doc([tok("1")], doc_id="d2")
        data = text.encode().replace(b"id = d2", b"id = d\xff2")
        with pytest.raises(ConlluParseError) as fast:
            scan_document_spans(data)
        with pytest.raises(ConlluParseError) as ref:
            regex_spans(data)
        assert fast.value.line == ref.value.line == 5
        first = b"# newdoc id = \xfe\n" + tok("1").encode() + b"\n\n"
        with pytest.raises(ConlluParseError) as fast:
            scan_document_spans(first)
        assert fast.value.line == 1

class TestWithEntity:
    def test_changed_value_rebuilds_misc_in_place(self):
        line = conllu.with_entity(tok("1", "A=1|Entity=(e1)|SpaceAfter=No"), "(e2)")
        assert line.endswith("A=1|Entity=(e2)|SpaceAfter=No")

    def test_removing_entity_leaves_other_attrs(self):
        line = conllu.with_entity(tok("1", "Entity=(e1)|SpaceAfter=No"), None)
        assert line.endswith("\tSpaceAfter=No")

    def test_removing_the_only_attr_leaves_underscore(self):
        assert conllu.with_entity(tok("1", "Entity=(e1)"), None) == tok("1")

    def test_adding_entity_to_bare_misc(self):
        assert conllu.with_entity(tok("1"), "(e9)").endswith("\tEntity=(e9)")

    def test_adding_entity_to_misc_without_it_puts_it_first(self):
        line = conllu.with_entity(tok("1", "A=1|SpaceAfter=No"), "(e9)")
        assert line == tok("1", "Entity=(e9)|A=1|SpaceAfter=No")
        assert conllu.entity_value(line) == "(e9)"


class TestEntityWriter:
    @pytest.mark.parametrize("fixture", ["animals", "zeros", "discontinuous",
                                         "pronoun_baseline", "propn_baseline"])
    def test_reader_inverts_writer(self, fixture, fixtures_dir):
        for doc in conllu.parse_file(fixtures_dir / f"{fixture}.conllu"):
            reader = conllu.EntityReader()
            for position, value in conllu.entity_values(doc.mentions).items():
                reader.feed(position, value)
            assert Counter(reader.end()) == Counter(doc.mentions)
