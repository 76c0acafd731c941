"""CoNLL-U reading and writing with CorefUD `Entity` annotation.

The parser keeps every input line verbatim, so serializing an unmodified
document reproduces the input byte for byte.  This module owns the
`Entity` format: `EntityReader` reads it and `entity_values` writes it.
Elsewhere a mention is (eid, sorted positions, extra_fields): its runs
and ``[i/n]`` parts are only spelling.  `set_mentions`, the one code that
changes a document's lines, rebuilds (by `with_entity`) only the lines
whose `Entity` value changes or, when it writes over the old values, had
one; even then all other columns and MISC attributes stay untouched.

A document's handle is its span, as `numbered_spans` yields it: (doc_id,
first_line, byte_start, byte_end).  The byte scan is the one reader of the
`# newdoc` marker, so the id of a parsed document is the one its span
carries.  The parse is the only pass over the token lines.  `number` is
the one reader of a number in the text: word, range and empty-node ids,
part indices ``[i/n]`` and a mention's head index.  `Nodes.is_empty` is
the one test for an empty node's ``n.k`` id.  The parse reads a
document one sentence at a time: comment lines, then token lines, up to
one blank line (two in a row are an error).  It checks every line and
feeds its `Entity` value to the one bracket reader, so a `Document` is
its lines, nodes and mentions.  A node is its position: the parse keeps
its line index, sentence and id, and `Nodes` reads any other column
from its line when it is asked for.  `Nodes` owns the dependency tree
as positions (`Nodes.parent`, `Nodes.depth`), read from the HEAD and
DEPS columns on first use.  No other module reads HEAD or DEPS.

Entity values are sequences of brackets over entity ids, e.g.
``(e5-person-1-`` opens mention of entity e5 (extra fields: type, head
index, ...), ``e5)`` closes it, ``(e9)`` is a single-node mention and
``(e7[1/2]`` opens the first of two parts of a discontinuous mention.
`EntityReader.feed` reads a value in one pass, pairing each bracket as it
meets it, so of a value with two faults the first in reading order is
reported.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ConlluParseError, SerializationError

log = logging.getLogger("corefeval")

# what ends an opening bracket's id or field, and a closing bracket's id
_EID_STOP = frozenset("-([)]")
_FIELD_STOP = frozenset("-()]")
_CLOSE_STOP = frozenset("[()]")


def _parse_part(value: str, i: int) -> tuple[tuple[int, int] | None, int]:
    if i >= len(value) or value[i] != "[":
        return None, i
    end = value.find("]", i)
    body = value[i + 1 : end] if end != -1 else ""
    part = tuple(map(number, body.partition("/")[::2]))  # (i, n)
    if None in part:
        raise ConlluParseError(f"malformed part index in Entity value {value!r}")
    if not (1 <= part[0] <= part[1]) or part[1] < 2:
        raise ConlluParseError(f"part index out of range in Entity value {value!r}")
    return part, end + 1


def number(text: str) -> int | None:
    """The value of `text` if it is a number, else None: ASCII digits
    (`str.isdigit` alone also accepts "²") without a leading zero, so "0"
    is one and "01" is not, and no more digits than `int` reads (CPython's
    limit, `sys.get_int_max_str_digits`).  Callers check the range."""
    if text.isascii() and text.isdigit() and (text[0] != "0" or len(text) == 1):
        try:
            return int(text)
        except ValueError:  # over the digit limit
            pass
    return None


ReadMention = tuple[str, tuple[int, ...], tuple[str, ...]]  # (eid, positions, extra_fields)


class EntityReader:
    """The one reader of the `Entity` bracket format.

    Feed the values of one document in node order; `end` returns its
    mentions as (eid, positions, extra_fields) in the order they complete.
    `feed` reads each value once, opening, closing or completing a mention
    at each bracket it meets.  Brackets pair by (eid, part); the parts
    ``[1/n]..[n/n]`` of one entity id merge greedily in document order,
    each part attaching to the earliest mention still waiting for it.  A
    mention's positions are the sorted union of its parts' runs (parts may
    overlap); its fields are those of its first part.  Errors are
    `ConlluParseError`s without a location, which the caller adds.
    """

    def __init__(self) -> None:
        self.open: dict[tuple[str, tuple[int, int] | None],
                        tuple[int, tuple[str, ...]]] = {}
        # per eid: [next part, part count, runs, fields] of unfinished mentions
        self._waiting: dict[str, list[list]] = {}
        self._mentions: list[ReadMention] = []

    def feed(self, position: int, value: str) -> None:
        """Read the value of the node at `position` left to right, pairing
        each bracket as it is read, so the first fault in reading order is
        the one raised."""
        if not value:
            raise ConlluParseError("empty Entity value")
        i, n = 0, len(value)
        while i < n:
            if value[i] == "(":
                i += 1
                start = i
                while i < n and value[i] not in _EID_STOP:
                    i += 1
                eid = value[start:i]
                if not eid:
                    raise ConlluParseError(f"missing entity id in Entity value {value!r}")
                part, i = _parse_part(value, i)
                fields: list[str] = []
                while i < n and value[i] == "-":
                    i += 1
                    start = i
                    while i < n and value[i] not in _FIELD_STOP:
                        i += 1
                    fields.append(value[start:i])
                if i < n and value[i] == ")":  # a one-node span
                    self._complete(eid, part, (position, position), tuple(fields))
                    i += 1
                elif i == n or value[i] == "(":
                    if (eid, part) in self.open:
                        raise ConlluParseError(
                            f"entity {eid!r} opened twice without distinct part indices")
                    self.open[eid, part] = (position, tuple(fields))
                else:
                    raise ConlluParseError(f"cannot parse Entity value {value!r} at offset {i}")
            else:
                start = i
                while i < n and value[i] not in _CLOSE_STOP:
                    i += 1
                eid = value[start:i]
                part, i = _parse_part(value, i)
                if not eid or i >= n or value[i] != ")":
                    raise ConlluParseError(f"cannot parse Entity value {value!r} at offset {i}")
                opened = self.open.pop((eid, part), None)
                if opened is None:
                    raise ConlluParseError(
                        f"unbalanced Entity bracket: close of {eid!r} without open")
                self._complete(eid, part, (opened[0], position), opened[1])
                i += 1

    def _complete(self, eid: str, part: tuple[int, int] | None, run: tuple[int, int],
                  fields: tuple[str, ...]) -> None:
        if part is None:
            self._mentions.append((eid, tuple(range(run[0], run[1] + 1)), fields))
            return
        i, n = part
        waiting = self._waiting.setdefault(eid, [])
        if i == 1:
            waiting.append([2, n, [run], fields])
            return
        for state in waiting:
            if state[0] == i and state[1] == n:
                state[2].append(run)
                if i == n:
                    waiting.remove(state)
                    positions = {p for first, last in state[2] for p in range(first, last + 1)}
                    self._mentions.append((eid, tuple(sorted(positions)), state[3]))
                else:
                    state[0] += 1
                return
        raise ConlluParseError(
            f"part {i}/{n} of entity {eid!r} has no preceding part {i - 1}")

    def end(self) -> list[ReadMention]:
        """Check that every bracket and part is complete; the mentions."""
        if self.open:
            eid, part = min(self.open, key=lambda k: (k[0], k[1] or (0, 0)))
            raise ConlluParseError(
                f"unclosed Entity bracket for {eid!r}"
                + (f" part {part[0]}/{part[1]}" if part else ""))
        for eid, waiting in self._waiting.items():
            if waiting:
                raise ConlluParseError(
                    f"entity {eid!r} is missing part {waiting[0][0]}/{waiting[0][1]}")
        return self._mentions


class Nodes:
    """The nodes of one document and their dependency tree, as positions.

    The parse keeps three columns per node: `line_index` (into `lines`),
    `sent_index` and `ids`, the id as the line spells it.  Any other column
    is read from the node's line (`column`, `words`) when it is asked for.
    `parent` and `depth` read the tree from the lines, one node at a time,
    and keep what they read.  Positions follow the lines: surface words
    and empty nodes (``n.k`` after word ``n``) in document order; multiword
    range lines are not nodes.
    """

    __slots__ = ("lines", "line_index", "sent_index", "ids", "_by_id", "_parent", "_depth")

    def __init__(self, lines: list[str], line_index: list[int],
                 sent_index: list[int], ids: list[str]):
        self.lines = lines
        self.line_index = line_index
        self.sent_index = sent_index
        self.ids = ids
        self._by_id: dict[int, dict[str, int]] = {}  # per sentence: position by id
        # of the nodes read so far: parent positions, and depths (None: a cycle)
        self._parent: dict[int, int] = {}
        self._depth: dict[int, int | None] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def over(self, lines: list[str]) -> "Nodes":
        """These nodes over `lines`, a rewrite of theirs that changes only
        `Entity` values: the columns, and the tree read so far, are shared."""
        nodes = Nodes(lines, self.line_index, self.sent_index, self.ids)
        nodes._by_id, nodes._parent, nodes._depth = self._by_id, self._parent, self._depth
        return nodes

    def is_empty(self, i: int) -> bool:
        """Whether node i is an empty node (id ``n.k``), not a surface word."""
        return "." in self.ids[i]

    def column(self, i: int, k: int) -> str:
        """Column k (1 FORM, 2 LEMMA, 3 UPOS, ..., 7 DEPREL) of node i's line."""
        return self.lines[self.line_index[i]].split("\t", k + 1)[k]

    def parent(self, i: int) -> int:
        """The position of node i's parent, or -1 for none: a surface word's
        HEAD, an empty node's first DEPS head that resolves.  Each is read
        from the node's line on first use."""
        parent = self._parent.get(i)
        if parent is None:
            sent = self.sent_index[i]
            by_id = self._by_id.get(sent)
            if by_id is None:  # the sentence's positions by id
                first = bisect_left(self.sent_index, sent)
                end = bisect_right(self.sent_index, sent, first)
                by_id = self._by_id[sent] = dict(zip(self.ids[first:end], range(first, end)))
            line = self.lines[self.line_index[i]]
            if self.is_empty(i):  # DEPS: "head:relation" items, head 0 the root
                heads = (item.partition(":")[0] for item in line.split("\t", 9)[8].split("|"))
                parent = next((by_id[h] for h in heads if h in by_id), -1)
            else:
                head = line.split("\t", 7)[6]
                parent = by_id.get(head, -1)
                if parent < 0 and head not in ("0", "_"):
                    log.debug("unresolved head %s in sentence %d", head, sent)
            self._parent[i] = parent
        return parent

    def depth(self, i: int) -> int | None:
        """The number of `parent` steps from node i to a node without one;
        None if the steps run into a cycle.  Memoised per node."""
        depths, chain, at = self._depth, [], i
        while at >= 0 and at not in depths:
            depths[at] = None  # until the walk ends: reaching it again is a cycle
            chain.append(at)
            at = self.parent(at)
        depth = -1 if at < 0 else depths[at]
        if depth is not None:
            for at in reversed(chain):
                depth += 1
                depths[at] = depth
        return depths[i]

    def words(self, *upos: str) -> Iterator[tuple[int, str, str, str | None]]:
        """(position, UPOS, lemma, `Gender`) of each surface word whose UPOS
        is one of `upos`, read from its line."""
        lines, line_index = self.lines, self.line_index
        found: set[int] = set()
        for tag in upos:  # a substring test first: most lines have none
            tag = f"\t{tag}\t"
            found.update(i for i, at in enumerate(line_index) if tag in lines[at])
        for i in sorted(found):
            if not self.is_empty(i):
                cols = lines[line_index[i]].split("\t", 6)
                if cols[3] in upos:
                    yield i, cols[3], cols[2], _attr(cols[5], "Gender=")

    def first_difference(self, other: "Nodes") -> int | None:
        """The first position whose sentence, id or form differs from
        `other`'s, up to the shorter length; None if there is none."""
        if other is not self:
            for i, (sent, other_sent, at, other_at) in enumerate(zip(
                    self.sent_index, other.sent_index, self.line_index, other.line_index)):
                line, other_line = self.lines[at], other.lines[other_at]
                if sent != other_sent or line != other_line and (
                        line.split("\t", 2)[:2] != other_line.split("\t", 2)[:2]):
                    return i
        return None


class Document:
    """One `# newdoc` section: the lines the writer emits (the verbatim input
    lines, each sentence followed by one blank line), its `Nodes` and the
    mentions its `Entity` values read as (`EntityReader.end`).  Copies share
    all three, and so the tree `Nodes` has read.  `set_mentions` is the one
    code that changes `lines`; it replaces `lines`, `nodes` (`Nodes.over`)
    and `mentions` together, so the three always agree."""

    __slots__ = ("doc_id", "lines", "nodes", "mentions")

    def __init__(self, doc_id: str | None, lines: list[str], nodes: Nodes,
                 mentions: list[ReadMention]):
        self.doc_id = doc_id
        self.lines = lines
        self.nodes = nodes
        self.mentions = mentions

    def copy(self) -> "Document":
        return Document(self.doc_id, self.lines, self.nodes, self.mentions)

    def __repr__(self) -> str:
        return f"Document({self.doc_id!r}, {len(self.nodes)} nodes)"


def entity_value(line: str) -> str | None:
    """The `Entity` value in the MISC column of a token line."""
    return _attr(line[line.rfind("\t") + 1:], "Entity=")


def with_entity(line: str, entity: str | None, first: bool = False) -> str:
    """A token line with its `Entity` value set to `entity` (None removes
    it).  The attribute keeps its position among the MISC attributes; a new
    one goes first, and so does every one with `first`, as on a line whose
    value was removed before.  All other columns and attributes stay as
    they are."""
    before, _, misc = line.rpartition("\t")  # MISC is the last column
    attrs = [] if misc == "_" else misc.split("|")
    out = []
    placed = entity is None  # nothing to place
    for attr in attrs:
        if not attr.startswith("Entity="):
            out.append(attr)
        elif not placed and not first:
            out.append("Entity=" + entity)
            placed = True
    if not placed:
        out.insert(0, "Entity=" + entity)
    return f"{before}\t{'|'.join(out) if out else '_'}"


# ---------------------------------------------------------------------------
# Writing mentions

def entity_values(mentions: Iterable[ReadMention]) -> dict[int, str]:
    """The `Entity` value of each node position that carries one, in node
    order, written from (eid, positions, extra_fields) mentions.

    Mentions are written in (start, -end, eid) order, ties in the order
    given; a mention whose positions are not consecutive becomes the parts
    ``[i/n]`` of its runs of consecutive positions, and its fields go on
    the first part only.
    """
    closes: dict[int, list[str]] = {}
    opens: dict[int, list[str]] = {}
    for eid, positions, fields in sorted(mentions, key=lambda m: (m[1][0], -m[1][-1], m[0])):
        # the runs (first, last) of consecutive positions
        cuts = [k for k, (a, b) in enumerate(zip(positions, positions[1:]), 1) if b != a + 1]
        runs = [(positions[a], positions[b - 1]) for a, b in zip([0, *cuts], [*cuts, len(positions)])]
        tail = "".join("-" + f for f in fields)
        for part_no, (first, last) in enumerate(runs, start=1):
            label = eid if len(runs) == 1 else f"{eid}[{part_no}/{len(runs)}]"
            body = label + (tail if part_no == 1 else "")
            if first == last:
                opens.setdefault(first, []).append(f"({body})")
            else:
                opens.setdefault(first, []).append(f"({body}")
                closes.setdefault(last, []).insert(0, f"{label})")
    return {position: "".join(closes.get(position, ())) + "".join(opens.get(position, ()))
            for position in sorted(opens.keys() | closes.keys())}


def set_mentions(doc: Document, mentions: list[ReadMention], strip: bool = False) -> None:
    """Make `mentions`, as (eid, positions, extra_fields), the document's:
    the one code that changes `doc.lines`.

    The bracket format cannot express every set of mentions: a mention
    without nodes, two same-id spans open at once, or parts that interleave
    with another mention's parts of the same id.  Unless the `entity_values`
    of `mentions` read back as `mentions`, `SerializationError` is raised
    before anything changes.  Otherwise only the lines whose value changes
    are rebuilt (`with_entity`), into a new list, as copies share `lines`;
    `nodes` read the new lines (`Nodes.over`), and `mentions` becomes what
    the values read as, in reading order.  With `strip`, the values are
    written over the old ones as over a stripped document (see
    `transforms.strip_entities`): every line that had or gets a value is
    rebuilt once, and each value goes first among its MISC attributes.
    """
    for eid, positions, _fields in mentions:
        if not positions:
            raise SerializationError(f"mention of entity {eid!r} has no nodes")
    values = entity_values(mentions)
    reader = EntityReader()
    try:
        for position, value in values.items():
            reader.feed(position, value)
        read = reader.end()
    except ConlluParseError as exc:
        raise SerializationError(f"document {doc.doc_id}: the mentions cannot be"
                                 f" written in the bracket format: {exc}") from None
    wanted, got = Counter(mentions), Counter(read)
    if got != wanted:
        eids = sorted({m[0] for m in (wanted - got) + (got - wanted)})
        raise SerializationError(
            f"document {doc.doc_id}: the mentions of entity {', '.join(map(repr, eids))}"
            " cannot be written in the bracket format: they would read back"
            " differently")
    lines, line_index = list(doc.lines), doc.nodes.line_index
    for position, new in values.items():
        at = line_index[position]
        if strip or entity_value(lines[at]) != new:
            lines[at] = with_entity(lines[at], new, first=strip)
    # a value that goes sat on a node of an old mention, on a line that
    # names "Entity="
    for position in {i for _eid, old, _fields in doc.mentions for i in old}.difference(values):
        at = line_index[position]
        if "Entity=" in lines[at]:
            lines[at] = with_entity(lines[at], None)
    doc.lines = lines
    doc.nodes = doc.nodes.over(lines)
    doc.mentions = read


# ---------------------------------------------------------------------------
# Parsing

def parse_file(path: str | Path) -> list[Document]:
    """Parse the CoNLL-U file at `path` into documents.  The bytes are
    decoded as UTF-8 without newline translation."""
    return list(iter_documents(path))


def iter_documents(path: str | Path) -> Iterator[Document]:
    """`parse_file` one document at a time: the file is read at once and
    each document is parsed when it is asked for."""
    return _parse_bytes(Path(path).read_bytes(), str(path))


def parse_text(text: str, path: str = "<string>") -> list[Document]:
    return list(_parse_bytes(text.encode("utf-8"), path))


def _parse_bytes(data: bytes, path: str) -> Iterator[Document]:
    for doc_id, first_line, start, end in numbered_spans(data, path):
        yield _parse_document(_decode(data[start:end], path, first_line), path,
                              first_line, doc_id)


def read_document(path: str, doc_id: str | None, first_line: int, start: int,
                  end: int) -> Document:
    """Parse the document of the file at `path` whose span, as
    `numbered_spans` yields it, is (doc_id, first_line, start, end): its
    id, its first line's number and its bytes [start, end)."""
    with open(path, "rb") as f:
        f.seek(start)
        text = _decode(f.read(end - start), path, first_line)
    return _parse_document(text, path, first_line, doc_id)


def _decode(data: bytes, path: str, first_line: int) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _utf8_error(exc, path, first_line) from None


def _utf8_error(
    exc: UnicodeDecodeError, path: str | None, first_line: int
) -> ConlluParseError:
    """The parse error for bytes whose first line is line `first_line`."""
    return ConlluParseError(
        f"invalid UTF-8 (byte 0x{exc.object[exc.start]:02x})", path=path,
        line=first_line + exc.object.count(b"\n", 0, exc.start))


# the ids of surface words 1, 2, ... and how their lines start; words of
# longer sentences take the general checks
_WORD_IDS = [str(n) for n in range(1, 257)]
_WORD_PREFIXES = [tid + "\t" for tid in _WORD_IDS]


def _parse_document(text: str, path: str, first_line: int,
                    doc_id: str | None) -> Document:
    """Parse one document chunk (a span of `scan_document_spans`, which
    read its id) one sentence at a time: comment lines, then token lines,
    up to one blank line; consecutive blank lines are an error.  The parse
    checks every line and reads the `Entity` values; of each node it keeps
    the line index, sentence and id, from which `Nodes` reads the rest."""
    if text.startswith("\ufeff"):
        raise ConlluParseError("byte order mark (U+FEFF); save the file as UTF-8"
                               " without BOM", path=path, line=first_line)
    cr = text.find("\r")
    if cr != -1:
        raise ConlluParseError("carriage return in line (CRLF line endings are"
                               " not supported)", path=path,
                               line=first_line + text.count("\n", 0, cr))
    if not text.endswith("\n"):
        log.warning("%s: file does not end with a newline", path)
    lines = text.rstrip("\n").split("\n")
    lines.append("")  # the blank line that ends the last sentence
    reader = EntityReader()
    # the node columns of `Nodes`
    line_index: list[int] = []
    sent_index: list[int] = []
    ids: list[str] = []

    def err(msg: str, i: int) -> ConlluParseError:
        return ConlluParseError(msg, path=path, line=first_line + i)

    sent = start = 0
    while start < len(lines):  # sentence `sent`: lines[start:end], then a blank line
        end = lines.index("", start)
        if end == start:
            raise err("empty sentence (consecutive blank lines)", end)
        first = start  # the first token line
        while first < end and lines[first][0] == "#":
            first += 1
        # the last surface word and the k of its last empty node n.k (0: none)
        last_surface, last_k, pending_range = 0, 0, None
        for i in range(first, end):
            line = lines[i]
            if line[0] == "#":
                raise err("comment after token lines within a sentence", i)
            if (last_surface < len(_WORD_PREFIXES) and line.startswith(_WORD_PREFIXES[last_surface])
                    and line.count("\t") == 9):
                # the next surface word, as most lines are: no other check applies
                tid = _WORD_IDS[last_surface]
                last_surface, last_k = last_surface + 1, 0
                entity = _attr(line[line.rfind("\t") + 1:], "Entity=") if "Entity=" in line else None
            else:
                cols = line.split("\t")
                if len(cols) != 10:
                    raise err(f"expected 10 tab-separated columns, got {len(cols)}", i)
                tid = cols[0]
                entity = _attr(cols[9], "Entity=")
                if "." in tid:
                    n, k = map(number, tid.partition(".")[::2])
                    if n is None or k is None or k < 1:
                        raise err(f"unknown token id syntax {tid!r}", i)
                    if n != last_surface:
                        raise err(f"empty node {tid} does not follow word {n}", i)
                    if k <= last_k:
                        raise err(f"empty node ids not strictly increasing at {tid}", i)
                    last_k = k
                elif "-" in tid:
                    span = tuple(map(number, tid.partition("-")[::2]))
                    if None in span or span[1] < span[0]:
                        raise err(f"unknown token id syntax {tid!r}", i)
                    if entity is not None:
                        raise err(f"Entity annotation on multiword range line {tid}", i)
                    if span[0] != last_surface + 1:
                        raise err(f"token range {tid} does not start at next word id", i)
                    if pending_range is not None and pending_range[1] > last_surface:
                        raise err(f"overlapping token ranges at {tid}", i)
                    pending_range = span
                    continue  # not a node
                elif not (n := number(tid)):  # not a number, or the word 0
                    raise err(f"unknown token id syntax {tid!r}", i)
                elif n != last_surface + 1:
                    raise err(f"surface word ids not consecutive at {tid}", i)
                else:
                    last_surface, last_k = n, 0

            if entity is not None:
                try:
                    reader.feed(len(ids), entity)
                except ConlluParseError as exc:
                    raise err(exc.args[0], i) from None
            line_index.append(i)
            sent_index.append(sent)
            ids.append(tid)

        if pending_range is not None and pending_range[1] > last_surface:
            raise err(f"token range {pending_range[0]}-{pending_range[1]} exceeds sentence", end)
        start = end + 1
        # at the end of the document an open bracket is `EntityReader.end`'s
        # error, not a crossing
        if reader.open and start < len(lines):
            log.warning("%s: mention of %s crosses a sentence boundary in document %s",
                        path, ", ".join(sorted({eid for eid, _ in reader.open})), doc_id)
        sent += 1

    try:
        mentions = reader.end()
    except ConlluParseError as exc:
        raise ConlluParseError(f"{exc.args[0]} at end of document {doc_id}",
                               path=path) from None
    return Document(doc_id, lines, Nodes(lines, line_index, sent_index, ids), mentions)


def _attr(column: str, prefix: str) -> str | None:
    """The value of the first `prefix` ("Name=") attribute of FEATS or MISC."""
    if prefix not in column:
        return None
    for attr in column.split("|"):
        if attr.startswith(prefix):
            return attr[len(prefix):]
    return None


# ---------------------------------------------------------------------------
# Serialization

def docs_to_text(docs: Iterable[Document]) -> str:
    return "".join(["\n".join(doc.lines) + "\n" for doc in docs if doc.lines])


def doc_to_text(doc: Document) -> str:
    return docs_to_text([doc])


# ---------------------------------------------------------------------------
# Document splitting

# what may follow `# newdoc` on a marker line: the line's end, a space or a tab
_MARKER_ENDS = (b"", b"\n", b"\r", b" ", b"\t")


def _marker_lines(data: bytes) -> Iterator[int]:
    """The offset of each `# newdoc` line: the marker as a whole word, so
    that `# newdocument_note = x` is a comment like any other."""
    if data.startswith(b"# newdoc") and data[8:9] in _MARKER_ENDS:
        yield 0
    at = data.find(b"\n# newdoc")
    while at != -1:
        if data[at + 9:at + 10] in _MARKER_ENDS:
            yield at + 1
        at = data.find(b"\n# newdoc", at + 1)


def scan_document_spans(data: bytes) -> list[tuple[str | None, int, int]]:
    """Split a file into (doc_id, byte_start, byte_end) document spans by
    scanning the raw bytes.

    A document starts at the beginning of the sentence block whose comments
    contain the `# newdoc` marker (the later one wins if a block has two);
    its id is what follows the line's first "=", stripped, or None.
    Anything before the first marker forms an id-less document.  This is
    the one reader of the marker.  Invalid UTF-8 in a `# newdoc` line is a
    `ConlluParseError` with no path.
    """
    starts: list[tuple[int, str | None]] = []
    for marker in _marker_lines(data):
        at = data.rfind(b"\n\n", 0, marker)
        # a single blank line opening the file separates nothing
        start = at + 2 if at != -1 else int(data.startswith(b"\n"))
        line_end = data.find(b"\n", marker)
        try:
            line = data[marker:line_end if line_end != -1 else len(data)].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _utf8_error(exc, None, data.count(b"\n", 0, marker) + 1) from None
        doc_id = line.split("=", 1)[1].strip() if "=" in line else None
        if starts and starts[-1][0] == start:
            starts[-1] = (start, doc_id)
            continue
        starts.append((start, doc_id))
    spans: list[tuple[str | None, int, int]] = []
    if not starts or starts[0][0] > 0:
        end = starts[0][0] if starts else len(data)
        if data[:end].strip(b"\n"):
            spans.append((None, 0, end))
    for i, (start, doc_id) in enumerate(starts):
        end = starts[i + 1][0] if i + 1 < len(starts) else len(data)
        spans.append((doc_id, start, end))
    return spans


def numbered_spans(
    data: bytes, path: str
) -> Iterator[tuple[str | None, int, int, int]]:
    """`scan_document_spans` as (doc_id, first_line, byte_start, byte_end);
    `path` names the file in errors.  A file without a document (empty or
    blank lines only) is an error."""
    try:
        spans = scan_document_spans(data)
    except ConlluParseError as exc:
        raise ConlluParseError(exc.args[0], path, exc.line) from None
    if not spans:
        raise ConlluParseError("no content found", path=path)
    line, prev = 1, 0
    for doc_id, start, end in spans:
        line += data.count(b"\n", prev, start)
        prev = start
        yield doc_id, line, start, end
