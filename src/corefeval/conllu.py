"""CoNLL-U reading and writing with CorefUD `Entity` annotation.

The parser keeps every input line verbatim, so serializing an unmodified
document reproduces the input byte for byte.  This module owns the
`Entity` format: `EntityReader` reads it and `entity_values` writes it.
`set_mentions`, the one code that changes a document's lines, rebuilds
(by `with_entity`) only the lines whose `Entity` value changes, and even
then all other columns and MISC attributes stay untouched.

The parse is the only pass over the token lines: it checks every line
and feeds its `Entity` value to the one bracket reader, so a `Document` is
its lines, nodes and mentions.  Of each node the parse keeps the line
index, sentence and id.  `Nodes` owns the dependency tree as positions
(`Nodes.parent`, `Nodes.depth`), read from the HEAD and DEPS columns on
first use; it builds a `Node`, which holds only its line's columns, when
one is asked for.  No other module reads HEAD or DEPS.

Entity values are sequences of brackets over entity ids, e.g.
``(e5-person-1-`` opens mention of entity e5 (extra fields: type, head
index, ...), ``e5)`` closes it, ``(e9)`` is a single-node mention and
``(e7[1/2]`` opens the first of two parts of a discontinuous mention.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Sequence
from pathlib import Path
from sys import intern
from typing import BinaryIO, Iterable, Iterator, NamedTuple

from .errors import ConlluParseError, SerializationError

log = logging.getLogger("corefeval")

# Bracket kinds
OPEN = "open"
CLOSE = "close"
OPEN_CLOSE = "open_close"

_EID_STOP = frozenset("-([)]")
_FIELD_STOP = frozenset("-()]")
_CLOSE_STOP = frozenset("[()]")


class EntityBracket(NamedTuple):
    """One bracket token of an `Entity` value; a tuple, since the parse
    builds one per bracket."""

    kind: str  # OPEN | CLOSE | OPEN_CLOSE
    eid: str
    part: tuple[int, int] | None = None  # (i, n) from "[i/n]"
    extra_fields: tuple[str, ...] = ()  # opening fields after the eid, verbatim


def tokenize_entity(value: str) -> list[EntityBracket]:
    """Split an `Entity` attribute value into its bracket sequence."""
    brackets: list[EntityBracket] = []
    i, n = 0, len(value)
    if not value:
        raise ConlluParseError("empty Entity value")
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
            if i < n and value[i] == ")":
                brackets.append(EntityBracket(OPEN_CLOSE, eid, part, tuple(fields)))
                i += 1
            elif i == n or value[i] == "(":
                brackets.append(EntityBracket(OPEN, eid, part, tuple(fields)))
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
            brackets.append(EntityBracket(CLOSE, eid, part))
            i += 1
    return brackets


def _parse_part(value: str, i: int) -> tuple[tuple[int, int] | None, int]:
    if i >= len(value) or value[i] != "[":
        return None, i
    end = value.find("]", i)
    body = value[i + 1 : end] if end != -1 else ""
    lo, sep, hi = body.partition("/")
    if not sep or not _is_number(lo) or not _is_number(hi):
        raise ConlluParseError(f"malformed part index in Entity value {value!r}")
    part = (int(lo), int(hi))
    if not (1 <= part[0] <= part[1]) or part[1] < 2:
        raise ConlluParseError(f"part index out of range in Entity value {value!r}")
    return part, end + 1


def _is_number(text: str) -> bool:
    """ASCII digits only: `str.isdigit` also accepts "²", which `int` rejects."""
    return text.isascii() and text.isdigit()


Run = tuple[int, int]  # first and last node position of a span, inclusive
ReadMention = tuple[str, tuple[Run, ...], tuple[str, ...]]  # (eid, runs, extra_fields)


class EntityReader:
    """The one reader of the `Entity` bracket format.

    Feed the values of one document in node order; `end` returns its
    mentions as (eid, runs, extra_fields) in the order they complete.
    Brackets pair by (eid, part); the parts ``[1/n]..[n/n]`` of one entity
    id merge greedily in document order, each part attaching to the
    earliest mention still waiting for it.  A mention's runs are its
    parts' spans in part order (one run without parts); its fields are
    those of its first part.  Errors are `ConlluParseError`s without a
    location, which the caller adds.
    """

    def __init__(self) -> None:
        self.open: dict[tuple[str, tuple[int, int] | None],
                        tuple[int, tuple[str, ...]]] = {}
        # per eid: [next part, part count, runs, fields] of unfinished mentions
        self._waiting: dict[str, list[list]] = {}
        self._mentions: list[ReadMention] = []

    def feed(self, position: int, value: str) -> None:
        for b in tokenize_entity(value):
            key = (b.eid, b.part)
            if b.kind == OPEN:
                if key in self.open:
                    raise ConlluParseError(
                        f"entity {b.eid!r} opened twice without distinct part indices")
                self.open[key] = (position, b.extra_fields)
            elif b.kind == CLOSE:
                opened = self.open.pop(key, None)
                if opened is None:
                    raise ConlluParseError(
                        f"unbalanced Entity bracket: close of {b.eid!r} without open")
                self._complete(b.eid, b.part, (opened[0], position), opened[1])
            else:
                self._complete(b.eid, b.part, (position, position), b.extra_fields)

    def _complete(self, eid: str, part: tuple[int, int] | None, run: Run,
                  fields: tuple[str, ...]) -> None:
        if part is None:
            self._mentions.append((eid, (run,), fields))
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
                    self._mentions.append((eid, tuple(state[2]), state[3]))
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


class Node:
    """One syntactic word or empty node, positioned in the document order:
    the columns of its line.

    Surface words are ordered by sentence and word id; empty node ``n.k``
    follows word ``n`` (and ``n.(k-1)``), ``0.k`` precede word 1.  Multiword
    range lines are not nodes.  An empty node's `deprel` comes from its
    first enhanced dependency.  The tree is not here but in `Nodes.parent`.
    """

    __slots__ = (
        "index", "sent_index", "line", "id", "is_empty", "form", "lemma", "upos",
        "gender", "deprel",
    )

    def __init__(self, index: int, sent_index: int, line: int, tid: str, cols: list[str]):
        """`cols` are the ten columns of the node's line."""
        self.index = index  # document-wide position
        self.sent_index = sent_index
        self.line = line  # index in `Document.lines`
        self.id = tid
        self.is_empty = "." in tid
        # built nodes are kept, so they share repeated column values
        self.form, self.lemma, self.upos = intern(cols[1]), intern(cols[2]), intern(cols[3])
        gender = _attr(cols[5], "Gender=") if "Gender=" in cols[5] else None
        self.gender = gender and intern(gender)
        self.deprel = (next((rel for _h, _s, rel in _deps(cols[8]) if rel), "")
                       if self.is_empty else intern(cols[7]))

    def __repr__(self) -> str:
        return f"Node({self.sent_index}:{self.id} {self.form!r})"


def _deps(column: str) -> list[tuple[str, str, str]]:
    """The "head:relation" items of a DEPS column, partitioned at ":"."""
    return [item.partition(":") for item in column.split("|")]


class Nodes(Sequence[Node]):
    """The nodes of one document and their dependency tree, as positions.

    The parse keeps three columns per node: `line_index` (into `lines`),
    `sent_index` and `ids`, the id as the line spells it.  `len`, the
    columns, `words` and `first_difference` build nothing; indexing or
    iterating builds a `Node` from its line and caches it, so each position
    has one `Node`.  `parent` and `depth` read the tree from the lines, one
    node at a time, and build no `Node` either.
    """

    __slots__ = ("lines", "line_index", "sent_index", "ids", "_built", "_by_id",
                 "_parent", "_depth")

    def __init__(self, lines: list[str], line_index: list[int],
                 sent_index: list[int], ids: list[str]):
        # rewrites replace `Document.lines`, but change only `Entity` values
        self.lines = lines
        self.line_index = line_index
        self.sent_index = sent_index
        self.ids = ids
        self._built: dict[int, Node] = {}
        self._by_id: dict[int, dict[str, int]] = {}  # per sentence: position by id
        # of the nodes read so far: parent positions, and depths (None: a cycle)
        self._parent: dict[int, int] = {}
        self._depth: dict[int, int | None] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self.ids)))]
        i = range(len(self.ids))[i]  # (an IndexError past either end)
        node = self._built.get(i)
        if node is None:
            at = self.line_index[i]
            node = self._built[i] = Node(i, self.sent_index[i], at, self.ids[i],
                                         self.lines[at].split("\t"))
        return node

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
            if "." in self.ids[i]:  # DEPS: "head:relation" items, head 0 the root
                parent = next((by_id[h] for h, _s, _rel in _deps(line.split("\t", 9)[8])
                               if h in by_id), -1)
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
        is one of `upos`, read from its line; no `Node` is built."""
        lines, line_index, ids = self.lines, self.line_index, self.ids
        found: set[int] = set()
        for tag in upos:  # a substring test first: most lines have none
            tag = f"\t{tag}\t"
            found.update(i for i, at in enumerate(line_index) if tag in lines[at])
        for i in sorted(found):
            if "." not in ids[i]:
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
    all three, and so the nodes built through any of them.  `set_mentions`
    is the one code that changes `lines`; it replaces `lines` and
    `mentions` together, so the two always agree."""

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


def with_entity(line: str, entity: str | None) -> str:
    """A token line with its `Entity` value set to `entity` (None removes
    it).  The attribute keeps its position among the MISC attributes (a new
    one goes first); all other columns and attributes stay as they are."""
    cols = line.split("\t")
    attrs = [] if cols[9] == "_" else cols[9].split("|")
    out = []
    placed = False
    for attr in attrs:
        if attr.startswith("Entity="):
            if entity is not None and not placed:
                out.append("Entity=" + entity)
                placed = True
        else:
            out.append(attr)
    if entity is not None and not placed:
        out.insert(0, "Entity=" + entity)
    cols[9] = "|".join(out) if out else "_"
    return "\t".join(cols)


# ---------------------------------------------------------------------------
# Writing mentions

def entity_values(mentions: Iterable[ReadMention]) -> dict[int, str]:
    """The `Entity` value of each node position that carries one, in node
    order, written from (eid, runs, extra_fields) mentions.

    Mentions are written in (start, -end, eid) order, ties in the order
    given; a mention of several runs becomes the parts ``[i/n]`` of its
    runs, and its fields go on the first part only.
    """
    closes: dict[int, list[str]] = {}
    opens: dict[int, list[str]] = {}
    for eid, runs, fields in sorted(mentions, key=lambda m: (m[1][0][0], -m[1][-1][1], m[0])):
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


def set_mentions(doc: Document, mentions: list[ReadMention]) -> None:
    """Make `mentions`, as (eid, runs, extra_fields), the document's: the
    one code that changes `doc.lines`.

    The bracket format cannot express every set of mentions: two same-id
    spans open at once, or parts that interleave with another mention's
    parts of the same id.  Unless the `entity_values` of `mentions` read
    back as `mentions`, `SerializationError` is raised before anything
    changes.  Otherwise only the lines whose value changes are rebuilt
    (`with_entity`), into a new list, as copies share `lines`; `mentions`
    becomes what the values read as, in reading order.
    """
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
    # the nodes that carry a value now are the run ends of `doc.mentions`
    positions = {i for _eid, runs, _fields in doc.mentions for run in runs for i in run}
    lines = list(doc.lines)
    for position in positions | values.keys():
        at = doc.nodes.line_index[position]
        new = values.get(position)
        if entity_value(lines[at]) != new:
            lines[at] = with_entity(lines[at], new)
    doc.lines = lines
    doc.mentions = read


# ---------------------------------------------------------------------------
# Parsing

_NEWDOC = "# newdoc"


def parse_file(source: str | Path | BinaryIO) -> list[Document]:
    """Parse a CoNLL-U file (path or binary stream) into documents.  The
    bytes are decoded as UTF-8 without newline translation."""
    return list(iter_documents(source))


def iter_documents(source: str | Path | BinaryIO) -> Iterator[Document]:
    """`parse_file` one document at a time: the file is read at once and
    each document is parsed when it is asked for."""
    if hasattr(source, "read"):
        data = source.read()
        path = getattr(source, "name", "<stream>")
    else:
        path = str(source)
        data = Path(source).read_bytes()
    if isinstance(data, str):
        data = data.encode("utf-8")
    return _parse_bytes(data, path)


def parse_text(text: str, path: str = "<string>") -> list[Document]:
    return list(_parse_bytes(text.encode("utf-8"), path))


def _parse_bytes(data: bytes, path: str) -> Iterator[Document]:
    for _doc_id, first_line, start, end in numbered_spans(data, path):
        yield _parse_document(_decode(data[start:end], path, first_line), path,
                              first_line)


def read_document(path: str, first_line: int, start: int, end: int) -> Document:
    """Parse the document at bytes [start, end) of the file at `path`, one
    span of `numbered_spans`, whose first line is line `first_line`."""
    with open(path, "rb") as f:
        f.seek(start)
        text = _decode(f.read(end - start), path, first_line)
    return _parse_document(text, path, first_line)


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


def _parse_document(text: str, path: str, first_line: int) -> Document:
    """Parse one document chunk (a span of `scan_document_spans`); its
    `# newdoc` comment, if any, is in the first sentence block.  The parse
    checks every line and reads the `Entity` values; of each node it keeps
    the line index, sentence and id, from which `Nodes` builds the node."""
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
    doc_id: str | None = None
    reader = EntityReader()
    # the node columns of `Nodes`
    line_index: list[int] = []
    sent_index: list[int] = []
    ids: list[str] = []
    # the current sentence: its number, first line and whether a token line came
    sent = 0
    sent_start = 0
    has_tokens = False
    last_surface = 0
    last_empty = 0.0
    pending_range: tuple[int, int] | None = None

    def err(msg: str, i: int) -> ConlluParseError:
        return ConlluParseError(msg, path=path, line=first_line + i)

    def close_sentence(i: int) -> None:
        """End the sentence at the blank line (or end) at line index `i`."""
        nonlocal sent, sent_start, has_tokens, last_surface, last_empty, pending_range
        if i == sent_start:
            raise err("empty sentence (consecutive blank lines)", i)
        if pending_range is not None and pending_range[1] > last_surface:
            raise err(f"token range {pending_range[0]}-{pending_range[1]} exceeds sentence", i)
        # at the end of the document (i == len(lines)) an open bracket is
        # `EntityReader.end`'s error, not a crossing
        if reader.open and i < len(lines):
            eids = sorted({eid for eid, _ in reader.open})
            log.warning(
                "%s: mention of %s crosses a sentence boundary in document %s",
                path, ", ".join(eids), doc_id,
            )
        sent += 1
        sent_start, has_tokens = i + 1, False
        last_surface, last_empty, pending_range = 0, 0.0, None

    for i, line in enumerate(lines):
        if line == "":
            close_sentence(i)
            continue
        if line[0] == "#":
            if has_tokens:
                raise err("comment after token lines within a sentence", i)
            if line.startswith(_NEWDOC):
                doc_id = _newdoc_id(line)
            continue

        has_tokens = True
        if (last_surface < len(_WORD_PREFIXES) and line.startswith(_WORD_PREFIXES[last_surface])
                and line.count("\t") == 9):
            # the next surface word, as most lines are: no other check applies
            tid = _WORD_IDS[last_surface]
            last_surface += 1
            last_empty = float(last_surface)
            entity = _attr(line[line.rfind("\t") + 1:], "Entity=") if "Entity=" in line else None
        else:
            cols = line.split("\t")
            if len(cols) != 10:
                raise err(f"expected 10 tab-separated columns, got {len(cols)}", i)
            tid = cols[0]
            entity = _attr(cols[9], "Entity=")
            if "." in tid:
                word, _, sub = tid.partition(".")
                if not _is_number(word) or not _is_number(sub) or int(sub) < 1:
                    raise err(f"unknown token id syntax {tid!r}", i)
                order = int(word) + int(sub) / 1e9
                if int(word) != last_surface:
                    raise err(f"empty node {tid} does not follow word {word}", i)
                if order <= last_empty:
                    raise err(f"empty node ids not strictly increasing at {tid}", i)
                last_empty = order
            elif "-" in tid:
                lo, _, hi = tid.partition("-")
                if not _is_number(lo) or not _is_number(hi) or int(hi) < int(lo):
                    raise err(f"unknown token id syntax {tid!r}", i)
                if entity is not None:
                    raise err(f"Entity annotation on multiword range line {tid}", i)
                if int(lo) != last_surface + 1:
                    raise err(f"token range {tid} does not start at next word id", i)
                if pending_range is not None and pending_range[1] > last_surface:
                    raise err(f"overlapping token ranges at {tid}", i)
                pending_range = (int(lo), int(hi))
                continue  # not a node
            elif _is_number(tid) and tid[0] != "0":
                if int(tid) != last_surface + 1:
                    raise err(f"surface word ids not consecutive at {tid}", i)
                last_surface = int(tid)
                last_empty = float(last_surface)
            else:
                raise err(f"unknown token id syntax {tid!r}", i)

        if entity is not None:
            try:
                reader.feed(len(ids), entity)
            except ConlluParseError as exc:
                raise err(exc.args[0], i) from None
        line_index.append(i)
        sent_index.append(sent)
        ids.append(tid)

    close_sentence(len(lines))
    lines.append("")  # the blank line that ends the last sentence
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


def write_file(docs: Iterable[Document], target: str | Path | BinaryIO) -> None:
    """Serialize documents; inverse of parse_file on valid input."""
    text = docs_to_text(docs)
    if hasattr(target, "write"):
        target.write(text.encode("utf-8"))
    else:
        Path(target).write_bytes(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Document splitting

def _newdoc_id(line: str) -> str | None:
    return line.split("=", 1)[1].strip() if "=" in line else None


def _marker_lines(data: bytes) -> Iterator[int]:
    """The offset of each line that starts with the `# newdoc` marker."""
    if data.startswith(b"# newdoc"):
        yield 0
    at = data.find(b"\n# newdoc")
    while at != -1:
        yield at + 1
        at = data.find(b"\n# newdoc", at + 1)


def scan_document_spans(data: bytes) -> list[tuple[str | None, int, int]]:
    """Split a file into (doc_id, byte_start, byte_end) document spans by
    scanning the raw bytes.

    A document starts at the beginning of the sentence block whose comments
    contain the `# newdoc` marker (the later one wins if a block has two);
    anything before the first marker forms an id-less document.  Invalid
    UTF-8 in a `# newdoc` line is a `ConlluParseError` with no path.
    """
    starts: list[tuple[int, str | None]] = []
    for marker in _marker_lines(data):
        at = data.rfind(b"\n\n", 0, marker)
        # a single blank line opening the file separates nothing
        start = at + 2 if at != -1 else int(data.startswith(b"\n"))
        line_end = data.find(b"\n", marker)
        line = data[marker:line_end if line_end != -1 else len(data)]
        try:
            doc_id = _newdoc_id(line.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise _utf8_error(exc, None, data.count(b"\n", 0, marker) + 1) from None
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
