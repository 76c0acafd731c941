"""Command line interface.

Subcommands: ``score`` (evaluate response files against key files),
``validate`` (structural checks), ``stats`` (corpus statistics),
``transform`` (span rewrites) and ``baseline`` (rule-based predictors).

Exit codes: 0 success, 2 malformed or unreadable input, 3 pairing mismatch.

At module level this imports only what building the parser needs, so
``--version``, ``--help`` and usage errors load no scoring code; each
command and worker function imports the modules it runs where it runs them.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from . import __version__
from .errors import ConlluParseError, DocumentPairError, SerializationError

if TYPE_CHECKING:
    import logging

    from .metrics import ScoreReport

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PAIRING = 3

# The names that the parser's help and defaults show, written out so that
# building it imports no registry: `metrics.ALL_METRICS`,
# `baselines.BASELINE_RULES` and `transforms.LAYER_TRANSFORMS` (which holds
# the baseline rules too).  tests/test_cli.py pins them to the registries.
_METRICS = ("muc", "bcub", "ceafe", "conll", "blanc", "lea", "mor", "zero")
_RULES = ("berulasek", "pronoun-gender", "propn-lemma", "simple-rule-based")
_TRANSFORMS = tuple(sorted(("conservative-head-reduce", "merge-same-span", "reduce-head",
                            "remove-singletons", *_RULES)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corefeval",
        description="CorefUD CoNLL-U parsing, coreference evaluation, "
                    "transforms, baselines and statistics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for info, -vv for debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    # the one --jobs option of the commands that go document by document
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=_job_count, default=0,
                      help="worker processes (default: one per usable CPU)")

    score = sub.add_parser("score", parents=[jobs],
                           help="evaluate response files against key files")
    score.add_argument("key", type=_path_list,
                       help="key (gold) file, or comma-separated list pairing datasets")
    score.add_argument("response", type=_path_list,
                       help="response (system) file or comma-separated list")
    score.add_argument("--match", choices=("partial", "exact", "head"), default="partial")
    score.add_argument("--keep-singletons", action="store_true",
                       help="keep single-mention entities (excluded by default)")
    score.add_argument("--metrics", default=",".join(_METRICS),
                       help="comma-separated subset of: " + ",".join(_METRICS))
    score.add_argument("--upos-filter", metavar="TAG",
                       help="score only entities with a mention head of this UPOS")
    score.add_argument("--format", choices=("text", "json", "tsv"), default="text")
    score.add_argument("--per-doc", action="store_true", help="report each document")
    score.add_argument("-o", "--output", metavar="FILE",
                       help="also write the report to FILE (.json/.tsv by extension)")
    score.set_defaults(func=cmd_score)

    validate = sub.add_parser("validate", help="check files structurally")
    validate.add_argument("paths", nargs="+")
    validate.add_argument("--strict", action="store_true",
                          help="treat cross-sentence mentions as errors")
    validate.set_defaults(func=cmd_validate)

    stats = sub.add_parser("stats", help="entity and mention statistics")
    stats.add_argument("paths", nargs="+")
    stats.add_argument("--table", choices=("entities", "mentions", "details", "all"),
                       default="all")
    stats.add_argument("--keep-singletons", action="store_true",
                       help="count singleton mentions in the mention table")
    stats.add_argument("--format", choices=("text", "tsv"), default="text")
    stats.set_defaults(func=cmd_stats)

    transform = sub.add_parser("transform", parents=[jobs],
                               help="rewrite coreference annotation")
    transform.add_argument("paths", nargs="+")
    transform.add_argument("--ops", required=True,
                           help="comma-separated: " + ",".join(_TRANSFORMS))
    _add_outputs(transform)
    transform.set_defaults(func=cmd_transform)

    baseline = sub.add_parser("baseline", parents=[jobs], help="run rule-based predictors")
    baseline.add_argument("paths", nargs="+")
    rules = baseline.add_mutually_exclusive_group(required=True)
    rules.add_argument("--rules",
                       help="comma-separated: " + ",".join(_RULES))
    rules.add_argument("--pipeline", choices=("berulasek", "simple-rule-based"),
                       help="published rule pipelines (shorthand for --rules)")
    baseline.add_argument("--strip", action="store_true",
                          help="drop existing Entity annotation first")
    _add_outputs(baseline)
    baseline.set_defaults(func=cmd_baseline)
    return parser


def _add_outputs(command: argparse.ArgumentParser) -> None:
    outputs = command.add_mutually_exclusive_group()
    outputs.add_argument("-o", "--output", help="output file (single input only)")
    outputs.add_argument("--out-dir", help="output directory (any number of inputs)")


def _path_list(text: str) -> str:
    if "" in text.split(","):
        raise argparse.ArgumentTypeError(f"empty file name in {text!r}")
    return text


def _job_count(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 0:
        raise argparse.ArgumentTypeError(f"{jobs} is negative; 0 means one per usable CPU")
    return jobs


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    import gc
    import logging  # here, as --version, --help and usage errors exit above

    level = (logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)]
    logging.basicConfig(level=level, format="%(levelname)s: %(message)s")
    # Documents hold no reference cycles (tests/test_model.py), so the cyclic
    # collector would only walk a long document's live objects, again and
    # again; the command runs without it, as do its pool workers.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except DocumentPairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PAIRING
    except (ConlluParseError, SerializationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # a file that cannot be read or written
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if collecting:
            gc.enable()


# ---------------------------------------------------------------------------
# documents in worker processes

def _map_documents(fn: Callable, tasks: Iterable, jobs: int) -> Iterator:
    """`fn(task)` for each task (a document's byte spans from
    `numbered_spans`, with the command's options), yielded in task order;
    the tasks are all taken before the first is run.

    With one job (0 means one per CPU this process may use) or one task
    this runs here, as the results are taken.  Otherwise a pool of
    min(jobs, tasks) workers takes one task at a time, so that a few long
    documents are spread over the workers; a task reads its document itself
    and returns its log records, emitted here in task order: a failing
    task's records, then its exception, and no record of a later task.  So
    the output and the errors are the same for any job count and process
    start method."""
    tasks = list(tasks)
    if not jobs:  # os.cpu_count() counts CPUs outside this process's cpuset too
        jobs = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    if jobs == 1 or len(tasks) < 2:
        yield from map(fn, tasks)
        return
    import logging
    from functools import partial

    pool = _start_pool(min(jobs, len(tasks)))
    try:
        for result, exc, records in pool.map(
                partial(_run_captured, fn, logging.getLogger().level), tasks):
            for record in records:
                logging.getLogger(record.name).handle(record)
            if exc is not None:
                raise exc from RuntimeError(result)  # the worker's traceback
            yield result
    finally:
        # drops the tasks not started; no worker is killed mid-task
        pool.shutdown(cancel_futures=True)


def _start_pool(workers: int):
    # here, as most commands start no pool
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers)


def _run_captured(fn: Callable, level: int, task):
    """`fn(task)` in a pool worker, as (result, exception, log records);
    the result of a failed task is its traceback.  It runs without the
    cyclic collector, as in `main` (a spawned worker does not inherit
    that), and the records logged at `level` go to a list of this task,
    not to stderr; the root logger is restored when the task ends."""
    import gc
    import logging

    gc.disable()
    records: list[logging.LogRecord] = []

    class KeepRecords(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            record.msg, record.args = record.getMessage(), None  # fixed as logged; picklable
            records.append(record)

    root = logging.getLogger()
    handlers, root_level = root.handlers, root.level
    root.handlers = [KeepRecords()]
    root.setLevel(level)
    try:
        result, exc = fn(task), None
    except Exception as caught:  # raised again in the main process
        import traceback

        result, exc = traceback.format_exc(), caught
    finally:
        root.handlers = handlers
        root.setLevel(root_level)
    return result, exc, records


# ---------------------------------------------------------------------------
# score

def cmd_score(args) -> int:
    from functools import partial

    from .conllu import numbered_spans
    from .metrics import EvalOptions, score_datasets

    key_paths = args.key.split(",")
    resp_paths = args.response.split(",")
    if len(key_paths) != len(resp_paths):
        raise DocumentPairError(
            f"{len(key_paths)} key files vs {len(resp_paths)} response files")
    opts = EvalOptions(
        match=args.match,
        keep_singletons=args.keep_singletons,
        metrics=tuple(m.strip() for m in args.metrics.split(",") if m.strip()),
        upos_filter=args.upos_filter,
    )

    def spans(path: str) -> list[tuple]:
        # (path, doc_id, first_line, start, end) per document; the bytes are dropped
        return [(path, *s) for s in numbered_spans(Path(path).read_bytes(), path)]

    datasets = ((name, spans(key_path), spans(resp_path)) for name, key_path, resp_path
                in zip(_dataset_names(key_paths), key_paths, resp_paths))
    report = score_datasets(datasets, lambda span: span[1],
                            partial(_map_documents, _score_worker, jobs=args.jobs),
                            opts, args.per_doc)

    rendered = _render_report(report, args.format, args.per_doc)
    print(rendered, end="" if rendered.endswith("\n") else "\n")
    if args.output:
        fmt = {".json": "json", ".tsv": "tsv"}.get(
            Path(args.output).suffix.lower(), args.format)
        Path(args.output).write_text(
            _render_report(report, fmt, args.per_doc), encoding="utf-8")
    return EXIT_OK


def _dataset_names(paths: list[str]) -> list[str]:
    """Each input's file stem, numbered (`x`, `x#2`) where an earlier input
    or a total row (`ALL` of `stats`, `MACRO` of `score`) has it."""
    taken = {"ALL", "MACRO"}
    names: list[str] = []
    for path in paths:
        base = name = Path(path).stem or path
        n = 2
        while name in taken:
            name, n = f"{base}#{n}", n + 1
        taken.add(name)
        names.append(name)
    return names


def _score_worker(task) -> dict[str, tuple]:
    from .conllu import read_document
    from .metrics import score_document_pair

    key_src, resp_src, opts = task
    resp_doc = None if resp_src is None else read_document(*resp_src)
    return score_document_pair(read_document(*key_src), resp_doc, opts)


# ---------------------------------------------------------------------------
# report rendering

def _pct(x: float) -> float:
    return round(100.0 * x, 2)


def _render_report(report: ScoreReport, fmt: str, per_doc: bool) -> str:
    return {"json": _render_json, "tsv": _render_tsv}.get(fmt, _render_text)(report, per_doc)


def _report_rows(report: ScoreReport, per_doc: bool) -> Iterator[tuple[str, str | None, dict]]:
    """The rows of the text and TSV reports as (dataset, doc_key or None,
    scores): each dataset, then its documents with `per_doc`, then MACRO
    when there are several datasets."""
    per_dataset = report.per_dataset
    docs = report.per_doc if per_doc else {}
    for name, scores in per_dataset.items():
        yield name, None, scores
        for doc_key, doc_scores in docs.get(name, {}).items():
            yield name, doc_key, doc_scores
    if len(per_dataset) > 1:
        yield "MACRO", None, report.macro


def _render_text(report: ScoreReport, per_doc: bool) -> str:
    match, singletons = report.variant
    lines = [f"match: {match}   singletons: {'kept' if singletons else 'excluded'}"]
    rows = [(name if doc_key is None else f"  [{doc_key}]", scores)
            for name, doc_key, scores in _report_rows(report, per_doc)]
    width = max([len("dataset")] + [len(label) for label, _ in rows])
    lines.append(f"{'dataset':<{width}}  {'metric':<6} {'R':>7} {'P':>7} {'F1':>7}")
    for label, scores in rows:
        for metric in report.metrics:
            if metric in scores:
                s = scores[metric]
                lines.append(f"{label:<{width}}  {metric:<6} "
                             f"{_pct(s.recall):>7.2f} {_pct(s.precision):>7.2f} "
                             f"{_pct(s.f1):>7.2f}")
    if (match, singletons) == ("partial", False) and "conll" in report.macro:
        lines += ["", f"CoNLL F1 (partial, no singletons): {_pct(report.macro['conll'].f1):.2f}"]
    return "\n".join(lines) + "\n"


def _render_json(report: ScoreReport, per_doc: bool) -> str:
    import json

    def scores_obj(scores: dict) -> dict:
        return {m: {"r": _pct(s.recall), "p": _pct(s.precision), "f1": _pct(s.f1)}
                for m, s in scores.items()}

    payload = {
        "schema": 1,
        "variant": {"match": report.variant[0], "singletons": report.variant[1]},
        "datasets": {n: scores_obj(s) for n, s in report.per_dataset.items()},
        "macro": scores_obj(report.macro),
    }
    if per_doc:
        payload["documents"] = {
            n: {d: scores_obj(s) for d, s in docs.items()}
            for n, docs in report.per_doc.items()
        }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render_tsv(report: ScoreReport, per_doc: bool) -> str:
    metrics = [m for m in report.metrics
               if any(m in s for s in report.per_dataset.values())]
    rows = ["\t".join(["dataset"] + [f"{m}.{c}" for m in metrics for c in ("r", "p", "f1")])]
    for name, doc_key, scores in _report_rows(report, per_doc):
        cells = [name if doc_key is None else f"{name} [{doc_key}]"]
        for m in metrics:
            s = scores.get(m)
            cells += ([f"{_pct(s.recall):.2f}", f"{_pct(s.precision):.2f}",
                       f"{_pct(s.f1):.2f}"] if s else ["", "", ""])
        rows.append("\t".join(cells))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# validate

def cmd_validate(args) -> int:
    failures = 0
    for path in args.paths:
        problems = validate_path(path, strict=args.strict)
        if problems:
            failures += 1
            for problem in problems:
                print(problem)
        else:
            print(f"{path}: OK")
    return EXIT_INPUT if failures else EXIT_OK


def validate_path(path: str, strict: bool = False) -> list[str]:
    """One file's problems as output lines naming the file: its parse error
    alone, or with `strict` its cross-sentence mentions."""
    from .conllu import iter_documents
    from .model import build_coref_layer

    problems: list[str] = []
    try:
        for doc in iter_documents(path):
            if strict:
                sent_index = doc.nodes.sent_index
                for entity in build_coref_layer(doc).entities:
                    for mention in entity.mentions:
                        first, last = sent_index[mention.start], sent_index[mention.end]
                        if first != last:
                            problems.append(f"{path}: document {doc.doc_id}: mention of"
                                            f" {entity.eid!r} crosses sentences"
                                            f" {first + 1}-{last + 1}")
    except ConlluParseError as exc:
        return [str(exc)]
    except OSError as exc:
        return [f"{path}: {exc.strerror}"]
    return problems


# ---------------------------------------------------------------------------
# stats

def cmd_stats(args) -> int:
    """Tally each document as it is read and drop its layer; print once
    every input has been read."""
    from collections import Counter

    from . import stats
    from .conllu import iter_documents
    from .model import build_coref_layer

    tables = stats.TABLES if args.table == "all" else (args.table,)
    totals: list[tuple[str, Counter]] = []
    for name, path in zip(_dataset_names(args.paths), args.paths):
        total: Counter = Counter()
        for doc in iter_documents(path):
            total.update(stats.tally(build_coref_layer(doc), tables, args.keep_singletons))
        totals.append((name, total))
    if len(totals) > 1:
        totals.append(("ALL", sum((total for _, total in totals), Counter())))
    render = _stats_tsv if args.format == "tsv" else _stats_text
    out: list[str] = []
    for table in tables:
        rows = [(name, stats.row(total, table)) for name, total in totals]
        columns = {"entities": stats.ENTITY_COLUMNS, "mentions": stats.MENTION_COLUMNS,
                   "details": stats.DETAIL_COLUMNS}[table]
        out.append(render(table, columns, rows))
    print("\n".join(out), end="")
    return EXIT_OK


def _stat_cell(column: str, value) -> str:
    if column in ("count", "max_len"):
        return str(int(value))
    if column == "per_1k":
        return f"{value:.0f}"
    return f"{value:.1f}"


def _stats_text(table: str, columns: tuple, rows: list[tuple[str, dict]]) -> str:
    name_w = max([len(n) for n, _ in rows] + [len(table)])
    widths = {c: max(len(c), 8) for c in columns}
    lines = [f"[{table}]"]
    lines.append(" ".join([f"{'':<{name_w}}"] + [f"{c:>{widths[c]}}" for c in columns]))
    for name, row in rows:
        cells = [f"{_stat_cell(c, row[c]):>{widths[c]}}" for c in columns]
        lines.append(" ".join([f"{name:<{name_w}}"] + cells))
    return "\n".join(lines) + "\n"


def _stats_tsv(table: str, columns: tuple, rows: list[tuple[str, dict]]) -> str:
    lines = ["\t".join(["file"] + list(columns))]
    for name, row in rows:
        lines.append("\t".join([name] + [_stat_cell(c, row[c]) for c in columns]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# transform / baseline

def _resolve_outputs(args) -> list[tuple[str, str | None]]:
    if args.out_dir:
        names = [Path(p).name for p in args.paths]
        twice = sorted({n for n in names if names.count(n) > 1})
        if twice:
            raise ValueError("inputs share a file name, so --out-dir would write"
                             " one output over another: " + ", ".join(twice))
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        return [(p, str(Path(args.out_dir) / n)) for p, n in zip(args.paths, names)]
    if len(args.paths) > 1:
        raise ValueError("multiple inputs need --out-dir")
    return [(args.paths[0], args.output)]


def _rewrite_files(args, ops) -> int:
    """Rewrite each document where it is read (`_map_documents`); write each
    output once all of its documents succeed, in input order."""
    from itertools import islice

    from .conllu import numbered_spans

    strip = getattr(args, "strip", False)  # only `baseline` has --strip
    outputs, failure = [], None
    for in_path, out_path in _resolve_outputs(args):
        try:
            spans = [(in_path, *s) for s in
                     numbered_spans(Path(in_path).read_bytes(), in_path)]
        except (OSError, ConlluParseError) as exc:
            failure = exc  # raised once the inputs before it are written
            break
        outputs.append((out_path, spans))
    texts = _map_documents(_rewrite_worker, [(span, ops, strip) for _out, spans in outputs
                                             for span in spans], args.jobs)
    for out_path, spans in outputs:
        text = "".join(islice(texts, len(spans)))
        if out_path:
            Path(out_path).write_bytes(text.encode("utf-8"))
        else:
            sys.stdout.write(text)
    if failure is not None:
        raise failure
    return EXIT_OK


def _rewrite_worker(task) -> str:
    from .conllu import doc_to_text, read_document
    from .transforms import apply_ops

    span, ops, strip = task
    doc = read_document(*span)
    return doc_to_text(apply_ops(doc, *ops, strip=strip))


def _ops(text: str, registry: dict[str, Callable], kind: str) -> list[Callable]:
    """The `registry` entries that comma-separated `text` names, in order;
    `kind` ("transform" or "rule") names them in errors."""
    names = [n.strip() for n in text.split(",") if n.strip()]
    if not names:
        raise ValueError(f"no {kind}s given")
    for name in names:
        if name not in registry:
            raise ValueError(f"unknown {kind} {name!r}; available: "
                             + ", ".join(sorted(registry)))
    return [registry[name] for name in names]


def cmd_transform(args) -> int:
    from . import baselines  # registers baseline rules as transforms
    from .transforms import LAYER_TRANSFORMS

    return _rewrite_files(args, _ops(args.ops, LAYER_TRANSFORMS, "transform"))


def cmd_baseline(args) -> int:
    from .baselines import BASELINE_RULES

    return _rewrite_files(args, _ops(args.pipeline or args.rules, BASELINE_RULES, "rule"))


if __name__ == "__main__":
    sys.exit(main())
