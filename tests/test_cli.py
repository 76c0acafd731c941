import argparse
import ast
import gc
import importlib
import json
import logging
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import corefeval
import gen
from corefeval import cli
from corefeval.cli import _render_json, main
from corefeval.conllu import docs_to_text, parse_file, parse_text
from corefeval.metrics import EvalOptions, evaluate
from corefeval.model import build_coref_layer
from corefeval.transforms import apply_ops, reduce_layer_to_heads

BUNDLED = ("animals", "zeros", "discontinuous", "pronoun_baseline", "propn_baseline")


@pytest.fixture
def gold(fixtures_dir, tmp_path):
    src = (fixtures_dir / "animals.conllu").read_text()
    path = tmp_path / "gold.conllu"
    path.write_text(src)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_python(*args: str, timeout: int = 120) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this copy of corefeval."""
    src = str(Path(corefeval.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


class TestScoreCommand:
    def test_identity_exits_zero_with_all_hundreds(self, gold, capsys):
        code, out, _ = run(capsys, "score", gold, gold)
        assert code == 0
        assert "CoNLL F1 (partial, no singletons): 100.00" in out
        for metric in ("muc", "bcub", "ceafe", "conll", "blanc", "lea", "mor", "zero"):
            assert metric in out

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.conllu"
        bad.write_text("# newdoc id = d\n1\tonly\tthree\tcolumns\n\n")
        code, _, err = run(capsys, "score", bad, bad)
        assert code == 2
        assert "10 tab-separated" in err
        # an error in a later document carries the same file:line as validate
        good = "# newdoc id = d1\n1\tw\tw\tX\t_\t_\t0\tdep\t_\t_\n\n"
        bad.write_text(good + "# newdoc id = d2\n1\tw\tw\tX\t_\t_\t0\tdep\t_\n\n")
        where = f"{bad}:5: expected 10 tab-separated columns, got 9"
        code, out, _ = run(capsys, "validate", bad)
        assert code == 2 and where in out
        for jobs in ("1", "2"):
            code, _, err = run(capsys, "score", bad, bad, "--jobs", jobs)
            assert code == 2
            assert f"error: {where}" in err, (jobs, err)

    def test_duplicate_document_ids_keep_a_row_each(self, gold, tmp_path, capsys):
        resp = tmp_path / "resp.conllu"
        resp.write_text(docs_to_text(apply_ops(d, reduce_layer_to_heads) for d in parse_file(gold)))
        (tmp_path / "dup").mkdir()
        dup_key, dup_resp = tmp_path / "dup" / "gold.conllu", tmp_path / "dup" / "resp.conllu"
        for src, dst in ((gold, dup_key), (resp, dup_resp)):
            dst.write_text(src.read_text().replace("id = animals-2", "id = animals-1"))
        code, out, _ = run(capsys, "score", dup_key, dup_resp, "--per-doc", "--format", "json")
        assert code == 0
        dup = json.loads(out)
        assert sorted(dup["documents"]["gold"]) == ["animals-1#0", "animals-1#1"]
        code, out, _ = run(capsys, "score", gold, resp, "--per-doc", "--format", "json")
        unique = json.loads(out)
        assert dup["datasets"] == unique["datasets"]
        assert list(dup["documents"]["gold"].values()) == \
            list(unique["documents"]["gold"].values())

    def test_differing_empty_nodes_exit_three(self, fixtures_dir, tmp_path, capsys):
        src = (fixtures_dir / "zeros.conllu").read_text()
        key = tmp_path / "key.conllu"
        key.write_text(src)
        resp = tmp_path / "resp.conllu"
        resp.write_text("\n".join(
            line for line in src.split("\n")
            if not line.startswith("0.1\t_\t_\tPRON\t_\tGender=Masc")) )
        code, _, err = run(capsys, "score", key, resp, "--metrics", "zero")
        assert code == 3
        assert "node counts differ" in err or "tokens differ" in err

    @pytest.mark.parametrize("metrics, message", [
        ("muc,muc", "metrics given more than once: muc"),
        ("bcub,lea,mor,lea,bcub", "metrics given more than once: bcub, lea"),
        (",", "no metrics given"), ("", "no metrics given")])
    def test_duplicate_or_no_metrics_exit_two(self, gold, capsys, metrics, message):
        code, out, err = run(capsys, "score", gold, gold, "--metrics", metrics)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_unpaired_file_lists_exit_three(self, gold, capsys):
        code, _, _ = run(capsys, "score", f"{gold},{gold}", gold)
        assert code == 3

    @pytest.mark.parametrize("key, resp, argument", [
        ("{g},", "{g},{g}", "key"), ("{g},{g}", ",{g}", "response"),
        ("{g},,{g}", "{g},{g},{g}", "key"), ("", "{g}", "key")])
    def test_empty_file_name_in_a_list_exits_two(self, gold, capsys, key, resp, argument):
        # an empty entry would be read as the current directory
        with pytest.raises(SystemExit) as exit_:
            main(["score", key.format(g=gold), resp.format(g=gold)])
        assert exit_.value.code == 2
        assert f"argument {argument}: empty file name in" in capsys.readouterr().err

    def test_json_schema(self, gold, capsys):
        code, out, _ = run(capsys, "score", gold, gold, "--format", "json")
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["variant"] == {"match": "partial", "singletons": False}
        assert payload["datasets"]["gold"]["conll"]["f1"] == 100.0
        assert set(payload["datasets"]["gold"]["muc"]) == {"r", "p", "f1"}

    def test_tsv_format_and_macro_row(self, gold, fixtures_dir, tmp_path, capsys):
        other = tmp_path / "zeros.conllu"
        other.write_text((fixtures_dir / "zeros.conllu").read_text())
        code, out, _ = run(capsys, "score", f"{gold},{other}", f"{gold},{other}",
                           "--format", "tsv")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().split("\n")]
        assert rows[0][0] == "dataset"
        assert [r[0] for r in rows[1:]] == ["gold", "zeros", "MACRO"]

    def test_input_named_macro_gets_a_numbered_row(self, gold, tmp_path, capsys):
        macro = tmp_path / "MACRO.conllu"
        macro.write_text(gold.read_text())
        pair = f"{macro},{gold}"
        _, out, _ = run(capsys, "score", pair, pair, "--format", "tsv")
        assert [line.split("\t")[0] for line in out.strip().split("\n")[1:]] == [
            "MACRO#2", "gold", "MACRO"]
        _, out, _ = run(capsys, "score", pair, pair)
        assert [line.split()[0] for line in out.splitlines() if " muc " in line] == [
            "MACRO#2", "gold", "MACRO"]
        _, out, _ = run(capsys, "score", pair, pair, "--format", "json")
        assert list(json.loads(out)["datasets"]) == ["MACRO#2", "gold"]

    def test_macro_line_absent_for_single_dataset(self, gold, capsys):
        _, out, _ = run(capsys, "score", gold, gold)
        assert "MACRO" not in out

    def test_output_file_written(self, gold, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, _, _ = run(capsys, "score", gold, gold, "-o", report)
        assert code == 0
        assert json.loads(report.read_text())["schema"] == 1

    def test_output_format_from_upper_case_suffix(self, gold, tmp_path, capsys):
        for name, first in (("report.TSV", "dataset\t"), ("report.Json", "{")):
            code, out, _ = run(capsys, "score", gold, gold, "-o", tmp_path / name)
            assert code == 0 and "CoNLL F1" in out  # stdout keeps --format
            assert (tmp_path / name).read_text().startswith(first), name

    def test_per_doc_breakdown(self, gold, tmp_path, capsys):
        _, out, _ = run(capsys, "score", gold, gold, "--per-doc")
        assert "[animals-1]" in out and "[animals-2]" in out
        # the document labels are wider than the dataset name, yet every row
        # has the header's columns
        header, *table = out.splitlines()[1:-2]
        assert table[-1].startswith("  [animals-2]")
        col = header.index("metric")
        for line in table:
            assert line[col - 2:col] == "  " and line[col] != " ", line
        assert {len(line) for line in table} == {len(header)}

        _, tsv, _ = run(capsys, "score", gold, gold, "--per-doc", "--format", "tsv",
                        "-o", tmp_path / "x.tsv")
        rows = [r.split("\t") for r in tsv.splitlines()]
        assert [r[0] for r in rows] == [
            "dataset", "gold", "gold [animals-1]", "gold [animals-2]"]
        assert {len(r) for r in rows} == {len(rows[0])}
        assert (tmp_path / "x.tsv").read_text() == tsv

    def test_upos_filter_flag(self, gold, capsys):
        code, out, _ = run(capsys, "score", gold, gold, "--upos-filter", "PROPN",
                           "--keep-singletons", "--metrics", "conll",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["datasets"]["gold"]["conll"]["f1"] == 100.0

    @pytest.mark.parametrize("tag", ["", " "])
    def test_blank_upos_filter_exits_two(self, gold, capsys, tag):
        code, out, err = run(capsys, "score", gold, gold, "--upos-filter", tag)
        assert (code, out) == (2, "")
        assert err == f"error: UPOS filter {tag!r} names no tag\n"

    def test_match_and_singleton_flags(self, gold, capsys):
        for flags in (["--match", "exact"], ["--match", "head"],
                      ["--keep-singletons"]):
            code, out, _ = run(capsys, "score", gold, gold, *flags)
            assert code == 0
            assert "100.00" in out

    def test_deterministic_across_job_counts(self, tmp_path, capsys):
        rng = random.Random(3)
        parts = []
        for d in range(6):
            skel = gen.random_skeleton(rng, f"doc{d}", n_sentences=(2, 4))
            parts.append(gen.conllu_text(
                skel, gen.random_mentions(rng, skel, n_entities=(2, 4))))
        key = tmp_path / "k.conllu"
        key.write_text("".join(parts))
        outputs = []
        for jobs in ("1", "2", "3"):
            code, out, _ = run(capsys, "score", key, key, "--jobs", jobs,
                               "--format", "json")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_missing_response_document_scored_empty(self, tmp_path, capsys, caplog):
        rng = random.Random(4)
        skel1 = gen.random_skeleton(rng, "doc1")
        skel2 = gen.random_skeleton(rng, "doc2")
        m1 = gen.random_mentions(rng, skel1, no_singletons=True, n_mentions=(2, 3))
        m2 = gen.random_mentions(rng, skel2, no_singletons=True, n_mentions=(2, 3))
        key = tmp_path / "k.conllu"
        key.write_text(gen.conllu_text(skel1, m1) + gen.conllu_text(skel2, m2))
        resp = tmp_path / "r.conllu"
        resp.write_text(gen.conllu_text(skel1, m1))
        code, out, _ = run(capsys, "score", key, resp, "--jobs", "1")
        assert code == 0
        payload = run(capsys, "score", key, resp, "--format", "json")[1]
        conll = json.loads(payload)["datasets"]["k"]["conll"]["f1"]
        assert 0 < conll < 100


class TestSharedEngine:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_library_and_cli_reports_equal(self, name, fixtures_dir, tmp_path, capsys):
        key = fixtures_dir / f"{name}.conllu"
        key_docs = parse_file(key)
        perturbed = tmp_path / "perturbed.conllu"
        perturbed.write_text(docs_to_text([apply_ops(d, reduce_layer_to_heads) for d in key_docs]))
        for resp in (key, perturbed):
            resp_docs = parse_file(resp)
            for match in ("partial", "exact", "head"):
                for keep in (False, True):
                    opts = EvalOptions(match=match, keep_singletons=keep)
                    library = _render_json(
                        evaluate({name: key_docs}, {name: resp_docs}, opts, per_doc=True),
                        per_doc=True)
                    code, cli, _ = run(capsys, "score", key, resp, "--match", match,
                                       *(["--keep-singletons"] if keep else []),
                                       "--format", "json", "--per-doc", "--jobs", "1")
                    assert code == 0
                    assert cli == library, (resp.name, match, keep)

    @pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
    def test_start_method_matches_single_job(self, start_method, tmp_path, capsys):
        rng = random.Random(5)
        key_parts, resp_parts = [], []
        for d in range(5):
            skel = gen.random_skeleton(rng, f"doc{d}", n_sentences=(2, 4))
            specs = gen.random_mentions(rng, skel, n_entities=(2, 4))
            key_parts.append(gen.conllu_text(skel, specs))
            resp_parts.append(gen.conllu_text(skel, gen.perturb_mentions(rng, specs, skel)))
        # parsing this document in a worker logs a warning
        cross = ("# newdoc id = cross\n"
                 "1\tw\tw\tNOUN\t_\t_\t0\troot\t_\tEntity=(e1\n\n"
                 "1\tv\tv\tNOUN\t_\t_\t0\troot\t_\tEntity=e1)\n"
                 "2\tu\tu\tNOUN\t_\t_\t1\tdep\t_\tEntity=(e1)\n\n")
        key, resp = tmp_path / "k.conllu", tmp_path / "r.conllu"
        key.write_text("".join(key_parts) + cross)
        resp.write_text("".join(resp_parts) + cross)
        argv = ["score", str(key), str(resp), "--format", "json", "--per-doc"]
        code, single, _ = run(capsys, *argv, "--jobs", "1")
        assert code == 0
        # a spawned worker inherits nothing from the parent process, and a
        # forkserver worker only what the server process imported
        script = ("import multiprocessing, sys\n"
                  f"multiprocessing.set_start_method({start_method!r})\n"
                  "from corefeval.cli import main\n"
                  f"sys.exit(main({argv + ['--jobs', '2']!r}))\n")
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == single
        assert (f"WARNING: {key}: mention of e1 crosses a sentence boundary"
                " in document cross") in proc.stderr.splitlines()


# One `main()` call per argument list in a fresh interpreter, each with
# its own stdout, stderr and logging set-up: prints [[code, out, err], ...].
# The first argument is a start method for the worker processes, or "" for
# the platform's default.
RUN_MAINS = """\
import contextlib, io, json, logging, multiprocessing, sys
if sys.argv[1]:
    multiprocessing.set_start_method(sys.argv[1])
from corefeval.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    logging.getLogger().handlers.clear()  # so that main() logs to this stderr
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def run_mains(start_method: str, argvs: list[list[str]]) -> list[list]:
    proc = run_python("-c", RUN_MAINS, start_method,
                      json.dumps([[str(a) for a in argv] for argv in argvs]), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# a mention across a sentence boundary, which the parse warns about, and a
# head that resolves to no word, which reading the word's parent logs at -vv
CROSS = ("# newdoc id = {}\n"
         "1\tw\tw\tNOUN\t_\tGender=Fem\t0\troot\t_\tEntity=(e1\n\n"
         "1\tv\tv\tPRON\t_\tGender=Fem\t0\troot\t_\tEntity=e1)\n"
         "2\tu\tu\tPROPN\t_\t_\t9\tdep\t_\tEntity=(e1)\n"
         "3\tu\tu\tPROPN\t_\t_\t1\tdep\t_\t_\n\n")
UNCLOSED = "# newdoc id = {}\n1\tz\tz\tNOUN\t_\t_\t0\troot\t_\tEntity=(e3\n\n"


def random_docs(seed: int, names: list[str]) -> str:
    rng = random.Random(seed)
    return "".join(gen.random_document(rng, name, p_provided_head=0.5)[2]
                   for name in names)


class TestParallelRewrites:
    """`transform` and `baseline` at --jobs 1, at --jobs 2 and at --jobs 2
    with spawned and with forkserver workers: the same output files,
    stdout, stderr at every -v level, and exit code.  Document 2 of `late.conllu` warns, document
    3 cannot be parsed and document 4 warns too late to be reported."""

    COMMANDS = (["transform", "--ops", "conservative-head-reduce,merge-same-span"],
                ["baseline", "--pipeline", "simple-rule-based", "--strip"])

    def test_same_for_any_job_count_and_start_method(self, fixtures_dir, tmp_path):
        fixtures = [fixtures_dir / f"{name}.conllu" for name in BUNDLED]
        good, late = tmp_path / "good.conllu", tmp_path / "late.conllu"
        good.write_text(random_docs(1, ["g1", "g2"]) + CROSS.format("g3")
                        + random_docs(2, ["g4", "g5", "g6"]))
        late.write_text(random_docs(3, ["d1"]) + CROSS.format("d2") + UNCLOSED.format("d3")
                        + CROSS.format("d4") + random_docs(4, ["d5", "d6"]))
        modes = ("1", "2", "spawn", "forkserver")
        argvs = {mode: [] for mode in modes}
        for mode in modes:
            jobs = ["--jobs", "1" if mode == "1" else "2"]
            for i, (command, *options) in enumerate(self.COMMANDS):
                for level, verbose in enumerate(([], ["-v"], ["-vv"])):
                    where = tmp_path / mode / f"{i}{level}"
                    argvs[mode] += [
                        [*verbose, command, good, *options, *jobs],  # to stdout
                        [*verbose, command, late, *options, *jobs, "-o", where / "late"],
                        # the last input fails
                        [*verbose, command, good, *fixtures, late, *options, *jobs,
                         "--out-dir", where]]
        # "1" and "2" start workers the platform's default way
        results = {mode: run_mains("" if mode.isdigit() else mode, argvs[mode])
                   for mode in modes}
        files = {mode: sorted((str(p.relative_to(tmp_path / mode)), p.read_bytes())
                              for p in (tmp_path / mode).rglob("*") if p.is_file())
                 for mode in modes}
        for mode in modes[1:]:
            assert results[mode] == results["1"], mode
            assert files[mode] == files["1"], mode
        # what the serial run itself shows
        assert [code for code, _out, _err in results["1"]] == [0, 2, 2] * 6
        assert len(files["1"]) == 6 * (1 + len(fixtures))
        assert not any(name.endswith("late") or name.endswith("late.conllu")
                       for name, _data in files["1"])
        for (_code, out, err), argv in zip(results["1"], argvs["1"]):
            lines = err.splitlines()
            # the transform finds the head of the mention (e1) on that word; the
            # baseline strips it, and its rules read no parent of that word
            assert (argv[0] == "-vv" and "transform" in argv) == any(
                "unresolved head 9" in line for line in lines)
            if late in argv:
                assert lines[-1] == (f"error: {late}: unclosed Entity bracket for 'e3'"
                                     " at end of document d3")
                # the failing document's open bracket is its error, not a crossing
                warned = [line[-2:] for line in lines if "crosses a sentence" in line]
                assert warned == (["g3", "d2"] if good in argv else ["d2"])
            else:
                assert out.startswith("# newdoc id = g1\n")


class TestWorkers:
    def test_score_warnings_in_document_order(self, tmp_path):
        key = tmp_path / "k.conllu"
        key.write_text("".join(CROSS.format(f"d{d}") + random_docs(d, [f"r{d}"])
                               for d in range(12)))
        runs = [run_python("-m", "corefeval.cli", "score", str(key), str(key),
                           "--format", "json", "--jobs", jobs)
                for jobs in ("1", "2")]
        assert [r.returncode for r in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stderr.splitlines() == runs[1].stderr.splitlines() == [
            f"WARNING: {key}: mention of e1 crosses a sentence boundary in document d{d}"
            for d in range(12) for _side in ("key", "response")]

    @pytest.fixture
    def pools(self, monkeypatch) -> list[int]:
        """The worker counts of the pools started, each run in-process."""
        started = []

        class InProcess:
            def __init__(self, workers):
                started.append(workers)

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(cli, "_start_pool", InProcess)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        return started

    def test_workers_at_most_documents(self, pools, gold, fixtures_dir, tmp_path, capsys):
        one = fixtures_dir / "pronoun_baseline.conllu"  # a single document
        assert len(parse_file(one)) == 1 and len(parse_file(gold)) == 2
        for argv, workers in (
                (["transform", gold, "--ops", "reduce-head"], [2]),
                (["transform", gold, "--ops", "reduce-head", "--jobs", "3"], [2]),
                (["baseline", gold, "--rules", "propn-lemma", "--jobs", "1"], []),
                (["baseline", one, "--rules", "propn-lemma"], []),
                (["transform", gold, gold, gold, "--ops", "reduce-head",
                  "--out-dir", tmp_path / "out"], []),  # refused before reading
                (["transform", gold, one, "--ops", "reduce-head",
                  "--out-dir", tmp_path / "out"], [3]),
                (["score", gold, gold, "--jobs", "5"], [2]),
                (["score", one, one], [])):
            pools.clear()
            code, _out, _err = run(capsys, *argv)
            assert (code, pools) == (2 if argv.count(gold) == 3 else 0, workers), argv

    @pytest.mark.parametrize("command", [["score", "{gold}", "{gold}"],
                                         ["transform", "{gold}", "--ops", "reduce-head"],
                                         ["baseline", "{gold}", "--rules", "propn-lemma"]])
    def test_negative_jobs_rejected(self, command, gold, capsys):
        argv = [a.format(gold=gold) for a in command]
        with pytest.raises(SystemExit) as exit_:
            main(argv + ["--jobs", "-1"])
        assert exit_.value.code == 2
        assert "argument --jobs: -1 is negative" in capsys.readouterr().err

    def test_multiprocessing_imported_only_for_a_pool(self, fixtures_dir, tmp_path):
        animals = str(fixtures_dir / "animals.conllu")
        serial = [["validate", animals], ["stats", animals],
                  ["score", animals, animals, "--jobs", "1"],
                  ["transform", animals, "--ops", "reduce-head", "--jobs", "1"],
                  ["baseline", animals, "--rules", "propn-lemma", "--jobs", "1"],
                  ["score", str(fixtures_dir / "pronoun_baseline.conllu"),
                   str(fixtures_dir / "pronoun_baseline.conllu")]]  # one document
        script = ("import contextlib, io, sys\n"
                  "from corefeval.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    with contextlib.suppress(SystemExit):\n"
                  "        main(['--version'])\n"
                  f"    codes = [main(argv) for argv in {serial!r}]\n"
                  "    loaded = 'multiprocessing' in sys.modules\n"
                  f"    main({['transform', animals, '--ops', 'reduce-head', '--jobs', '2']!r})\n"
                  "print(codes, loaded, 'multiprocessing' in sys.modules)\n")
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 0, 0, 0, 0, 0] False True\n"

class TestInputPolicy:
    @pytest.mark.parametrize("kind", ["crlf", "bom", "badutf", "sup", "leadzero", "longid",
                                      "badpart", "partrange", "partzero", "longpart",
                                      "reopen"])
    def test_crlf_and_bom_rejected_by_every_command(self, kind, gold, tmp_path, capsys):
        bad = tmp_path / "bad.conllu"
        data = gold.read_bytes()
        lines = data.split(b"\n")
        if kind == "crlf":
            bad.write_bytes(data.replace(b"\n", b"\r\n"))
            message = (f"{bad}:1: carriage return in line"
                       " (CRLF line endings are not supported)")
        elif kind == "bom":
            bad.write_bytes(b"\xef\xbb\xbf" + data)
            message = (f"{bad}:1: byte order mark (U+FEFF); save the file as"
                       " UTF-8 without BOM")
        elif kind == "badutf":
            lines[5] = lines[5].replace(b"dog", b"d\xffg", 1)
            bad.write_bytes(b"\n".join(lines))
            message = f"{bad}:6: invalid UTF-8 (byte 0xff)"
        elif kind == "sup":
            # "²".isdigit() is true, but int("²") fails
            lines[4] = "²".encode() + lines[4][1:]
            bad.write_bytes(b"\n".join(lines))
            message = f"{bad}:5: unknown token id syntax '²'"
        elif kind == "leadzero":
            # a number has no leading zero: not the empty node 1.1
            lines[23] = lines[23].replace(b"1.1\t", b"1.01\t", 1)
            bad.write_bytes(b"\n".join(lines))
            message = f"{bad}:24: unknown token id syntax '1.01'"
        elif kind == "longid":
            # more digits than `int` reads (4300 by default) is no number
            lines[4] = b"1" * 5000 + lines[4][1:]
            bad.write_bytes(b"\n".join(lines))
            message = f"{bad}:5: unknown token id syntax '{'1' * 5000}'"
        elif kind == "badpart":
            # the first part of e3 becomes a second part with no first
            lines[22] = lines[22].replace(b"(e3[1/2])", b"(e3[2/2])")
            bad.write_bytes(b"\n".join(lines))
            message = f"{bad}:23: part 2/2 of entity 'e3' has no preceding part 1"
        elif kind == "partrange":
            lines[22] = lines[22].replace(b"(e3[1/2])", b"(e3[0/2])")
            bad.write_bytes(b"\n".join(lines))
            message = (f"{bad}:23: part index out of range in Entity value"
                       " '(e3[0/2])'")
        elif kind == "partzero":
            lines[22] = lines[22].replace(b"(e3[1/2])", b"(e3[01/2])")
            bad.write_bytes(b"\n".join(lines))
            message = (f"{bad}:23: malformed part index in Entity value"
                       " '(e3[01/2])'")
        elif kind == "longpart":
            lines[22] = lines[22].replace(b"(e3[1/2])", b"(e3[" + b"1" * 5000 + b"/2])")
            bad.write_bytes(b"\n".join(lines))
            message = (f"{bad}:23: malformed part index in Entity value"
                       f" '(e3[{'1' * 5000}/2])'")
        else:
            # e1, open from line 4 to 6, opens again on line 5
            assert lines[4].endswith(b"\t_")
            lines[4] = lines[4][:-1] + b"Entity=(e1"
            bad.write_bytes(b"\n".join(lines))
            message = (f"{bad}:5: entity 'e1' opened twice without distinct part"
                       " indices")
        code, out, _ = run(capsys, "validate", bad, gold)
        # the parse error names the file once
        assert code == 2 and out.splitlines() == [message, f"{gold}: OK"]
        for argv in (["score", bad, bad], ["score", bad, bad, "--jobs", "2"],
                     ["stats", bad], ["transform", bad, "--ops", "reduce-head"],
                     ["baseline", bad, "--rules", "propn-lemma"]):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert f"error: {message}" in err, (argv, err)
            assert out == ""

    def test_a_head_index_past_the_digit_limit_is_no_index(self, gold, tmp_path, capsys):
        # a head field of more digits than `int` reads is no number, so every
        # command computes the head without a warning, as for "02"
        path = tmp_path / "head.conllu"
        text = gold.read_text()
        path.write_text(text.replace("(e1-animal-3-", f"(e1-animal-{'1' * 5000}-", 1))
        outs = {}
        for argv in (["validate", path], ["score", path, path], ["stats", path],
                     ["transform", path, "--ops", "reduce-head"],
                     ["baseline", path, "--rules", "propn-lemma"]):
            code, outs[argv[0]], err = run(capsys, *argv)
            assert code == 0 and err == "", (argv, err)
        # the reduction keeps the field, which is no index
        assert f"Entity=(e1-animal-{'1' * 5000}-)" in outs["transform"]


class TestMissingInput:
    """A file that cannot be read is an input error that names it, in every
    subcommand: exit code 2 and no traceback."""

    @pytest.fixture
    def missing(self, tmp_path):
        return tmp_path / "missing.conllu"

    def check(self, capsys, missing, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {missing}: No such file or directory\n"

    def test_score(self, gold, missing, capsys):
        self.check(capsys, missing, "score", missing, gold)
        for jobs in ("1", "2"):
            self.check(capsys, missing, "score", gold, missing, "--jobs", jobs)

    def test_validate_goes_on_to_the_next_file(self, gold, missing, capsys):
        code, out, err = run(capsys, "validate", missing, gold)
        assert code == 2 and err == ""
        assert out.splitlines() == [f"{missing}: No such file or directory",
                                    f"{gold}: OK"]

    def test_stats(self, gold, missing, capsys):
        self.check(capsys, missing, "stats", gold, missing)

    def test_transform(self, missing, tmp_path, capsys):
        self.check(capsys, missing, "transform", missing, "--ops", "reduce-head",
                   "--out-dir", tmp_path / "out")
        assert list((tmp_path / "out").iterdir()) == []

    def test_baseline(self, missing, capsys):
        self.check(capsys, missing, "baseline", missing, "--rules", "propn-lemma")


class TestEmptyInput:
    """A file without a document, empty or of blank lines only, is an input
    error that names it, in `score` as in the commands that parse it."""

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank"])
    def test_score(self, gold, tmp_path, capsys, text):
        empty = tmp_path / "empty.conllu"
        empty.write_text(text)
        for key, resp in ((empty, gold), (gold, empty), (empty, empty)):
            for jobs in ("1", "2"):
                code, out, err = run(capsys, "score", key, resp, "--jobs", jobs)
                assert code == 2 and out == ""
                assert err == f"error: {empty}: no content found\n"
        code, out, err = run(capsys, "stats", empty)
        assert code == 2 and err == f"error: {empty}: no content found\n"


class TestOneDocumentAtATime:
    """A cross-sentence mention early in a file and a malformed last
    document: the commands that go one document at a time report only the
    parse error and write nothing."""

    GOOD = ("# newdoc id = d1\n1\tw\tw\tNOUN\t_\t_\t0\troot\t_\tEntity=(e1\n\n"
            "1\tv\tv\tNOUN\t_\t_\t0\troot\t_\tEntity=e1)\n"
            "2\tu\tu\tNOUN\t_\t_\t1\tdep\t_\tEntity=(e1)\n\n"
            "# newdoc id = d2\n1\tx\tx\tNOUN\t_\t_\t0\troot\t_\tEntity=(e2)\n\n")
    BAD = "# newdoc id = d3\n1\tz\tz\tNOUN\t_\t_\t0\troot\t_\tEntity=(e3\n\n"

    @pytest.fixture
    def late_error(self, tmp_path):
        path = tmp_path / "late.conllu"
        path.write_text(self.GOOD + self.BAD)
        return path

    def test_transform_writes_no_output(self, late_error, tmp_path, capsys):
        out = tmp_path / "out.conllu"
        code, stdout, err = run(capsys, "transform", late_error, "--ops", "reduce-head",
                                "-o", out)
        assert code == 2 and not out.exists() and stdout == ""
        assert f"error: {late_error}: unclosed Entity bracket for 'e3'" in err

    def test_strict_validate_prints_only_the_parse_error(self, late_error, tmp_path,
                                                         capsys):
        good = tmp_path / "good.conllu"
        good.write_text(self.GOOD)
        code, out, _ = run(capsys, "validate", "--strict", good)
        assert code == 2 and "crosses sentences" in out
        code, out, _ = run(capsys, "validate", "--strict", late_error)
        assert code == 2
        assert out.splitlines() == [
            f"{late_error}: unclosed Entity bracket for 'e3' at end of document d3"]


class TestCollectorPolicy:
    """A command runs without the cyclic collector, which on a long document
    would only walk its live objects again and again, and leaves the
    collector as it found it; pool workers follow the same policy."""

    def test_a_long_document_runs_no_full_collection(self, tmp_path, capsys):
        path = tmp_path / "long.conllu"
        path.write_text(gen.synthetic_corpus(random.Random(24), 1, 3000, 10))
        full = []

        def count(phase, info):
            if phase == "start" and info["generation"] == 2:
                full.append(info)

        before = gc.isenabled(), gc.get_threshold()
        gc.callbacks.append(count)
        try:
            code, out, _ = run(capsys, "score", path, path, "--jobs", "1")
        finally:
            gc.callbacks.remove(count)
        assert code == 0 and "CoNLL" in out
        assert full == []
        assert (gc.isenabled(), gc.get_threshold()) == before

    def test_the_collector_state_is_restored(self, gold, capsys):
        collecting = gc.isenabled()
        try:
            for state in (gc.disable, gc.enable):
                state()
                assert run(capsys, "stats", gold)[0] == 0
                assert run(capsys, "validate", gold.parent / "missing.conllu")[0] == 2
                assert gc.isenabled() == (state is gc.enable)
        finally:
            (gc.enable if collecting else gc.disable)()

    def test_a_worker_runs_without_the_collector(self):
        collecting, root = gc.isenabled(), logging.getLogger()
        handlers, level = root.handlers[:], root.level
        gc.enable()
        try:
            cli._set_up_worker(logging.INFO)
            assert not gc.isenabled()
        finally:
            (gc.enable if collecting else gc.disable)()
            root.handlers[:] = handlers
            root.setLevel(level)


class TestValidateCommand:
    def test_valid_files_pass(self, fixtures_dir, capsys):
        paths = sorted(str(p) for p in fixtures_dir.glob("*.conllu"))
        code, out, _ = run(capsys, "validate", *paths)
        assert code == 0
        assert out.count(": OK") == len(paths)

    def test_invalid_file_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.conllu"
        bad.write_text("# newdoc id = d\n1\tw\tw\tX\t_\t_\t0\tdep\t_\tEntity=(e1\n\n")
        code, out, _ = run(capsys, "validate", bad)
        assert code == 2
        assert "unclosed" in out and "bad.conllu" in out

    def test_strict_flags_cross_sentence_mentions(self, tmp_path, capsys):
        text = ("# newdoc id = d\n"
                "1\tw\tw\tNOUN\t_\t_\t0\troot\t_\tEntity=(e1\n\n"
                "1\tv\tv\tNOUN\t_\t_\t0\troot\t_\tEntity=e1)\n"
                "2\tu\tu\tNOUN\t_\t_\t1\tdep\t_\tEntity=(e1)\n\n")
        path = tmp_path / "cross.conllu"
        path.write_text(text)
        assert run(capsys, "validate", path)[0] == 0
        code, out, _ = run(capsys, "validate", path, "--strict")
        assert code == 2
        assert "crosses sentences" in out


class TestStatsCommand:
    def test_text_tables(self, gold, capsys):
        code, out, _ = run(capsys, "stats", gold)
        assert code == 0
        for table in ("[entities]", "[mentions]", "[details]"):
            assert table in out

    def test_tsv_single_table_with_all_row(self, gold, fixtures_dir, tmp_path, capsys):
        other = tmp_path / "zeros.conllu"
        other.write_text((fixtures_dir / "zeros.conllu").read_text())
        code, out, _ = run(capsys, "stats", gold, other,
                           "--table", "entities", "--format", "tsv")
        rows = [line.split("\t") for line in out.strip().split("\n")]
        assert rows[0][:2] == ["file", "count"]
        assert [r[0] for r in rows[1:]] == ["gold", "zeros", "ALL"]
        assert int(rows[3][1]) == int(rows[1][1]) + int(rows[2][1])

    def test_inputs_sharing_a_stem_get_numbered_rows(self, gold, fixtures_dir,
                                                     tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first, second = tmp_path / "a" / "x.conllu", tmp_path / "b" / "x.conllu"
        first.write_text(gold.read_text())
        second.write_text((fixtures_dir / "zeros.conllu").read_text())
        code, out, _ = run(capsys, "stats", first, second,
                           "--table", "entities", "--format", "tsv")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().split("\n")]
        assert [r[0] for r in rows[1:]] == ["x", "x#2", "ALL"]
        _, alone, _ = run(capsys, "stats", first, "--table", "entities",
                          "--format", "tsv")
        assert alone.strip().split("\n")[1].split("\t")[1:] == rows[1][1:]
        assert int(rows[3][1]) == int(rows[1][1]) + int(rows[2][1])


    def test_inputs_named_like_the_total_row_get_numbered_rows(self, gold, tmp_path,
                                                               capsys):
        paths = [tmp_path / "ALL.conllu", tmp_path / "MACRO.conllu"]
        for path in paths:
            path.write_text(gold.read_text())
        _, out, _ = run(capsys, "stats", *paths, "--table", "entities", "--format", "tsv")
        assert [line.split("\t")[0] for line in out.strip().split("\n")[1:]] == [
            "ALL#2", "MACRO#2", "ALL"]
        _, out, _ = run(capsys, "stats", *paths, "--table", "entities")
        assert [line.split()[0] for line in out.strip().split("\n")[2:]] == [
            "ALL#2", "MACRO#2", "ALL"]

    @pytest.mark.parametrize("keep", [[], ["--keep-singletons"]])
    def test_all_row_is_the_row_of_one_file_of_all_documents(self, tmp_path, capsys,
                                                             keep):
        texts = [gen.random_document(random.Random(seed), f"d{seed}",
                                     p_discontinuous=0.3)[2] for seed in range(7)]
        parts = [tmp_path / "a.conllu", tmp_path / "b.conllu"]
        parts[0].write_text("".join(texts[:3]))
        parts[1].write_text("".join(texts[3:]))
        joined = tmp_path / "joined.conllu"
        joined.write_text("".join(texts))

        def rows(out, name):
            return [line.split("\t")[1:] for line in out.splitlines()
                    if line.startswith(name + "\t")]

        _, split, _ = run(capsys, "stats", *parts, "--format", "tsv", *keep)
        _, whole, _ = run(capsys, "stats", joined, "--format", "tsv", *keep)
        assert len(rows(split, "ALL")) == 3
        assert rows(split, "ALL") == rows(whole, "joined")

    def test_holds_one_document_layer_at_a_time(self, tmp_path, monkeypatch, capsys):
        from corefeval import model

        class Tracked(model.CorefLayer):
            __slots__ = ("__weakref__",)

        built, alive = [], []
        build = model.build_coref_layer

        def tracked(doc):
            alive.append(sum(ref() is not None for ref in built))
            layer = build(doc)
            layer = Tracked(layer.doc, layer.nodes, layer.entities)
            built.append(weakref.ref(layer))
            return layer

        monkeypatch.setattr(model, "build_coref_layer", tracked)
        paths = [tmp_path / "a.conllu", tmp_path / "b.conllu"]
        for n, path in enumerate(paths):
            path.write_text("".join(gen.random_document(random.Random(n * 3 + k),
                                                        f"d{k}")[2] for k in range(3)))
        code, _, _ = run(capsys, "stats", *paths)
        assert code == 0 and len(alive) == 6
        assert max(alive) <= 1, alive

    def test_warnings_come_in_document_order(self, tmp_path, caplog, capsys):
        # each document's head index is out of range; the second document
        # also has a mention that crosses a sentence boundary
        path = tmp_path / "warn.conllu"
        path.write_text(
            "# newdoc id = d1\n1\tw\tw\tNOUN\t_\t_\t0\troot\t_\tEntity=(e1-x-5-)\n\n"
            "# newdoc id = d2\n1\tv\tv\tNOUN\t_\t_\t0\troot\t_\tEntity=(e2-x-5-\n\n"
            "1\tu\tu\tNOUN\t_\t_\t0\troot\t_\tEntity=e2)\n\n")
        with caplog.at_level("WARNING", logger="corefeval"):
            code, _, _ = run(capsys, "stats", path)
        assert code == 0
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 3
        assert messages[0] == "head index 5 out of range in Mention(e1: 1:1); computing instead"
        assert messages[1].endswith("crosses a sentence boundary in document d2")
        # each node as sentence:id, sentences numbered from 1
        assert messages[2] == ("head index 5 out of range in Mention(e2: 1:1,2:1);"
                               " computing instead")


class TestTransformCommand:
    def test_reduce_head_then_score_head_match(self, gold, tmp_path, capsys):
        reduced = tmp_path / "reduced.conllu"
        code, _, _ = run(capsys, "transform", gold, "--ops", "reduce-head",
                         "-o", reduced)
        assert code == 0
        code, out, _ = run(capsys, "score", gold, reduced, "--match", "head",
                           "--metrics", "conll")
        assert code == 0
        assert "conll  100.00" in " ".join(out.split())or "100.00" in out

    def test_unknown_op_exits_two(self, gold, capsys):
        code, _, err = run(capsys, "transform", gold, "--ops", "nope")
        assert code == 2
        assert "unknown transform" in err

    @pytest.mark.parametrize("ops", [",", "", " , "])
    def test_no_op_exits_two(self, gold, tmp_path, capsys, ops):
        out = tmp_path / "out.conllu"
        code, stdout, err = run(capsys, "transform", gold, "--ops", ops, "-o", out)
        assert (code, stdout, err) == (2, "", "error: no transforms given\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["transform", "--ops", "reduce-head"],
                                         ["baseline", "--rules", "propn-lemma"]])
    def test_output_file_and_out_dir_conflict(self, command, gold, tmp_path, capsys):
        out, out_dir = tmp_path / "x.conllu", tmp_path / "od"
        with pytest.raises(SystemExit) as exit_:
            main([command[0], str(gold), *command[1:], "--out-dir", str(out_dir),
                  "-o", str(out)])
        assert exit_.value.code == 2
        assert "argument -o/--output: not allowed with argument --out-dir" \
            in capsys.readouterr().err
        assert not out.exists() and not out_dir.exists()

    def test_multiple_inputs_need_out_dir(self, gold, capsys):
        code, _, err = run(capsys, "transform", gold, gold, "--ops", "reduce-head")
        assert code == 2
        assert "--out-dir" in err

    def test_out_dir_writes_parseable_files(self, gold, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "transform", gold, "--ops",
                         "remove-singletons,reduce-head", "--out-dir", out_dir)
        assert code == 0
        docs = parse_text((out_dir / "gold.conllu").read_text())
        layer = build_coref_layer(docs[0])
        assert all(len(m.positions) == 1 for e in layer.entities for m in e.mentions)


    @pytest.mark.parametrize("command", [["transform", "--ops", "reduce-head"],
                                         ["baseline", "--rules", "propn-lemma"]])
    def test_out_dir_rejects_inputs_sharing_a_name(self, command, gold, tmp_path,
                                                   capsys):
        (tmp_path / "a").mkdir()
        other = tmp_path / "a" / "gold.conllu"
        other.write_text(gold.read_text())
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, command[0], gold, other, *command[1:],
                           "--out-dir", out_dir)
        assert code == 2
        assert "gold.conllu" in err
        assert not out_dir.exists()


class TestBaselineCommand:
    def test_rules_run_and_validate(self, fixtures_dir, tmp_path, capsys):
        src = tmp_path / "in.conllu"
        src.write_text((fixtures_dir / "pronoun_baseline.conllu").read_text())
        out = tmp_path / "out.conllu"
        code, _, _ = run(capsys, "baseline", src, "--rules",
                         "pronoun-gender,propn-lemma", "-o", out)
        assert code == 0
        assert run(capsys, "validate", out)[0] == 0

    def test_pipeline_with_strip(self, gold, tmp_path, capsys):
        out = tmp_path / "out.conllu"
        code, _, _ = run(capsys, "baseline", gold, "--pipeline",
                         "simple-rule-based", "--strip", "-o", out)
        assert code == 0
        assert run(capsys, "validate", out)[0] == 0
        # stripped input means only rule-created entities remain
        layer = build_coref_layer(parse_text(out.read_text())[0])
        assert all(e.eid.startswith("x") for e in layer.entities)

    @pytest.mark.parametrize("rules", [",", "", " , "])
    def test_no_rule_exits_two(self, gold, tmp_path, capsys, rules):
        out = tmp_path / "out.conllu"
        code, stdout, err = run(capsys, "baseline", gold, "--rules", rules, "-o", out)
        assert (code, stdout, err) == (2, "", "error: no rules given\n")
        assert not out.exists()

    def test_strip_puts_each_new_value_first_and_drops_old_ones(self, tmp_path, capsys):
        # MISC attributes before Entity: strip-then-rewrite put a rule's value
        # first, and the single rewrite over the old values must too, also
        # where the old value equals the new one
        cols = "\t_\t_\t"
        src = tmp_path / "in.conllu"
        src.write_text("# newdoc id = d\n# sent_id = 1\n# text = Anna Anna\n"
                       f"1\tAnna\tanna\tPROPN{cols}0\troot\t_\tSpaceAfter=No|Entity=(x1)\n"
                       f"2\tAnna\tanna\tPROPN{cols}1\tconj\t_\tA=1|Entity=(e2)|B=2\n\n"
                       "# sent_id = 2\n# text = Bob\n"
                       f"1\tBob\tbob\tNOUN{cols}0\troot\t_\tSpaceAfter=No|Entity=(e3)\n\n")
        out = tmp_path / "out.conllu"
        code, _, err = run(capsys, "baseline", src, "--rules", "propn-lemma",
                           "--strip", "-o", out)
        assert (code, err) == (0, "")
        misc = [line.split("\t")[9] for line in out.read_text().split("\n") if "\t" in line]
        assert misc == ["Entity=(x1)|SpaceAfter=No", "Entity=(x1)|A=1|B=2", "SpaceAfter=No"]

    def test_requires_rules_or_pipeline(self, gold, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["baseline", str(gold)])
        assert exit_.value.code == 2
        assert "one of the arguments --rules --pipeline is required" \
            in capsys.readouterr().err

    def test_rules_and_pipeline_conflict(self, gold, tmp_path, capsys):
        out = tmp_path / "out.conllu"
        with pytest.raises(SystemExit) as exit_:
            main(["baseline", str(gold), "--rules", "propn-lemma",
                  "--pipeline", "berulasek", "-o", str(out)])
        assert exit_.value.code == 2
        assert "argument --pipeline: not allowed with argument --rules" \
            in capsys.readouterr().err
        assert not out.exists()


class TestNoNumpy:
    def test_no_command_loads_numpy_or_scipy(self, fixtures_dir, tmp_path):
        animals = str(fixtures_dir / "animals.conllu")
        # the identity score of discontinuous.conllu has multi-edge components
        discontinuous = str(fixtures_dir / "discontinuous.conllu")
        runs = [["validate", animals], ["stats", animals],
                ["transform", animals, "--ops", "reduce-head", "--out-dir", str(tmp_path)],
                ["baseline", animals, "--rules", "propn-lemma", "-o",
                 str(tmp_path / "b.conllu")],
                ["score", animals, animals, "--jobs", "1"],
                ["score", discontinuous, discontinuous, "--jobs", "1"]]
        script = ("import contextlib, io, sys\n"
                  "import corefeval.align\n"
                  "from corefeval.align import max_total_overlap\n"
                  "from corefeval.cli import main\n"
                  "solve = corefeval.align.linear_sum_assignment\n"
                  "solves = []\n"
                  "def counted(cost, *args, **kwargs):\n"
                  "    solves.append(len(cost))\n"
                  "    return solve(cost, *args, **kwargs)\n"
                  "corefeval.align.linear_sum_assignment = counted\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    try:\n"
                  "        main(['--version'])\n"
                  "    except SystemExit:\n"
                  "        pass\n"
                  f"    codes = [main(argv) for argv in {runs!r}]\n"
                  "by_commands = len(solves)\n"
                  "# one key against two different responses it overlaps: two\n"
                  "# columns, so a real solve (twins would be one column)\n"
                  "assert max_total_overlap([{0, 1, 2}], [{0, 1}, {2}]) == 2\n"
                  "loaded = [m for m in ('numpy', 'scipy') if m in sys.modules]\n"
                  "print(codes, by_commands > 0, len(solves) > by_commands, loaded)\n")
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 0, 0, 0, 0, 0] True True []\n"


class TestParserNames:
    """The parser writes out the registries' names, so that building it
    imports none of them; they must stay the registries' names."""

    @staticmethod
    def options(command: str) -> dict[str, argparse.Action]:
        commands = next(a for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        return {a.dest: a for a in commands.choices[command]._actions}

    def test_names_are_the_registries(self):
        from corefeval.align import POLICIES
        from corefeval.baselines import BASELINE_RULES  # also makes them transforms
        from corefeval.metrics import ALL_METRICS
        from corefeval.transforms import LAYER_TRANSFORMS

        def listed(action: argparse.Action) -> list[str]:
            return action.help.split(": ", 1)[1].split(",")

        score, transform, baseline = map(self.options, ("score", "transform", "baseline"))
        assert listed(transform["ops"]) == sorted(LAYER_TRANSFORMS)
        assert listed(baseline["rules"]) == sorted(BASELINE_RULES)
        assert set(baseline["pipeline"].choices) <= set(BASELINE_RULES)
        assert score["metrics"].default.split(",") == listed(score["metrics"]) \
            == list(ALL_METRICS)
        assert sorted(score["match"].choices) == sorted(POLICIES)

    def test_rule_as_transform_in_a_fresh_process(self, gold, tmp_path, capsys):
        # the rules join the transforms only once `baselines` is imported
        out = tmp_path / "transform.conllu"
        proc = run_python("-m", "corefeval.cli", "transform", str(gold),
                          "--ops", "propn-lemma", "-o", str(out))
        assert proc.returncode == 0, proc.stderr
        code, _, _ = run(capsys, "baseline", gold, "--rules", "propn-lemma",
                         "-o", tmp_path / "baseline.conllu")
        assert code == 0
        assert out.read_text() == (tmp_path / "baseline.conllu").read_text()


class TestImportFootprint:
    """A command imports only the modules it runs."""

    @staticmethod
    def footprint(argv: list[str]) -> tuple:
        """Exit code, the corefeval modules loaded, and which of logging, json
        and dataclasses `main(argv)` loaded, in a fresh process."""
        script = ("import contextlib, io, sys\n"
                  "before = set(sys.modules)\n"
                  "from corefeval.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()), \\\n"
                  "        contextlib.redirect_stderr(io.StringIO()):\n"
                  "    try:\n"
                  f"        code = main({argv!r})\n"
                  "    except SystemExit as exit_:\n"
                  "        code = exit_.code\n"
                  "loaded = set(sys.modules) - before\n"
                  "print((code, sorted(m for m in sys.modules if m.startswith('corefeval')),\n"
                  "       sorted(loaded & {'logging', 'json', 'dataclasses'})))\n")
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        return ast.literal_eval(proc.stdout)

    @pytest.mark.parametrize("argv, code", [(["--version"], 0), (["--help"], 0),
                                            (["score", "a"], 2)])
    def test_no_command_run_loads_no_scoring_code(self, argv, code):
        assert self.footprint(argv) == (
            code, ["corefeval", "corefeval.cli", "corefeval.errors"], [])

    @pytest.mark.parametrize("command, unused", [
        (["validate", "--strict"], ("metrics", "align", "transforms", "baselines", "stats")),
        (["score", "{animals}", "--jobs", "1"], ("baselines", "stats"))])
    def test_command_loads_only_what_it_runs(self, fixtures_dir, command, unused):
        animals = str(fixtures_dir / "animals.conllu")
        argv = [command[0], animals] + [a.format(animals=animals) for a in command[1:]]
        code, loaded, stdlib = self.footprint(argv)
        assert code == 0 and "corefeval.conllu" in loaded
        assert not {f"corefeval.{m}" for m in unused} & set(loaded)
        # dataclasses would import inspect, dis and ast into every such process
        assert "dataclasses" not in stdlib


# the names `import corefeval` offers, by submodule
EXPORTS = {
    "align": ("EXACT", "HEAD", "PARTIAL", "MentionAlignment", "align_mentions", "matches"),
    "conllu": ("Document", "EntityReader", "doc_to_text", "docs_to_text", "parse_file",
               "parse_text"),
    "errors": ("ConlluParseError", "CorefEvalError", "DocumentPairError",
               "SerializationError"),
    "heads": ("head_upos_set", "mention_head"),
    "metrics": ("ALL_METRICS", "EvalOptions", "PRF", "ScoreReport", "ZeroScoreCounts",
                "evaluate", "score_document_pair"),
    "model": ("CorefLayer", "Entity", "Mention", "build_coref_layer"),
    "transforms": ("apply_ops", "strip_entities"),
}


class TestLazyNamespace:
    def test_names_are_their_submodules_objects(self):
        star: dict = {}
        exec("from corefeval import *", star)
        listed = dir(corefeval)
        for module, names in EXPORTS.items():
            submodule = importlib.import_module(f"corefeval.{module}")
            for name in names:
                assert getattr(corefeval, name) is getattr(submodule, name), name
                assert star[name] is getattr(submodule, name), name
                assert name in listed, name

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="module 'corefeval' has no attribute 'nope'"):
            corefeval.nope

    def test_import_loads_a_submodule_on_first_use(self):
        proc = run_python("-c", "import sys, corefeval\n"
                                "def loaded():\n"
                                "    return sorted(m for m in sys.modules if m.startswith('corefeval'))\n"
                                "before = loaded()\n"
                                "corefeval.PRF\n"
                                "print(before, loaded())\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("['corefeval'] ['corefeval', 'corefeval.align', "
                               "'corefeval.conllu', 'corefeval.errors', 'corefeval.heads', "
                               "'corefeval.metrics', 'corefeval.model', "
                               "'corefeval.transforms']\n")
