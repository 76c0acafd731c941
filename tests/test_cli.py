import json
import os
import random
import subprocess
import sys
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

    def test_macro_line_absent_for_single_dataset(self, gold, capsys):
        _, out, _ = run(capsys, "score", gold, gold)
        assert "MACRO" not in out

    def test_output_file_written(self, gold, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, _, _ = run(capsys, "score", gold, gold, "-o", report)
        assert code == 0
        assert json.loads(report.read_text())["schema"] == 1

    def test_per_doc_breakdown(self, gold, capsys):
        _, out, _ = run(capsys, "score", gold, gold, "--per-doc")
        assert "[animals-1]" in out and "[animals-2]" in out

    def test_upos_filter_flag(self, gold, capsys):
        code, out, _ = run(capsys, "score", gold, gold, "--upos-filter", "PROPN",
                           "--keep-singletons", "--metrics", "conll",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["datasets"]["gold"]["conll"]["f1"] == 100.0

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

    def test_spawn_start_method_matches_single_job(self, tmp_path, capsys):
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
        # a spawned worker inherits nothing from the parent process
        script = ("import multiprocessing, sys\n"
                  "multiprocessing.set_start_method('spawn')\n"
                  "from corefeval.cli import main\n"
                  f"sys.exit(main({argv + ['--jobs', '2']!r}))\n")
        src = str(Path(corefeval.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == single
        assert (f"WARNING: {key}: mention of e1 crosses a sentence boundary"
                " in document cross") in proc.stderr.splitlines()


# One `main()` call per argument list in a fresh interpreter, each with
# its own stdout, stderr and logging set-up: prints [[code, out, err], ...].
RUN_MAINS = """\
import contextlib, io, json, logging, multiprocessing, sys
if sys.argv[1] == "spawn":
    multiprocessing.set_start_method("spawn")
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
    src = str(Path(corefeval.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", RUN_MAINS, start_method,
                           json.dumps([[str(a) for a in argv] for argv in argvs])],
                          env=env, capture_output=True, text=True, timeout=300)
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
    with spawned workers: the same output files, stdout, stderr at every
    -v level, and exit code.  Document 2 of `late.conllu` warns, document
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
        modes = ("1", "2", "spawn")
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
        results = {mode: run_mains(mode, argvs[mode]) for mode in modes}
        files = {mode: sorted((str(p.relative_to(tmp_path / mode)), p.read_bytes())
                              for p in (tmp_path / mode).rglob("*") if p.is_file())
                 for mode in modes}
        assert results["1"] == results["2"] == results["spawn"]
        assert files["1"] == files["2"] == files["spawn"]
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
        src = str(Path(corefeval.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        runs = [subprocess.run([sys.executable, "-m", "corefeval.cli", "score", str(key),
                                str(key), "--format", "json", "--jobs", jobs],
                               env=env, capture_output=True, text=True, timeout=120)
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
        src = str(Path(corefeval.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 0, 0, 0, 0, 0] False True\n"

class TestInputPolicy:
    @pytest.mark.parametrize("kind", ["crlf", "bom", "badutf", "sup", "badpart"])
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
        else:
            # the first part of e3 becomes a second part with no first
            lines[22] = lines[22].replace(b"(e3[1/2])", b"(e3[2/2])")
            bad.write_bytes(b"\n".join(lines))
            message = f"{bad}:23: part 2/2 of entity 'e3' has no preceding part 1"
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
        assert all(len(m.nodes) == 1 for e in layer.entities for m in e.mentions)


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

    def test_requires_rules_or_pipeline(self, gold, capsys):
        code, _, err = run(capsys, "baseline", gold)
        assert code == 2
        assert "--rules or --pipeline" in err


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
                  "# one key against two responses it overlaps: a real solve\n"
                  "assert max_total_overlap([{0, 1, 2}], [{0, 1}, {1, 2}]) == 2\n"
                  "loaded = [m for m in ('numpy', 'scipy') if m in sys.modules]\n"
                  "print(codes, by_commands > 0, len(solves) > by_commands, loaded)\n")
        src = str(Path(corefeval.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 0, 0, 0, 0, 0] True True []\n"
