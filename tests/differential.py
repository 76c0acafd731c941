"""Differential check: run the same command lines on two source trees and
report every difference in what they print, write and return.

    python tests/differential.py OLD_TREE NEW_TREE [--random N] [--mutants M]
                                 [--fixtures NAME,...]

A tree is a directory holding `src/corefeval`, such as a `git archive` of a
commit.  Each tree runs in its own child interpreter, with its own `src/`
on PYTHONPATH and no bytecode written, and the child calls `cli.main` (or
`parse_text`) once per command line.  The inputs are the bundled fixtures and N seeded
`tests/gen.py` files (discontinuous mentions, provided heads, empty nodes),
each a key with a response drawn by `gen.perturb_mentions`: the pair
`random-<s>` is `gen.random_pair(s)`, for s = 0 … N-1.  Each of these files
also gets M seeded mutants, `<label>~<m>` = `mutant(<label>, m)`: one to
three line edits (a blank, comment, range or empty-node line inserted, a
token id or head field changed, two lines swapped, a line deleted) or
bracket edits of an `Entity` value (a bracket dropped or doubled, a part
index changed, a "]" removed).  A mutant of a key is also scored against
the key's response.  The calls:

- `validate`, with and without `--strict`, and `stats` as text and TSV, on
  every file;
- the library reader `corefeval.parse_text` on every file's text, which
  prints `docs_to_text` of the documents it returns;
- `transform` with each `--ops`, and `baseline` with each `--rules` and each
  `--pipeline`, with and without `--strip`, each writing its file with `-o`;
- `score` of each key against its response (each fixture against itself,
  and `nest_key` against `nest_response`) under each `--match`, with and
  without `--keep-singletons`, as text, JSON and TSV with `--per-doc`;
- the library's `corefeval.evaluate` of each such pair and variant, read
  with `parse_text`, with `per_doc=True`: the JSON of its `per_dataset`,
  `macro` and `per_doc` scores, floats written by `repr`.

Every command runs with `--jobs 1` where it has the option.  For each call
the exit code, stdout, stderr and the files written are compared; an
exception is an exit code of its own, with its type and message.  The
summary groups the differences by command and kind (exit code, stdout,
stderr, files), with one example input per group.  Exit status: 0 when
nothing differs, 1 otherwise.  Inputs and outputs live in a temporary
directory that is removed at the end; nothing is written into either tree.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402  (the generator beside this script)

FIXTURES = HERE / "fixtures"

# The parser's names, read from a tree: transform ops, baseline rules,
# pipelines and match policies.
NAMES = """\
import argparse, json
from corefeval.cli import build_parser
sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
options = {c: {a.dest: a for a in sub.choices[c]._actions} for c in sub.choices}
def listed(action):
    return action.help.split(": ", 1)[1].split(",")
print(json.dumps({"ops": listed(options["transform"]["ops"]),
                  "rules": listed(options["baseline"]["rules"]),
                  "pipelines": list(options["baseline"]["pipeline"].choices),
                  "match": list(options["score"]["match"].choices)}))
"""

# One `main()` call per command line, each with its own stdout, stderr and
# logging set-up; "{out}" in a command line is an empty directory of its
# own.  The command line ["parse_text", path] reads the file with
# `corefeval.parse_text` instead, and ["evaluate", key, response, match,
# *keep] reads both with it and prints the JSON of the PRF views of
# `corefeval.evaluate(..., per_doc=True)`.  Writes one JSON line per call: [code,
# stdout, stderr, {file: bytes as latin-1}], with the directory's path
# written back as "{out}".
RUN = """\
import contextlib, io, json, logging, os, shutil, sys
from corefeval import EvalOptions, docs_to_text, evaluate, parse_text
from corefeval.cli import main
def read(path):
    with open(path, encoding="utf-8", newline="") as f:
        return parse_text(f.read())
with open(sys.argv[1]) as f:
    cases = json.load(f)
out_dir = sys.argv[2]
with open(sys.argv[3], "w") as results:
    for argv in cases:
        os.makedirs(out_dir)
        logging.getLogger().handlers.clear()  # so that main() logs to this stderr
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if argv[0] == "parse_text":
                    print(docs_to_text(read(argv[1])), end="")
                    code = 0
                elif argv[0] == "evaluate":
                    opts = EvalOptions(match=argv[3], keep_singletons=len(argv) > 4)
                    report = evaluate({"d": read(argv[1])}, {"d": read(argv[2])}, opts,
                                      per_doc=True)
                    # floats as json writes them, by repr
                    print(json.dumps({"per_dataset": report.per_dataset, "macro": report.macro,
                                      "per_doc": report.per_doc}))
                    code = 0
                else:
                    code = main([a.replace("{out}", out_dir) for a in argv])
            except SystemExit as exit_:
                code = exit_.code
            except Exception as exc:
                code = f"raised {type(exc).__name__}: {exc}"
        files = {}
        for root, _dirs, names in os.walk(out_dir):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as f:
                    files[os.path.relpath(path, out_dir)] = f.read().decode("latin-1")
        shutil.rmtree(out_dir)
        results.write(json.dumps([code, out.getvalue().replace(out_dir, "{out}"),
                                  err.getvalue().replace(out_dir, "{out}"), files]) + "\\n")
"""

KINDS = ("exit code", "stdout", "stderr", "files")


def _child(tree: Path, *args: str, cwd: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc: subprocess.Popen, tree: Path) -> str:
    out, err = proc.communicate()
    if proc.returncode:
        raise SystemExit(f"differential: the child of {tree} failed:\n{err}")
    return out


def _token_lines(lines: list[str]) -> list[int]:
    return [i for i, line in enumerate(lines) if line.count("\t") == 9] or [0]


def _set_column(lines: list[str], i: int, k: int, value: str) -> None:
    cols = lines[i].split("\t")
    if len(cols) == 10:
        cols[k] = value
        lines[i] = "\t".join(cols)


def _edit_lines(rng: random.Random, lines: list[str]) -> None:
    """One line edit: insert a blank, comment, range or empty-node line,
    change a token id or head field, swap two lines or delete one."""
    i = rng.choice(_token_lines(lines))
    tid = lines[i].split("\t", 1)[0]
    n = int(tid) if tid.isdigit() else 1
    kind = rng.choice(("blank", "comment", "id", "range", "empty", "head", "swap", "delete"))
    if kind == "blank":
        lines.insert(rng.randrange(len(lines) + 1), "")
    elif kind == "comment":
        lines.insert(rng.randrange(len(lines) + 1), "# note = mutant")
    elif kind == "id":
        _set_column(lines, i, 0, rng.choice(("0", "x", f"0{n}", f"{n}.01", f"{n}.1",
                                              f"{n}-{n + 1}", str(n + rng.randint(-2, 2)))))
    elif kind == "range":
        lines.insert(i, f"{n}-{n + rng.randint(-1, 2)}\tw\t_\t_\t_\t_\t_\t_\t_\t_")
    elif kind == "empty":
        misc = rng.choice(("_", "Entity=(e1)", "Entity=(x9"))
        lines.insert(i + 1, f"{n}.{rng.randint(1, 2)}\t_\t_\tPRON\t_\t_\t_\t_\t{n}:dep\t{misc}")
    elif kind == "head":
        _set_column(lines, i, 6, rng.choice(("0", "_", "x", "99", tid, str(rng.randint(1, 9)))))
    elif kind == "swap" and i + 1 < len(lines):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    else:
        del lines[i]


def _edit_brackets(rng: random.Random, lines: list[str]) -> None:
    """One bracket edit of an `Entity` value: drop or double a bracket,
    change a part index or remove a "]"."""
    entity = [i for i, line in enumerate(lines) if "Entity=" in line]
    if not entity:
        return _edit_lines(rng, lines)
    i = rng.choice(entity)
    before, value, after = re.split(r"(?<=Entity=)([^|\t]*)", lines[i], maxsplit=1)
    brackets = re.findall(r"\([^()]*\)?|[^()]+\)?", value) or [""]  # "": an edit emptied it
    k = rng.randrange(len(brackets))
    kind = rng.choice(("drop", "double", "part", "bracket"))
    if kind == "drop":
        del brackets[k]
    elif kind == "double":
        brackets.insert(k, brackets[k])
    elif kind == "part" and "[" in value:
        part = f"[{rng.randint(0, 3)}/{rng.randint(1, 3)}]"
        brackets = [re.sub(r"\[\d+/\d+\]", part, b, count=1) for b in brackets]
    else:
        brackets[k] = brackets[k].replace("]", "", 1)
    lines[i] = before + "".join(brackets) + after


def mutant(label: str, text: str, m: int) -> str:
    """The mutant m of the file `label` holding `text`: one to three line or
    bracket edits, seeded by the label and m."""
    rng = random.Random(f"{label}~{m}")
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        rng.choice((_edit_lines, _edit_brackets))(rng, lines)
    return "\n".join(lines)


def inputs(work: Path, fixtures: list[str], n_random: int, n_mutants: int):
    """The input files by label, and the (key, response) label pairs."""
    files: dict[str, Path] = {}
    pairs: list[tuple[str, str]] = []
    for name in fixtures:
        files[name] = FIXTURES / f"{name}.conllu"
        pairs.append((name, name))
    if {"nest_key", "nest_response"} <= set(fixtures):
        pairs.append(("nest_key", "nest_response"))
    for s in range(n_random):
        for label, text in zip(("key", "response"), gen.random_pair(s)):
            files[f"random-{s}-{label}"] = path = work / f"random-{s}-{label}.conllu"
            path.write_text(text)
        pairs.append((f"random-{s}-key", f"random-{s}-response"))
    for label, path in list(files.items()):
        text = path.read_text()
        for m in range(n_mutants):
            files[f"{label}~{m}"] = mutated = work / f"{label}~{m}.conllu"
            mutated.write_text(mutant(label, text, m))
    pairs += [(f"{key}~{m}", resp) for key, resp in list(pairs) for m in range(n_mutants)]
    return files, pairs


def command_lines(files: dict[str, Path], pairs: list[tuple[str, str]],
                  names: dict) -> list[tuple[str, list[str]]]:
    """(input label, argv) of every call of the matrix."""
    cases = []
    for label, path in files.items():
        p = str(path)
        single = [
            *(["validate", p, *strict] for strict in ([], ["--strict"])),
            ["parse_text", p],
            *(["stats", p, "--format", fmt] for fmt in ("text", "tsv")),
            *(["transform", p, "--ops", op] for op in names["ops"]),
            *(["baseline", p, option, name, *strip]
              for option, key in (("--rules", "rules"), ("--pipeline", "pipelines"))
              for name in names[key] for strip in ([], ["--strip"]))]
        for argv in single:
            if argv[0] in ("transform", "baseline"):
                argv += ["--jobs", "1", "-o", "{out}/out.conllu"]
            cases.append((label, argv))
    for key, resp in pairs:
        for match in names["match"]:
            for keep in ([], ["--keep-singletons"]):
                for fmt in ("text", "json", "tsv"):
                    cases.append((key, ["score", str(files[key]), str(files[resp]),
                                        "--match", match, *keep, "--format", fmt,
                                        "--per-doc", "--jobs", "1"]))
                cases.append((key, ["evaluate", str(files[key]), str(files[resp]), match,
                                    *keep]))
    return cases


def differences(old: list, new: list) -> list[tuple[str, str]]:
    """The kinds in which two results differ, each with a short detail."""
    out = []
    for kind, a, b in zip(KINDS, old, new):
        if a == b:
            continue
        if kind == "exit code":
            detail = f"{a!r} vs {b!r}"
        elif kind == "files":
            changed = sorted(n for n in a.keys() | b.keys() if a.get(n) != b.get(n))
            detail = "differ: " + ", ".join(changed)
        else:
            lines = zip_longest(a.splitlines(True), b.splitlines(True), fillvalue="")
            first = next((x, y) for x, y in lines if x != y)
            detail = "first differing line: {!r} vs {!r}".format(*first)
        out.append((kind, detail))
    return out


def run(old_tree: Path, new_tree: Path, fixtures: list[str], n_random: int,
        n_mutants: int) -> int:
    with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
        work = Path(tmp)
        trees = {"old": old_tree, "new": new_tree}
        names = {side: json.loads(_finish(_child(tree, "-c", NAMES, cwd=work), tree))
                 for side, tree in trees.items()}
        if names["old"] != names["new"]:
            print(f"parser names differ: {names['old']} vs {names['new']}")
        files, pairs = inputs(work, fixtures, n_random, n_mutants)
        cases = command_lines(files, pairs, names["old"])
        (work / "cases.json").write_text(json.dumps([argv for _label, argv in cases]))
        procs = {side: _child(tree, "-c", RUN, str(work / "cases.json"),
                              str(work / f"out-{side}"), str(work / f"results-{side}.jsonl"),
                              cwd=work)
                 for side, tree in trees.items()}
        for side, proc in procs.items():
            _finish(proc, trees[side])
        groups: dict[tuple[str, str], list] = {}
        calls: dict[str, int] = {}
        with open(work / "results-old.jsonl") as old, open(work / "results-new.jsonl") as new:
            for (label, argv), a, b in zip(cases, old, new):
                calls[argv[0]] = calls.get(argv[0], 0) + 1
                for kind, detail in differences(json.loads(a), json.loads(b)):
                    group = groups.setdefault((argv[0], kind), [0, label, argv, detail])
                    group[0] += 1
        shown = {str(path): label for label, path in files.items()}
        print(f"differential: {old_tree} against {new_tree}")
        print(f"{len(files)} input files, {len(pairs)} scored pairs, {len(cases)} calls per"
              " tree: " + ", ".join(f"{n} {command}" for command, n in sorted(calls.items())))
        if not groups and names["old"] == names["new"]:
            print("no difference")
            return 0
        for (command, kind), (n, label, argv, detail) in sorted(groups.items()):
            print(f"{command} {kind}: {n} of {calls[command]} calls differ")
            print(f"  e.g. {label}: " + " ".join(shown.get(a, a) for a in argv))
            print(f"  {detail}")
        return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="tree holding src/corefeval")
    parser.add_argument("new", type=Path, help="tree holding src/corefeval")
    parser.add_argument("--random", type=int, default=100, metavar="N",
                        help="random key/response pairs (default 100)")
    parser.add_argument("--mutants", type=int, default=1, metavar="M",
                        help="seeded mutants of each file (default 1)")
    parser.add_argument("--fixtures", metavar="NAME,...",
                        default=",".join(sorted(p.stem for p in FIXTURES.glob("*.conllu"))),
                        help="bundled fixtures to use, comma-separated (default: all)")
    args = parser.parse_args(argv)
    for tree in (args.old, args.new):
        if not (tree / "src" / "corefeval" / "__init__.py").is_file():
            parser.error(f"{tree} holds no src/corefeval")
    fixtures = [name for name in args.fixtures.split(",") if name]
    for name in fixtures:
        if not (FIXTURES / f"{name}.conllu").is_file():
            parser.error(f"no fixture {name!r}")
    return run(args.old.resolve(), args.new.resolve(), fixtures, args.random,
               args.mutants)


if __name__ == "__main__":
    sys.exit(main())
