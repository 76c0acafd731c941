"""`tests/differential.py` on a tiny matrix (one fixture, one random pair
and a seeded mutant of each file): a tree against itself differs nowhere,
and against a copy with a one-token mutant in `metrics.py` it reports the
difference.  Neither run writes into the source tree."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tests" / "differential.py"


def differential(old: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), str(old), str(new), "--random", "1",
                           "--fixtures", "animals"],
                          capture_output=True, text=True, timeout=300)


def snapshot() -> dict:
    return {p: p.stat().st_mtime_ns for top in ("src", "tests")
            for p in (ROOT / top).rglob("*")}


def test_same_tree_differs_nowhere_and_a_mutant_somewhere(tmp_path):
    mutant = tmp_path / "mutant"
    shutil.copytree(ROOT / "src", mutant / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    metrics = mutant / "src" / "corefeval" / "metrics.py"
    text = metrics.read_text()
    assert text.count("den += size - 1") == 1  # MUC: the links of an entity
    metrics.write_text(text.replace("den += size - 1", "den += size + 1"))

    before = snapshot()
    same = differential(ROOT, ROOT)
    changed = differential(ROOT, mutant)
    assert snapshot() == before

    assert same.returncode == 0, same.stderr
    assert same.stdout.splitlines()[-1] == "no difference"
    # animals and one random pair, each file with one mutant, each file also
    # read by the library's parse_text
    assert "6 input files, 4 scored pairs" in same.stdout
    assert ", 6 parse_text, " in same.stdout
    assert changed.returncode == 1, changed.stderr
    assert "score stdout: " in changed.stdout
    # the mutant changes scores only
    assert not any(line.startswith(("validate", "stats", "transform", "baseline"))
                   for line in changed.stdout.splitlines())
