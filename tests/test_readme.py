"""The README's Library example runs as written, on a bundled fixture, and
its list of each metric's count fields is the metric table's."""

import re
import shutil
from pathlib import Path

from corefeval.conllu import doc_to_text, parse_file
from corefeval.metrics import METRICS
from corefeval.transforms import apply_ops, merge_same_span_layer, reduce_layer_to_heads

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(fixtures_dir, tmp_path, monkeypatch, capsys):
    text = README.read_text()
    example = re.search(r"```python\n(.*?)```", text[text.index("## Library"):], re.S)
    shutil.copy(fixtures_dir / "animals.conllu", tmp_path / "gold.conllu")
    monkeypatch.chdir(tmp_path)
    exec(compile(example.group(1), str(README), "exec"), {})
    doc = parse_file(tmp_path / "gold.conllu")[0]
    reduced = apply_ops(doc, reduce_layer_to_heads, merge_same_span_layer)
    assert capsys.readouterr().out == "\n".join([
        # each mention of the first document: entity id, forms, head form
        "e1 ['The', 'big', 'dog'] dog", "e1 ['He'] He", "e1 ['_'] _", "e1 ['_'] _",
        "e2 ['Mr.', 'Brown'] Mr.", "e2 ['him'] him", "e3 ['Slept', 'dreamed'] Slept",
        "e4 ['day'] day",
        "1.0",  # the CoNLL F1 of the key against itself
        doc_to_text(reduced)]) + "\n"


def test_metric_counts_are_the_table():
    # the sub-list of the `--metrics` bullet, one item per metric with counts
    text = README.read_text()
    bullet = text[text.index("* `--metrics`"):]
    bullet = bullet[:bullet.index("\n* ")]
    listed = re.findall(r"^  - `(\w+)`: (.*(?:\n    .*)*)", bullet, re.M)
    assert [(name, tuple(re.findall(r"`(\w+)`", fields))) for name, fields in listed] \
        == [(m.name, m.fields) for m in METRICS if m.fields]
