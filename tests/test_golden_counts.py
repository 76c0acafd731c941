"""The exact raw counts of `score_document_pair` on the bundled fixtures,
frozen in `fixtures/counts.json`.

Each case scores a key file against a response that disagrees with it:
`nest_key` against `nest_response`, and three fixtures against their
`reduce-head` transform and their stripped `simple-rule-based` baseline,
under every match policy, with singletons kept and dropped.  Floats are
stored as their `repr`, so the comparison is `==`, not approximate.

`python tests/test_golden_counts.py > tests/fixtures/counts.json` writes
the file from the package on the path; run it only at a commit whose
counts are trusted.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from corefeval.baselines import BASELINE_RULES
from corefeval.conllu import doc_to_text, parse_file, parse_text
from corefeval.metrics import EvalOptions, score_document_pair
from corefeval.transforms import apply_ops, reduce_layer_to_heads

FIXTURES = Path(__file__).parent / "fixtures"
REWRITTEN = ("animals", "discontinuous", "zeros")
REWRITES = {
    "reduce-head": ((reduce_layer_to_heads,), False),
    "simple-rule-based-strip": ((BASELINE_RULES["simple-rule-based"],), True),
}


def _pairs():
    """(name, key documents, response documents) of every case."""
    yield ("nest_key/nest_response", parse_file(FIXTURES / "nest_key.conllu"),
           parse_file(FIXTURES / "nest_response.conllu"))
    for name in REWRITTEN:
        key = parse_file(FIXTURES / f"{name}.conllu")
        for rewrite, (ops, strip) in REWRITES.items():
            # through text, as scoring the rewritten file reads it
            resp = parse_text("".join(
                doc_to_text(apply_ops(doc, *ops, strip=strip)) for doc in key))
            yield f"{name}/{rewrite}", key, resp


def golden_counts() -> dict:
    out = {}
    for name, key, resp in _pairs():
        for match in ("partial", "exact", "head"):
            for keep in (False, True):
                opts = EvalOptions(match=match, keep_singletons=keep)
                out[f"{name} {match} keep_singletons={keep}"] = [
                    {metric: list(values) for metric, values in
                     score_document_pair(k, r, opts).items()}
                    for k, r in zip(key, resp, strict=True)]
    return out


def test_counts_equal_the_frozen_ones():
    expected = json.loads((FIXTURES / "counts.json").read_text(encoding="utf-8"))
    got = golden_counts()
    assert got.keys() == expected.keys()
    for case, docs in expected.items():
        assert got[case] == docs, case


if __name__ == "__main__":
    json.dump(golden_counts(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
