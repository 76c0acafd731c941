"""CorefUD CoNLL-U toolkit: parsing, coreference evaluation, transforms,
rule-based baselines and corpus statistics.

`import corefeval` imports none of the submodules: each name below is
loaded from its submodule on first use (PEP 562), so the command line
tool pays only for the modules a command runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
