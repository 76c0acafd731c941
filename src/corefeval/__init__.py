"""CorefUD CoNLL-U toolkit: parsing, coreference evaluation, transforms,
rule-based baselines and corpus statistics."""

from .align import EXACT, HEAD, PARTIAL, MentionAlignment, align_mentions, matches
from .conllu import (
    Document,
    EntityBracket,
    doc_to_text,
    docs_to_text,
    parse_file,
    parse_text,
    write_file,
)
from .errors import (
    ConlluParseError,
    CorefEvalError,
    DocumentPairError,
    SerializationError,
)
from .heads import HeadChoice, find_head, head_upos_set, mention_head
from .metrics import (
    ALL_METRICS,
    EvalOptions,
    PRF,
    ScoreReport,
    ZeroScoreCounts,
    evaluate,
    score_document_pair,
)
from .model import CorefLayer, Entity, Mention, Node, build_coref_layer
from .transforms import apply_ops, strip_entities

__version__ = "0.1.0"
