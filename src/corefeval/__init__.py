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
    zero_score,
)
from .model import CorefLayer, Entity, Mention, Node, build_coref_layer
from .transforms import (
    conservative_head_reduce,
    merge_same_span_entities,
    reduce_to_head,
    remove_singletons,
    strip_entities,
)
from .baselines import pronoun_gender_link, propn_lemma_merge

__version__ = "0.1.0"
