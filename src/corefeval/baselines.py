"""Rule-based coreference predictors over key-stripped input.

Two rules are provided: clustering proper nouns by lemma and linking
pronouns to the nearest preceding noun of the same gender.  The two
published pipelines compose them with span transforms:

* ``berulasek``: reduce spans to heads, merge same-span entities, then
  cluster proper nouns by lemma.
* ``simple-rule-based``: link pronouns by gender first, then apply the
  ``berulasek`` steps.

Each rule call changes its layer through one `transforms._Index`, so
entities unite as in ``merge-same-span``.
"""

from __future__ import annotations

from bisect import bisect_left

from .model import CorefLayer
from .transforms import LAYER_TRANSFORMS, _Index, merge_same_span_layer, reduce_layer_to_heads


def propn_lemma_merge_layer(layer: CorefLayer) -> None:
    """Put all PROPN surface tokens sharing a lemma into one entity.

    Tokens already covered by a mention pull their whole entity into the
    merge (lowest id wins); uncovered tokens get new single-node mentions.
    """
    groups: dict[str, list[int]] = {}  # in order of first position
    for i, _upos, lemma, _gender in layer.nodes.words("PROPN"):
        groups.setdefault(lemma, []).append(i)

    index = _Index(layer)
    for positions in groups.values():
        if len(positions) < 2:
            continue
        # a merge retargets the eids of its mentions, so these are current
        eids = dict.fromkeys(m.eid for i in positions for m in index.owners.get(i, ()))
        target = index.merge(eids) if eids else index.new_entity()
        for i in positions:
            if not index.owners.get(i):
                index.add(target, i)
    index.finish()


def pronoun_gender_link_layer(layer: CorefLayer) -> None:
    """Link each PRON surface token to the nearest preceding NOUN surface
    token with the same `Gender` feature; skip pronouns without gender,
    without a matching noun, or already inside a mention."""
    index = _Index(layer)
    nouns_by_gender: dict[str, list[int]] = {}
    pronouns: list[tuple[int, str]] = []  # outside every mention until linked
    for i, upos, _lemma, gender in layer.nodes.words("NOUN", "PRON"):
        if gender and upos == "NOUN":
            nouns_by_gender.setdefault(gender, []).append(i)
        elif gender and i not in index.owners:
            pronouns.append((i, gender))

    for i, gender in pronouns:
        candidates = nouns_by_gender.get(gender, ())
        at = bisect_left(candidates, i)
        if at == 0:
            continue
        noun = candidates[at - 1]
        noun_owners = index.owners.get(noun)
        if noun_owners:
            target = index.by_eid[min(m.eid for m in noun_owners)]
        else:
            index.add(target := index.new_entity(), noun)
        index.add(target, i)
    index.finish()


def berulasek_layer(layer: CorefLayer) -> None:
    reduce_layer_to_heads(layer)
    merge_same_span_layer(layer)
    propn_lemma_merge_layer(layer)


def simple_rule_based_layer(layer: CorefLayer) -> None:
    pronoun_gender_link_layer(layer)
    berulasek_layer(layer)


BASELINE_RULES = {
    "propn-lemma": propn_lemma_merge_layer,
    "pronoun-gender": pronoun_gender_link_layer,
    "berulasek": berulasek_layer,
    "simple-rule-based": simple_rule_based_layer,
}

# Baseline rules are also usable wherever transforms are.
LAYER_TRANSFORMS.update(BASELINE_RULES)
