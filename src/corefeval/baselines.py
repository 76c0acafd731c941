"""Rule-based coreference predictors over key-stripped input.

Two rules are provided: clustering proper nouns by lemma and linking
pronouns to the nearest preceding noun of the same gender.  The two
published pipelines compose them with span transforms:

* ``berulasek``: reduce spans to heads, merge same-span entities, then
  cluster proper nouns by lemma.
* ``simple-rule-based``: link pronouns by gender first, then apply the
  ``berulasek`` steps.
"""

from __future__ import annotations

from bisect import bisect_left

from .model import CorefLayer, Entity, Mention
from .transforms import LAYER_TRANSFORMS, merge_same_span_layer, reduce_layer_to_heads


def _node_owners(layer: CorefLayer) -> dict[int, list[Mention]]:
    owners: dict[int, list[Mention]] = {}
    for entity in layer.entities:
        for mention in entity.mentions:
            for node in mention.nodes:
                owners.setdefault(node.index, []).append(mention)
    return owners


def _fresh_eid(used: set[str]) -> str:
    n = 1
    while f"x{n}" in used:
        n += 1
    used.add(f"x{n}")
    return f"x{n}"


def _merge_entities(layer: CorefLayer, involved: list[Entity]) -> Entity:
    target = min(involved, key=lambda e: e.eid)
    for entity in involved:
        if entity is target:
            continue
        target.mentions.extend(entity.mentions)
        for mention in entity.mentions:
            mention.entity = target
        entity.mentions = []
    layer.entities = [e for e in layer.entities if e.mentions]
    return target


def propn_lemma_merge_layer(layer: CorefLayer) -> None:
    """Put all PROPN surface tokens sharing a lemma into one entity.

    Tokens already covered by a mention pull their whole entity into the
    merge (lowest id wins); uncovered tokens get new single-node mentions.
    """
    groups: dict[str, list[int]] = {}
    for i, _upos, lemma, _gender in layer.nodes.words("PROPN"):
        groups.setdefault(lemma, []).append(i)

    owners = _node_owners(layer)
    used_eids = layer.eids()
    for _lemma, positions in sorted(groups.items(), key=lambda kv: kv[1][0]):
        if len(positions) < 2:
            continue
        involved: list[Entity] = []
        seen: set[int] = set()
        for i in positions:
            for mention in owners.get(i, ()):
                if id(mention.entity) not in seen:
                    seen.add(id(mention.entity))
                    involved.append(mention.entity)
        if involved:
            # follow current ownership: earlier groups may have merged these
            involved = list({id(e): e for e in involved if e.mentions}.values())
        if involved:
            target = _merge_entities(layer, involved)
        else:
            target = Entity(_fresh_eid(used_eids))
            layer.entities.append(target)
        for i in positions:
            if not owners.get(i):
                mention = Mention(target, [layer.nodes[i]])
                target.mentions.append(mention)
                owners.setdefault(i, []).append(mention)
        target.sort_mentions()


def pronoun_gender_link_layer(layer: CorefLayer) -> None:
    """Link each PRON surface token to the nearest preceding NOUN surface
    token with the same `Gender` feature; skip pronouns without gender,
    without a matching noun, or already inside a mention."""
    nouns_by_gender: dict[str, list[int]] = {}
    pronouns: list[tuple[int, str]] = []
    for i, upos, _lemma, gender in layer.nodes.words("NOUN", "PRON"):
        if gender:
            if upos == "NOUN":
                nouns_by_gender.setdefault(gender, []).append(i)
            else:
                pronouns.append((i, gender))

    owners = _node_owners(layer)
    used_eids = layer.eids()
    for i, gender in pronouns:
        if owners.get(i):
            continue
        candidates = nouns_by_gender.get(gender, ())
        at = bisect_left(candidates, i)
        if at == 0:
            continue
        noun = candidates[at - 1]
        noun_owners = owners.get(noun)
        if noun_owners:
            target = min((m.entity for m in noun_owners), key=lambda e: e.eid)
        else:
            target = Entity(_fresh_eid(used_eids))
            layer.entities.append(target)
            noun_mention = Mention(target, [layer.nodes[noun]])
            target.mentions.append(noun_mention)
            owners.setdefault(noun, []).append(noun_mention)
        mention = Mention(target, [layer.nodes[i]])
        target.mentions.append(mention)
        owners.setdefault(i, []).append(mention)
        target.sort_mentions()


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
