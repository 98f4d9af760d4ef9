"""The dataclass codec, ``to_json``/``from_json``: round trips, shared objects, decode checks."""
import json
import math
import re
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mice.combine import CandidateAntecedent
from mice.corpus import Span, from_json, to_json
from mice.distill import MARKER_END, MARKER_START, PseudoLabeledRecord
from mice.gateway import DecodeMode, DecodeParams, Generation
from mice.gating import GatingDistribution
from mice.metrics import ExampleScore, ScoreReport
from mice.pipeline import Combiner, ResolutionResult, RunConfig
from mice.postfilter import FilterConfig
from mice.prompts import Ordering, PromptSetConfig, Selection, Template

unit = st.floats(0.0, 1.0)
counts = st.integers(0, 10**6)
texts = st.text(max_size=12)
ids = st.integers(-(2**40), 2**40)


@st.composite
def prompt_configs(draw):
    reserve = draw(st.integers(0, 4096))
    return PromptSetConfig(
        demos_per_prompt=draw(st.integers(1, 8)),
        max_prompts=draw(st.integers(1, 1024)),
        ordering=draw(st.sampled_from(Ordering)),
        selection=draw(st.sampled_from(Selection)),
        seed=draw(ids),
        max_sequence_length=reserve + draw(st.integers(1, 4096)),
        generation_reserve=reserve,
    )


templates = st.builds(
    Template,
    question_pattern=st.text(st.characters(blacklist_characters="{}")).map(
        lambda t: t + "{anaphor}"),
    answer_prefix=texts,
    separator=texts,
    demonstration_joiner=texts,
)


def decode_params(mode=st.sampled_from(DecodeMode)):
    return st.builds(
        DecodeParams,
        mode=mode,
        max_tokens=st.integers(1, 4096),
        top_k=st.integers(1, 100),
        top_p=st.floats(0.0, 1.0, exclude_min=True),
        temperature=st.floats(0.0, 10.0),
        stop_sequences=st.tuples(texts) | st.just(()),
        logprob_depth=st.integers(0, 20),
        seed=st.none() | ids,
    )


@st.composite
def run_configs(draw):
    combiner = draw(st.sampled_from(Combiner))
    nucleus = st.just(DecodeMode.NUCLEUS)
    return RunConfig(
        combiner=combiner,
        prompt=draw(prompt_configs()),
        template=draw(templates),
        decode=draw(decode_params(nucleus) if combiner is Combiner.KATE_PLUS
                    else decode_params()),
        filters=draw(st.builds(FilterConfig, max_antecedent_tokens=st.integers(1, 500),
                               per_prompt_threshold=unit, combined_threshold=unit,
                               merge_substrings=st.booleans())),
        gate_combine=draw(st.sampled_from(["sum", "product"])),
        parallelism=draw(st.integers(1, 64)),
        kate_plus_samples=draw(st.integers(1, 512)),
        embed_dim=draw(st.integers(1, 4096)),
    )


@st.composite
def generations(draw):
    tokens = draw(st.lists(texts, max_size=6))
    top_probs = draw(st.just(()) | st.tuples(*[
        st.dictionaries(texts, unit, max_size=4) for _ in tokens]))
    return Generation(text=draw(texts), tokens=tuple(tokens), top_probs=top_probs)


candidates = st.builds(
    CandidateAntecedent, surface=texts, first_token=texts, combined_prob=unit,
    per_prompt_prob=st.dictionaries(ids, unit, max_size=4),
)


@st.composite
def gatings(draw):
    raw = draw(st.dictionaries(ids, st.floats(1e-3, 1.0), min_size=1, max_size=6))
    total = math.fsum(raw.values())
    return GatingDistribution({pid: w / total for pid, w in raw.items()})


resolution_results = st.builds(
    ResolutionResult,
    key=texts,
    gold=st.none() | st.lists(texts, max_size=3).map(tuple),
    prompt_ids=st.lists(ids, max_size=4).map(tuple),
    gating=st.none() | gatings(),
    generations=st.lists(generations(), max_size=4).map(tuple),
    candidates=st.lists(candidates, max_size=3).map(tuple),
    final=st.lists(candidates, max_size=3).map(tuple),
    request_count=counts,
    error=st.none() | texts,
)

score_reports = st.builds(
    ScoreReport, precision=unit, recall=unit, f1=unit, true_positives=counts,
    false_positives=counts, false_negatives=counts,
    per_example=st.lists(st.builds(ExampleScore, key=texts, true_positives=counts,
                                   false_positives=counts, false_negatives=counts),
                         max_size=3).map(tuple),
)


@st.composite
def pseudo_labeled_records(draw):
    words = draw(st.lists(texts.filter(lambda w: w not in (MARKER_START, MARKER_END)),
                          max_size=6))
    at = draw(st.integers(0, len(words)))
    tokens = (*words[:at], MARKER_START, MARKER_END, *words[at:])
    tags, previous = [], "O"
    for token in tokens:  # markers carry O; an I continues a B or an I
        previous = "O" if token in (MARKER_START, MARKER_END) else draw(
            st.sampled_from("OB" if previous == "O" else "OBI"))
        tags.append(previous)
    start = draw(st.integers(0, 1000))
    return PseudoLabeledRecord(
        doc_id=draw(texts),
        anaphor=Span(start, start + draw(st.integers(1, 50)), draw(texts)),
        tokens=tokens,
        tags=tuple(tags),
        confidences=tuple(draw(unit) for _ in range(tags.count("B"))),
    )


# Every dataclass the codec serialises; RunConfig carries the nested
# configs, ScoreReport its ExampleScores and PseudoLabeledRecord a Span.
SERIALISED = {
    RunConfig: run_configs(),
    Generation: generations(),
    CandidateAntecedent: candidates,
    GatingDistribution: gatings(),
    ResolutionResult: resolution_results,
    ScoreReport: score_reports,
    PseudoLabeledRecord: pseudo_labeled_records(),
}


@pytest.mark.parametrize("tp", SERIALISED, ids=lambda tp: tp.__name__)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_every_serialised_dataclass_round_trips(tp, data):
    value = data.draw(SERIALISED[tp])
    assert from_json(tp, json.loads(json.dumps(to_json(value)))) == value


def result_with(generations):
    return ResolutionResult(
        key="doc:1:2", gold=("water",), prompt_ids=tuple(range(len(generations))),
        gating=GatingDistribution.uniform(range(len(generations))),
        generations=tuple(generations), candidates=(), final=(), request_count=2,
    )


def test_a_shared_generation_is_encoded_once_with_the_same_bytes():
    def generation():
        return Generation("water | brine", ("water", "|", "brine"),
                          ({"water": 0.75, "salt": 0.25}, {"|": 1.0}, {"brine": 0.5}))

    shared = generation()
    encoded = to_json(result_with([shared, generation(), shared]))
    assert encoded["generations"][0] is encoded["generations"][2]
    assert encoded["generations"][0] is not encoded["generations"][1]
    distinct = to_json(result_with([generation(), generation(), generation()]))
    assert json.dumps(encoded, sort_keys=True) == json.dumps(distinct, sort_keys=True)


@pytest.mark.parametrize(
    "tp, value, detail",
    [
        (tuple[str, ...], "water", "expected a JSON array, not 'water'"),
        (list[int], {"0": 1}, "expected a JSON array, not {'0': 1}"),
        (dict[str, float], [["water", 0.5]], "expected a JSON object, not [['water', 0.5]]"),
        (dict[int, float], "0", "expected a JSON object, not '0'"),
        (Span, [0, 5, "water"], "expected a JSON object, not [0, 5, 'water']"),
    ],
    ids=["tuple-from-string", "list-from-object", "str-mapping-from-array",
         "int-mapping-from-string", "dataclass-from-array"],
)
def test_a_container_decodes_only_from_its_json_kind(tp, value, detail):
    # A string iterates as its characters and an object as its keys; neither
    # is the array or object the annotation promises.
    with pytest.raises(TypeError, match=re.escape(detail)):
        from_json(tp, value)


@pytest.mark.parametrize(
    "value, name",
    [
        (RunConfig(), "run config"),
        (PromptSetConfig(), "prompt set config"),
        (Template(), "template"),
        (DecodeParams.greedy(), "decode params"),
        (FilterConfig(), "filter config"),
        (Generation("water"), "generation"),
        (Span(0, 5, "water"), "span"),
    ],
    ids=lambda value: None if isinstance(value, str) else type(value).__name__,
)
def test_a_dataclass_refuses_a_key_it_does_not_declare(value, name):
    payload = {**to_json(value), "zeta": 1, "alpha": 2}
    with pytest.raises(ValueError, match=re.escape(f"unknown {name} fields: ['alpha', 'zeta']")):
        from_json(type(value), payload)


@pytest.mark.parametrize(
    "tp, value, detail",
    [
        (str, 5, "expected a string, not 5"),
        (int, True, "expected an integer, not True"),
        (int, 1.5, "expected an integer, not 1.5"),
        (float, "0.5", "expected a number, not '0.5'"),
        (float, False, "expected a number, not False"),
        (bool, 1, "expected a boolean, not 1"),
        (tuple[str, ...], ["water", 5], "expected a string, not 5"),
        (dict[str, float], {"water": None}, "expected a number, not None"),
        (Span, {"start": 0, "end": 5, "surface": None}, "expected a string, not None"),
        (Optional[int], "1", "expected an integer, not '1'"),
        (Span, None, "expected a JSON object, not None"),
    ],
    ids=["str-from-int", "int-from-bool", "int-from-float", "float-from-string",
         "float-from-bool", "bool-from-int", "tuple-item", "mapping-value",
         "dataclass-field", "optional-leaf", "dataclass-from-null"],
)
def test_a_leaf_decodes_only_from_its_json_type(tp, value, detail):
    with pytest.raises(TypeError, match=re.escape(detail)):
        from_json(tp, value)


@pytest.mark.parametrize(
    "tp, value",
    [(float, 1), (float, 0.5), (int, 3), (bool, False), (str, ""), (Optional[str], None)],
)
def test_a_leaf_of_its_json_type_decodes_as_is(tp, value):
    decoded = from_json(tp, value)
    assert decoded == value and type(decoded) is type(value)
