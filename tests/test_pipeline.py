"""End-to-end resolution, manifests, and replay."""
import json
import math
import sys
from dataclasses import replace
import threading
import time

import numpy as np
import pytest
from conftest import FIXTURES

from mice import pipeline
from mice.combine import extract_prediction
from mice.corpus import Dataset, Example, Span, from_json, load_corpus, sample_kshot, to_json
from mice.distill import build_record
from mice.gateway import (
    BackendError,
    DecodeParams,
    Generation,
    HTTPBackend,
    MockBackend,
    RemoteEmbedder,
    WordTokenizer,
)
from mice.gating import GatingDistribution, HashingEmbedder
from mice.pipeline import (
    MANIFEST_SCHEMA,
    Combiner,
    ResolutionResult,
    Resolver,
    RunConfig,
    _assemble_split_result,
    replay_manifest,
    write_manifest,
)
from mice.postfilter import FilterConfig
from mice.prompts import Ordering, PromptSetConfig, Selection, Template
from support import (
    DROP,
    ConcurrencyProbe,
    HoldingBackend,
    NoisyOracleBackend,
    Reply,
    make_example,
)

TRAIN = load_corpus(FIXTURES / "synthetic_train.jsonl")
TEST3 = load_corpus(FIXTURES / "cli_test.jsonl")
SAMPLE = sample_kshot(TRAIN, 4, seed=1)


def echo_backend():
    return MockBackend.from_fixture(FIXTURES / "oracle_echo.json")


class TestRunConfig:
    def test_defaults_validate(self):
        cfg = RunConfig()
        assert cfg.combiner is Combiner.MICE_S

    def test_kate_plus_requires_nucleus(self):
        with pytest.raises(ValueError, match="nucleus"):
            RunConfig(combiner=Combiner.KATE_PLUS, decode=DecodeParams.greedy())

    def test_kate_plus_with_nucleus_accepted(self):
        cfg = RunConfig(
            combiner=Combiner.KATE_PLUS, decode=DecodeParams.nucleus(seed=3)
        )
        assert cfg.decode.temperature == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"parallelism": 0},
            {"kate_plus_samples": 0},
            {"gate_combine": "mean"},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_dict_round_trip(self):
        cfg = RunConfig(
            combiner=Combiner.MICE,
            prompt=PromptSetConfig(
                demos_per_prompt=3,
                max_prompts=32,
                ordering=Ordering.DESCEND,
                selection=Selection.SEEDED_RANDOM,
                seed=11,
                max_sequence_length=1024,
                generation_reserve=128,
            ),
            template=Template(separator=";", answer_prefix="A:"),
            decode=DecodeParams.nucleus(seed=7, max_tokens=64, logprob_depth=5),
            filters=FilterConfig(
                max_antecedent_tokens=10,
                per_prompt_threshold=0.05,
                combined_threshold=0.2,
                merge_substrings=False,
            ),
            gate_combine="product",
            parallelism=2,
            kate_plus_samples=16,
            embed_dim=256,
        )
        payload = json.loads(json.dumps(to_json(cfg)))
        assert from_json(RunConfig, payload) == cfg

    def test_to_dict_is_json_safe(self):
        json.dumps(to_json(RunConfig()))


class TestResolveOne:
    @pytest.mark.parametrize(
        "combiner", [Combiner.MICE, Combiner.MICE_S, Combiner.PRODUCT]
    )
    def test_oracle_echo_recovers_gold(self, combiner):
        resolver = Resolver(RunConfig(combiner=combiner), SAMPLE, echo_backend())
        example = TEST3[0]
        result = resolver.resolve_one(example)
        assert sorted(result.predicted_surfaces) == sorted(example.gold_surfaces())
        assert result.error is None
        assert result.key == example.key

    def test_mice_s_prompt_bookkeeping(self):
        backend = echo_backend()
        resolver = Resolver(RunConfig(combiner=Combiner.MICE_S), SAMPLE, backend)
        result = resolver.resolve_one(TEST3[0])
        # k=4 demos, 2 per prompt, with repetition: 16 prompts.
        assert result.prompt_ids == tuple(range(16))
        assert result.request_count == 16
        # Under ascend ordering (i, j) and (j, i) render to the same text,
        # and the resolver's plan sends each distinct text once: the 4
        # diagonal prompts plus the 6 distinct pairs reach the backend.
        assert backend.request_count == 10
        assert sum(result.gating.weights.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(c.combined_prob == pytest.approx(1.0) for c in result.final)

    def test_product_runs_one_demo_per_prompt(self):
        resolver = Resolver(RunConfig(combiner=Combiner.PRODUCT), SAMPLE, echo_backend())
        effective = resolver._prompt_config
        assert effective.demos_per_prompt == 1
        assert effective.max_prompts == SAMPLE.k
        result = resolver.resolve_one(TEST3[0])
        assert result.request_count == SAMPLE.k
        assert result.gating is None

    def test_kate_single_request(self):
        backend = echo_backend()
        resolver = Resolver(RunConfig(combiner=Combiner.KATE), SAMPLE, backend)
        example = TEST3[1]
        result = resolver.resolve_one(example)
        assert backend.request_count == 1
        assert result.request_count == 1
        assert len(result.prompt_ids) == 1
        assert result.gating.weights == {result.prompt_ids[0]: 1.0}
        assert sorted(result.predicted_surfaces) == sorted(example.gold_surfaces())

    def test_kate_plus_pools_samples(self):
        backend = echo_backend()
        config = RunConfig(
            combiner=Combiner.KATE_PLUS,
            decode=DecodeParams.nucleus(seed=5),
            kate_plus_samples=8,
        )
        resolver = Resolver(config, SAMPLE, backend)
        # Single-token gold surfaces survive the mock's sampled slots.
        example = TEST3[0]
        result = resolver.resolve_one(example)
        assert backend.request_count == 8
        assert result.request_count == 8
        assert result.prompt_ids == tuple(range(8))
        assert sorted(result.predicted_surfaces) == sorted(example.gold_surfaces())
        assert all(c.combined_prob == pytest.approx(1.0) for c in result.final)

    def test_gold_absent_for_unlabeled(self):
        text = "Combine water and brine. Heat the mixture now."
        start = text.index("the mixture")
        unlabeled = Example(
            doc_id="u1",
            text=text,
            anaphor=Span.from_offsets(text, start, start + len("the mixture")),
        )
        resolver = Resolver(RunConfig(), SAMPLE, echo_backend())
        result = resolver.resolve_one(unlabeled)
        assert result.gold is None


class TestResolveSplit:
    def test_scores_fully_labeled_split(self):
        resolver = Resolver(RunConfig(), SAMPLE, echo_backend())
        split_result = resolver.resolve_split(TEST3)
        assert split_result.report is not None
        assert split_result.report.f1 == 1.0
        assert set(split_result.predictions) == {ex.key for ex in TEST3}
        assert split_result.request_count == 16 * len(TEST3)

    def test_unlabeled_split_gets_no_report(self):
        text = "Combine water and brine. Heat the mixture now."
        start = text.index("the mixture")
        unlabeled = Dataset(
            (
                Example(
                    doc_id="u1",
                    text=text,
                    anaphor=Span.from_offsets(text, start, start + len("the mixture")),
                ),
            ),
            "unlabeled",
        )
        resolver = Resolver(RunConfig(), SAMPLE, echo_backend())
        split_result = resolver.resolve_split(unlabeled)
        assert split_result.report is None

    def test_backend_failure_degrades_to_empty_prediction(self):
        class DownBackend:
            def complete(self, prompt, params):
                raise BackendError("endpoint unreachable")

        resolver = Resolver(RunConfig(), SAMPLE, DownBackend())
        split_result = resolver.resolve_split(TEST3)
        assert len(split_result.results) == len(TEST3)
        assert all(r.error == "endpoint unreachable" for r in split_result.results)
        assert all(r.final == () for r in split_result.results)
        assert split_result.request_count == 0
        assert split_result.backend_failures == len(TEST3)
        # Gold is known for every example, so a (zero) report still exists.
        assert split_result.report.f1 == 0.0

    def test_budget_failure_degrades_too(self):
        config = RunConfig(
            prompt=PromptSetConfig(max_sequence_length=40, generation_reserve=30)
        )
        resolver = Resolver(config, SAMPLE, echo_backend())
        split_result = resolver.resolve_split(TEST3)
        assert all(r.error is not None for r in split_result.results)
        assert all("budget" in r.error or "fit" in r.error for r in split_result.results)
        assert split_result.backend_failures == 0

    def test_partial_failure_keeps_other_examples(self):
        real = echo_backend()
        poison = TEST3[1].anaphor.surface  # matches only via its doc text
        poison_text = TEST3[1].text

        class FlakyBackend:
            def complete(self, prompt, params):
                if poison_text in prompt:
                    raise BackendError("boom")
                return real.complete(prompt, params)

        resolver = Resolver(RunConfig(), SAMPLE, FlakyBackend())
        split_result = resolver.resolve_split(TEST3)
        by_key = {r.key: r for r in split_result.results}
        assert by_key[TEST3[1].key].error == "boom"
        assert by_key[TEST3[0].key].error is None
        assert sorted(by_key[TEST3[0].key].predicted_surfaces) == sorted(
            TEST3[0].gold_surfaces()
        )


    def test_malformed_response_fails_only_its_example(self, serve):
        poison_text = TEST3[1].text

        def respond(call):
            logprobs = {"tokens": ["water", "|"], "top_logprobs": [{}]}
            if poison_text not in call["json"]["prompt"]:
                logprobs = None
            return Reply(200, {"choices": [{"text": "water", "logprobs": logprobs}]})

        backend = serve(respond).client(HTTPBackend, sleep=lambda s: None)
        config = RunConfig(combiner=Combiner.KATE, parallelism=1)
        split_result = Resolver(config, SAMPLE, backend).resolve_split(TEST3)
        errors = {r.key: r.error for r in split_result.results}
        assert "1 probability maps for 2 tokens" in errors.pop(TEST3[1].key)
        assert set(errors.values()) == {None}

    @pytest.mark.parametrize(
        "choice, detail",
        [
            ({"text": 5}, "generation text and tokens must be strings, not 5"),
            ({"text": "water", "logprobs": {"tokens": [1, 2]}},
             "generation text and tokens must be strings, not 1"),
            ({"text": "water", "logprobs": {"tokens": "ab"}},
             "expected a JSON array, not 'ab'"),
            ({"text": "water", "logprobs": {"tokens": ["water"], "top_logprobs": [{"x": 1000}]}},
             "math range error"),
        ],
        ids=["text-not-a-string", "token-not-a-string", "tokens-not-an-array",
             "logprob-overflows"],
    )
    def test_non_string_completion_fails_only_its_example(self, serve, choice, detail):
        poison_text = TEST3[1].text

        def respond(call):
            if poison_text in call["json"]["prompt"]:
                return Reply(200, {"choices": [choice]})
            return Reply(200, {"choices": [{"text": "water", "logprobs": None}]})

        backend = serve(respond).client(HTTPBackend, sleep=lambda s: None)
        config = RunConfig(combiner=Combiner.KATE, parallelism=2)
        split_result = Resolver(config, SAMPLE, backend).resolve_split(TEST3)
        errors = {r.key: r.error for r in split_result.results}
        assert errors.pop(TEST3[1].key).endswith(f"malformed completion response: {detail}")
        assert set(errors.values()) == {None}
        assert split_result.backend_failures == 1

    def test_deeply_nested_body_fails_only_its_example(self, serve):
        poison_text = TEST3[1].text

        def respond(call):
            if poison_text in call["json"]["prompt"]:
                return Reply(200, b"[" * 100_000)
            return Reply(200, {"choices": [{"text": "water", "logprobs": None}]})

        backend = serve(respond).client(HTTPBackend, sleep=lambda s: None)
        config = RunConfig(combiner=Combiner.KATE, parallelism=2)
        split_result = Resolver(config, SAMPLE, backend).resolve_split(TEST3)
        errors = {r.key: r.error for r in split_result.results}
        assert errors.pop(TEST3[1].key).startswith("completion returned HTTP 200 with unusable body")
        assert set(errors.values()) == {None}

    def test_embedding_failure_fails_only_its_example(self, serve):
        poison_text = TEST3[2].text

        def respond(call):
            texts = call["json"]["texts"]
            if any(poison_text in t for t in texts):
                return DROP
            return Reply(200, {"vectors": [[1.0, 0.0]] * len(texts)})

        embedder = serve(respond).client(RemoteEmbedder, sleep=lambda s: None)
        resolver = Resolver(RunConfig(), SAMPLE, echo_backend(), embedder=embedder)
        split_result = resolver.resolve_split(TEST3)
        errors = {r.key: r.error for r in split_result.results}
        assert "Remote end closed connection" in errors.pop(TEST3[2].key)
        assert set(errors.values()) == {None}

    def test_an_embedding_too_large_for_a_float_fails_only_its_example(self, serve):
        poison_text = TEST3[2].text

        def respond(call):
            texts = call["json"]["texts"]
            big = int("9" * 400) if any(poison_text in t for t in texts) else 1.0
            return Reply(200, {"vectors": [[big, len(t) % 7] for t in texts]})

        embedder = serve(respond).client(RemoteEmbedder, sleep=lambda s: None)
        resolver = Resolver(RunConfig(), SAMPLE, echo_backend(), embedder=embedder)
        split_result = resolver.resolve_split(TEST3)
        errors = {r.key: r.error for r in split_result.results}
        assert errors.pop(TEST3[2].key) == ("embedding request returned HTTP 200 with unusable "
                                            "body: int too large to convert to float")
        assert set(errors.values()) == {None}
        assert split_result.backend_failures == 1

    def test_non_finite_embedding_fails_only_its_example(self, serve):
        # JSON replies may carry NaN, which json.loads accepts.
        def resolve(poison):
            def respond(call):
                texts = call["json"]["texts"]
                return Reply(200, {"vectors": [
                    [math.nan if poison in t else 1.0, len(t) % 7] for t in texts
                ]})

            embedder = serve(respond).client(RemoteEmbedder, sleep=lambda s: None)
            resolver = Resolver(RunConfig(), SAMPLE, echo_backend(), embedder=embedder)
            return resolver.resolve_split(TEST3).results

        clean, poisoned = resolve("no text holds this"), resolve(TEST3[2].text)
        assert poisoned[2].error == f"similarity of {TEST3[2].key} to demonstration 0 is nan"
        assert poisoned[:2] == clean[:2]
        assert [r.error for r in clean] == [None] * 3


def sampling(combiner, samples):
    """The nucleus decode and sample count kate-plus needs; nothing for the rest."""
    if combiner is not Combiner.KATE_PLUS:
        return {}
    return {"decode": DecodeParams.nucleus(seed=3), "kate_plus_samples": samples}


def streaming_setup(combiner, parallelism=8):
    """A resolver over the noisy oracle and six synthetic examples for ``combiner``."""
    decoys = json.loads((FIXTURES / "synthetic_decoys.json").read_text(encoding="utf-8"))
    backend = NoisyOracleBackend(SYNTH_TRAIN, SYNTH_TEST, decoys)
    config = RunConfig(
        combiner=combiner, prompt=PromptSetConfig(max_prompts=8), parallelism=parallelism,
        **sampling(combiner, 8),
    )
    split = Dataset(SYNTH_TEST.examples[:6], "synthetic")
    return Resolver(config, sample_kshot(SYNTH_TRAIN, 8, seed=3), backend), split


class FailingEmbedder:
    """A hashing embedder that fails on any text containing ``poison``."""

    def __init__(self, poison):
        self._inner = HashingEmbedder(RunConfig().embed_dim)
        self._poison = poison

    def embed(self, texts):
        if any(self._poison in t for t in texts):
            raise BackendError("embedding endpoint down")
        return self._inner.embed(texts)


class SkewedEmbedder:
    """A hashing embedder that adds one column for any text containing ``skew``."""

    def __init__(self, skew):
        self._inner = HashingEmbedder(RunConfig().embed_dim)
        self._skew = skew

    def embed(self, texts):
        vectors = self._inner.embed(texts)
        if any(self._skew in t for t in texts):
            return np.hstack([vectors, np.zeros((len(texts), 1))])
        return vectors


def test_embedding_of_another_width_fails_only_its_example():
    embedder = SkewedEmbedder(TEST3[1].text)
    split_result = Resolver(RunConfig(), SAMPLE, echo_backend(), embedder).resolve_split(TEST3)
    clean = Resolver(RunConfig(), SAMPLE, echo_backend()).resolve_split(TEST3)
    assert [r.error for r in split_result.results] == [
        None, f"embedding of {TEST3[1].key} has shape (1025,), the demonstrations' (1024,)", None
    ]
    assert split_result.results[::2] == clean.results[::2]
    assert split_result.backend_failures == 1


def resolve_all(resolver, split, how):
    """Results of ``split`` through ``resolve_split`` or one ``resolve_one`` call each."""
    if how == "split":
        return resolver.resolve_split(split).results
    return tuple(resolver.resolve_one(example) for example in split)


class TestSharedPrompts:
    """The resolver's plan sends each distinct prompt text once per example."""

    @pytest.mark.parametrize("how", ["one", "split"])
    @pytest.mark.parametrize(
        "decode, sent",
        [(DecodeParams.greedy(), 10), (DecodeParams.nucleus(seed=3), 10),
         (DecodeParams.nucleus(), 16)],
        ids=["greedy", "seeded-nucleus", "unseeded-nucleus"],
    )
    def test_requests_per_example(self, decode, sent, how):
        # k=4, d=2 under ascend ordering: 16 prompts for 10 distinct texts;
        # unseeded nucleus draws are independent, so every prompt is sent.
        backend = echo_backend()
        resolver = Resolver(RunConfig(decode=decode), SAMPLE, backend)
        results = resolve_all(resolver, TEST3, how)
        assert backend.request_count == sent * len(TEST3)
        for result in results:
            assert result.request_count == len(result.generations) == 16
            assert len({id(g) for g in result.generations}) == sent
        assert [r.error for r in results] == [None] * len(TEST3)

    @pytest.mark.parametrize("how", ["one", "split"])
    def test_failure_of_a_shared_prompt_fails_its_example_once(self, how):
        # Example 1's prompts on (train-organic-14, train-acids-01) and on
        # its reverse share one text.
        def shared(prompt):
            return all(t in prompt for t in (TEST3[1].text, "train-organic-14", "train-acids-01"))

        calls = []
        real = echo_backend()

        class Failing:
            def complete(self, prompt, params):
                calls.append(prompt)
                if shared(prompt):
                    raise BackendError("shared prompt failed")
                return real.complete(prompt, params)

        resolver = Resolver(RunConfig(parallelism=1), SAMPLE, Failing())
        if how == "one":
            with pytest.raises(BackendError, match="shared prompt failed"):
                resolver.resolve_one(TEST3[1])
        else:
            split_result = resolver.resolve_split(TEST3)
            assert [r.error for r in split_result.results] == [None, "shared prompt failed", None]
            assert split_result.backend_failures == 1
        assert len([prompt for prompt in calls if shared(prompt)]) == 1


    def test_positions_sharing_a_generation_share_one_extraction(self, monkeypatch):
        # The bench counts extraction through mice.pipeline.extract_prediction.
        extracted, pooled = [], []
        extract, combine = pipeline.extract_prediction, pipeline.combine_mice
        monkeypatch.setattr(pipeline, "extract_prediction",
                            lambda gen, *a, **kw: extracted.append(gen) or extract(gen, *a, **kw))
        monkeypatch.setattr(pipeline, "combine_mice",
                            lambda predictions, *a: pooled.append(predictions) or combine(
                                predictions, *a))
        both = Generation("water | brine", ("water", "|", "brine"),
                          ({"water": 0.6, "salt": 0.4}, {"|": 1.0}, {"brine": 0.9, "x": 0.1}))
        salt = Generation("salt", ("salt",), ({"salt": 0.7, "water": 0.3},))
        shared = [both, salt, both, both]
        args = ("doc:1:2", None, (5, 6, 7, 8), GatingDistribution.uniform((5, 6, 7, 8)))
        config, tokenizer = RunConfig(combiner=Combiner.MICE), WordTokenizer()
        from_shared = pipeline._finish(*args, shared, config, tokenizer)
        assert extracted == [both, salt]
        from_copies = pipeline._finish(*args, [replace(g) for g in shared], config, tokenizer)
        assert len(extracted) == 2 + 4
        assert [p.prompt_id for p in pooled[0]] == [5, 6, 7, 8]
        assert pooled[0] == pooled[1]
        assert from_shared.candidates == from_copies.candidates != ()
        assert from_shared.generations == tuple(shared)


class TestStreamedSplit:
    """resolve_split starts example i+1 before it finishes example i."""

    @pytest.mark.parametrize("parallelism", [1, 2, 3])
    @pytest.mark.parametrize("combiner", list(Combiner))
    def test_backend_calls_in_flight_stay_within_parallelism(self, combiner, parallelism):
        resolver, split = streaming_setup(combiner, parallelism)
        probe = ConcurrencyProbe(resolver.backend)
        resolver.backend = probe
        result = resolver.resolve_split(split)
        assert [r.error for r in result.results] == [None] * len(split)
        assert 1 <= probe.peak <= parallelism

    @pytest.mark.parametrize(
        "combiner, requests, parallelism",
        [(Combiner.KATE, 1, 2), (Combiner.MICE_S, 2, 3), (Combiner.KATE_PLUS, 2, 3)],
    )
    def test_next_example_is_queued_while_one_waits(self, combiner, requests, parallelism):
        # Example 0's requests are answered only once example 1's arrive,
        # which happens only if example 1 is started before 0 is finished.
        # A spare worker is left for example 1 beside example 0's requests.
        config = RunConfig(
            combiner=combiner, prompt=PromptSetConfig(max_prompts=requests),
            parallelism=parallelism, **sampling(combiner, requests),
        )
        backend = HoldingBackend(echo_backend(), hold=TEST3[0].text, until=TEST3[1].text)
        split_result = Resolver(config, SAMPLE, backend).resolve_split(TEST3)
        assert [r.error for r in split_result.results] == [None] * len(TEST3)
        clean = Resolver(config, SAMPLE, echo_backend()).resolve_split(TEST3)
        assert split_result.results == clean.results
        if combiner is not Combiner.KATE_PLUS:  # sampled slots miss multi-token golds
            assert split_result.report.f1 == 1.0

    @pytest.mark.parametrize("combiner", list(Combiner))
    def test_streaming_changes_no_result(self, combiner, tmp_path):
        resolver, split = streaming_setup(combiner)
        streamed = resolver.resolve_split(split)
        one_by_one = [resolver.resolve_one(example) for example in split]
        assert streamed.results == tuple(one_by_one)
        write_manifest(streamed, resolver.config, resolver.sample, tmp_path / "streamed")
        write_manifest(
            _assemble_split_result(one_by_one), resolver.config, resolver.sample,
            tmp_path / "one_by_one",
        )
        assert (tmp_path / "streamed").read_bytes() == (tmp_path / "one_by_one").read_bytes()

    def test_many_workers_under_fast_thread_switching(self):
        resolver, _ = streaming_setup(Combiner.MICE_S, parallelism=8)
        split = Dataset(SYNTH_TEST.examples[:16], "synthetic")
        expected = [resolver.resolve_one(example) for example in split]
        probe = ConcurrencyProbe(resolver.backend, delay=0.0)
        resolver.backend = probe
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            streamed = resolver.resolve_split(split)
        finally:
            sys.setswitchinterval(interval)
        assert streamed.results == tuple(expected)
        assert probe.peak <= 8

    def test_budget_failure_in_start_step(self):
        long = make_example("long", ["water", "brine"], lead="Charge " + "slowly " * 2000)
        split = Dataset((TEST3[0], long, TEST3[1], TEST3[2]), "cli")
        split_result = Resolver(RunConfig(), SAMPLE, echo_backend()).resolve_split(split)
        failed = split_result.results[1]
        assert "budget is 1792" in failed.error and failed.final == ()
        clean = Resolver(RunConfig(), SAMPLE, echo_backend()).resolve_split(TEST3)
        assert split_result.results[:1] + split_result.results[2:] == clean.results
        assert split_result.backend_failures == 0

    def test_embedding_failure_in_start_step(self):
        embedder = FailingEmbedder(TEST3[1].text)
        resolver = Resolver(RunConfig(), SAMPLE, echo_backend(), embedder=embedder)
        split_result = resolver.resolve_split(TEST3)
        clean = Resolver(RunConfig(), SAMPLE, echo_backend()).resolve_split(TEST3)
        assert [r.error for r in split_result.results] == [None, "embedding endpoint down", None]
        assert split_result.results[1].final == ()
        assert split_result.results[::2] == clean.results[::2]
        assert split_result.backend_failures == 1

    def test_request_failure_while_next_example_is_queued(self):
        # Example 1's requests fail only once example 2's have been sent.
        for combiner, samples, parallelism in [(Combiner.KATE, 1, 2), (Combiner.KATE_PLUS, 2, 3)]:
            backend = HoldingBackend(echo_backend(), hold=TEST3[1].text, until=TEST3[2].text,
                                     fail=True)
            config = RunConfig(
                combiner=combiner, parallelism=parallelism, **sampling(combiner, samples)
            )
            split_result = Resolver(config, SAMPLE, backend).resolve_split(TEST3)
            clean = Resolver(config, SAMPLE, echo_backend()).resolve_split(TEST3)
            errors = [r.error for r in split_result.results]
            assert errors == [None, "held request failed", None], combiner
            assert split_result.results[1].final == ()
            assert split_result.results[::2] == clean.results[::2]
            assert split_result.backend_failures == 1

    def test_kate_plus_extracts_each_sample_once(self, monkeypatch):
        extracted = []

        def counting(generation, *args, **kwargs):
            extracted.append(generation)
            return extract_prediction(generation, *args, **kwargs)

        monkeypatch.setattr("mice.pipeline.extract_prediction", counting)
        monkeypatch.setattr("mice.combine.extract_prediction", counting)
        resolver, split = streaming_setup(Combiner.KATE_PLUS)
        resolver.resolve_split(split)
        assert len(extracted) == resolver.config.kate_plus_samples * len(split)

    def test_escaping_exception_cancels_queued_requests(self):
        real = echo_backend()
        sent = {0: 0, 1: 0, 2: 0}
        lock = threading.Lock()

        class BrokenBackend:
            def complete(self, prompt, params):
                index = next(i for i, ex in enumerate(TEST3) if ex.text in prompt)
                with lock:
                    sent[index] += 1
                if index == 0:
                    raise RuntimeError("bug in the backend")
                time.sleep(0.2)
                return real.complete(prompt, params)

        config = RunConfig(parallelism=1)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="bug in the backend"):
            Resolver(config, SAMPLE, BrokenBackend()).resolve_split(TEST3)
        assert [t for t in threading.enumerate() if t not in before] == []
        assert threading.active_count() == len(before)
        # Example 0 stops at its first failure, and the queued requests of
        # examples 1 and 2, planned in the same group, are cancelled.
        assert sent[0] == 1
        assert sent[1] <= 1
        assert sent[2] == 0


class CountingEmbedder:
    """An embedder that counts its calls: the streamed loop embeds each example once."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        return self._inner.embed(texts)


class TestIterResults:
    """The one streamed loop that resolve_split and mice distill consume."""

    @staticmethod
    def counted_loop(count):
        resolver, _ = streaming_setup(Combiner.MICE_S)
        resolver.embedder = CountingEmbedder(resolver.embedder)
        split = Dataset(SYNTH_TEST.examples[:count], "synthetic")
        return resolver.embedder, resolver.iter_results(split)

    def test_plans_one_group_ahead(self):
        embedder, loop = self.counted_loop(5 * pipeline._PLAN_AHEAD)
        next(loop)
        assert pipeline._PLAN_AHEAD < embedder.calls <= 2 * pipeline._PLAN_AHEAD
        assert len(list(loop)) == 5 * pipeline._PLAN_AHEAD - 1
        assert embedder.calls == 5 * pipeline._PLAN_AHEAD

    def test_closing_after_the_first_result_plans_no_further_group(self):
        embedder, loop = self.counted_loop(5 * pipeline._PLAN_AHEAD)
        assert next(loop).error is None
        planned = embedder.calls
        loop.close()
        assert embedder.calls == planned <= 2 * pipeline._PLAN_AHEAD

    def test_yields_scored_surfaces(self):
        resolver = Resolver(RunConfig(), SAMPLE, echo_backend())
        example = TEST3[0]
        [result] = resolver.iter_results([example])
        predictions = [(c.surface, c.combined_prob) for c in result.final]
        assert sorted(s for s, _ in predictions) == sorted(example.gold_surfaces())
        assert all(p == pytest.approx(1.0) for _, p in predictions)

    def test_results_feed_distillation(self):
        resolver = Resolver(RunConfig(), SAMPLE, echo_backend())
        example = TEST3[0]
        [result] = resolver.iter_results([example])
        predictions = [(c.surface, c.combined_prob) for c in result.final]
        record = build_record(example, predictions, WordTokenizer())
        assert record.tags.count("B") == len(example.gold_surfaces())

    @pytest.mark.parametrize("combiner", list(Combiner))
    def test_resolve_split_collects_the_loop(self, combiner):
        resolver, split = streaming_setup(combiner)
        oracle = resolver.backend
        poison = split.examples[2].text

        class FailingMiddle:
            def complete(self, prompt, params):
                if poison in prompt:
                    raise BackendError("boom")
                return oracle.complete(prompt, params)

        resolver.backend = FailingMiddle()
        streamed = list(resolver.iter_results(split))
        collected = resolver.resolve_split(split)
        assert len(streamed) == len(collected.results) == len(split)
        assert isinstance(streamed[2], BackendError) and str(streamed[2]) == "boom"
        failed = collected.results[2]
        assert (failed.key, failed.error, failed.final) == (split.examples[2].key, "boom", ())
        assert streamed[:2] + streamed[3:] == list(collected.results[:2] + collected.results[3:])
        assert [r.error for r in streamed[:2] + streamed[3:]] == [None] * (len(split) - 1)
        assert collected.backend_failures == 1


class TestManifest:
    def run_and_write(self, tmp_path, name, config=None, backend=None):
        resolver = Resolver(config or RunConfig(), SAMPLE, backend or echo_backend())
        split_result = resolver.resolve_split(TEST3)
        path = tmp_path / name
        write_manifest(split_result, resolver.config, SAMPLE, path, split_name="cli")
        return split_result, path

    def test_identical_runs_produce_identical_bytes(self, tmp_path):
        _, path_a = self.run_and_write(tmp_path, "a.jsonl")
        _, path_b = self.run_and_write(tmp_path, "b.jsonl")
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_header_and_summary_contents(self, tmp_path):
        split_result, path = self.run_and_write(tmp_path, "run.jsonl")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        header, entries, summary = lines[0], lines[1:-1], lines[-1]
        assert header["record"] == "header"
        assert header["schema"] == MANIFEST_SCHEMA
        assert header["split"] == "cli"
        assert header["k"] == SAMPLE.k
        assert header["sample_seed"] == SAMPLE.seed
        assert len(entries) == len(TEST3)
        assert summary["record"] == "summary"
        assert summary["report"]["f1"] == split_result.report.f1
        assert summary["request_count"] == split_result.request_count

    @pytest.mark.parametrize("combiner", list(Combiner), ids=lambda c: c.value)
    def test_replay_reproduces_report_without_backend(self, tmp_path, combiner):
        decode = (
            DecodeParams.nucleus(seed=5)
            if combiner is Combiner.KATE_PLUS
            else DecodeParams.greedy()
        )
        config = RunConfig(combiner=combiner, decode=decode, kate_plus_samples=8)
        split_result, path = self.run_and_write(tmp_path, "run.jsonl", config=config)
        replayed, replayed_config = replay_manifest(path)
        assert replayed_config == config
        assert replayed.report == split_result.report
        assert len(replayed.results) == len(split_result.results)
        for original, again in zip(split_result.results, replayed.results):
            assert again.key == original.key
            assert again.candidates == original.candidates
            assert again.final == original.final

    @pytest.mark.parametrize("combiner", [Combiner.MICE, Combiner.MICE_S], ids=lambda c: c.value)
    def test_a_resolver_tokenizer_does_not_pick_first_tokens(self, tmp_path, combiner):
        # Replay has no tokenizer of the run's; first tokens come from the wire's on both paths.
        class Shouting(WordTokenizer):
            def tokenize(self, text):
                return [token.upper() for token in super().tokenize(text)]

        config = RunConfig(combiner=combiner)
        resolver = Resolver(config, SAMPLE, echo_backend(), tokenizer=Shouting())
        split_result = resolver.resolve_split(TEST3)
        path = tmp_path / "run.jsonl"
        write_manifest(split_result, config, SAMPLE, path)
        replayed, _ = replay_manifest(path)
        assert replayed.report == split_result.report
        assert [r.final for r in replayed.results] == [r.final for r in split_result.results]
        assert split_result.results[0].final[0].first_token.islower()

    def test_replay_extracts_each_stored_generation_once(self, tmp_path, monkeypatch):
        # Each example's 16 prompts hold 10 texts, answered by two generations,
        # so every entry stores equal generations at several positions.
        echo, decoy = echo_backend(), Generation("water", ("water",), ({"water": 1.0},))

        class TwoAnswers:
            def complete(self, prompt, params):
                return echo.complete(prompt, params) if len(prompt) % 2 else decoy

        split_result, path = self.run_and_write(tmp_path, "run.jsonl", backend=TwoAnswers())
        entries = [json.loads(line) for line in path.read_text().splitlines()[1:-1]]
        distinct = [{json.dumps(g, sort_keys=True) for g in e["generations"]} for e in entries]
        assert [len(d) for d in distinct] == [2] * len(TEST3)
        extracted = []
        extract = pipeline.extract_prediction
        monkeypatch.setattr(pipeline, "extract_prediction",
                            lambda gen, *a, **kw: extracted.append(gen) or extract(gen, *a, **kw))
        replayed, _ = replay_manifest(path)
        assert len(extracted) == sum(map(len, distinct))
        assert replayed.report == split_result.report
        for original, again in zip(split_result.results, replayed.results):
            assert again.generations == original.generations
            assert again.candidates == original.candidates
            assert again.final == original.final

    def test_schema_1_manifest_replays_with_default_template(self, tmp_path):
        split_result, path = self.run_and_write(tmp_path, "run.jsonl")
        header, *rest = path.read_text(encoding="utf-8").splitlines()
        old_header = json.loads(header)
        old_header["schema"] = "mice-manifest/1"
        del old_header["config"]["template"]
        old = tmp_path / "schema1.jsonl"
        old.write_text("\n".join([json.dumps(old_header), *rest]) + "\n", encoding="utf-8")
        replayed, config = replay_manifest(old)
        assert config == RunConfig()
        assert replayed.report == split_result.report
        assert [r.final for r in replayed.results] == [r.final for r in split_result.results]

    def test_replay_mice_manifest(self, tmp_path):
        split_result, path = self.run_and_write(
            tmp_path, "mice.jsonl", config=RunConfig(combiner=Combiner.MICE)
        )
        replayed, config = replay_manifest(path)
        assert config.combiner is Combiner.MICE
        assert replayed.report.f1 == split_result.report.f1

    def test_replay_kate_manifest(self, tmp_path):
        split_result, path = self.run_and_write(
            tmp_path, "kate.jsonl", config=RunConfig(combiner=Combiner.KATE)
        )
        replayed, _ = replay_manifest(path)
        assert replayed.report.f1 == 1.0

    def test_replay_preserves_errors(self, tmp_path):
        class DownBackend:
            def complete(self, prompt, params):
                raise BackendError("endpoint unreachable")

        _, path = self.run_and_write(tmp_path, "down.jsonl", backend=DownBackend())
        replayed, _ = replay_manifest(path)
        assert all(r.error == "endpoint unreachable" for r in replayed.results)
        assert all(r.final == () for r in replayed.results)
        assert replayed.report.f1 == 0.0

    def test_manifest_without_header_rejected(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"record": "entry", "key": "x"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="no header"):
            replay_manifest(path)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"record": "header", "schema": "mice-manifest/999", "config": {}})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="schema"):
            replay_manifest(path)


SYNTH_TRAIN = load_corpus(FIXTURES / "synthetic_train.jsonl")
SYNTH_TEST = load_corpus(FIXTURES / "synthetic_test.jsonl")
COMBINER_PINS = FIXTURES / "combiner_pins.json"


def combiner_trace(combiner):
    """Each example's candidates and finals under one combiner, as plain data.

    Four ``synthetic_test`` examples against the noisy oracle (k=8, seed 3,
    8 prompts), or, for kate-plus, 16 nucleus samples of the scripted mock
    on a passage its entry matches. ``tests/fixtures/combiner_pins.json``
    holds this function's output recorded before the combine rules shared
    one pooling step.
    """
    sample = sample_kshot(SYNTH_TRAIN, 8, seed=3)
    if combiner is Combiner.KATE_PLUS:
        test = Dataset(
            (make_example("vessel", ["water", "DCM"], lead="Charge vessel 900 with"),)
        )
        backend = MockBackend.from_fixture(FIXTURES / "scripted_mock.json")
        config = RunConfig(
            combiner=combiner, decode=DecodeParams.nucleus(seed=3), kate_plus_samples=16
        )
    else:
        test = Dataset(SYNTH_TEST.examples[:4])
        decoys = json.loads((FIXTURES / "synthetic_decoys.json").read_text(encoding="utf-8"))
        backend = NoisyOracleBackend(SYNTH_TRAIN, SYNTH_TEST, decoys)
        config = RunConfig(combiner=combiner, prompt=PromptSetConfig(max_prompts=8))
    result = Resolver(config, sample, backend).resolve_split(test)

    def rows(candidates):
        return [
            [c.surface, c.first_token, sorted(c.per_prompt_prob), c.combined_prob]
            for c in candidates
        ]

    return [
        {"key": r.key, "candidates": rows(r.candidates), "final": rows(r.final)}
        for r in result.results
    ]


@pytest.mark.parametrize("combiner", list(Combiner))
def test_combiners_match_their_recorded_candidates(combiner):
    expected = json.loads(COMBINER_PINS.read_text(encoding="utf-8"))[combiner.value]
    actual = combiner_trace(combiner)
    assert [e["key"] for e in actual] == [e["key"] for e in expected]
    for got, want in zip(actual, expected):
        for stage in ("candidates", "final"):
            assert [row[:3] for row in got[stage]] == [row[:3] for row in want[stage]]
            assert [row[3] for row in got[stage]] == pytest.approx(
                [row[3] for row in want[stage]], rel=0.0, abs=1e-12
            )
