"""Shared test helpers: noise model, stub embedder, corpus builders, HTTP fakes.

The noisy oracle backend simulates a language model whose per-prompt
accuracy rises with demonstration-to-test similarity: prompts built from
well-matched demos usually answer with the gold antecedents, poorly
matched ones emit decoys. All randomness is hash-derived from the prompt
text, so runs are reproducible without shared state.
"""
from __future__ import annotations

import hashlib
from typing import Mapping, Optional, Sequence

import numpy as np

from mice.corpus import Dataset, Example, Span
from mice.gateway import DecodeParams, Generation, Tokenizer, WordTokenizer
from mice.gating import HashingEmbedder, cosine
from mice.prompts import Template

NOISE_SEED = 20260818


def hash_uniform(seed: int, text: str) -> float:
    """Deterministic uniform draw in [0, 1) keyed by (seed, text)."""
    digest = hashlib.blake2b(
        f"{seed}\x1f{text}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def correctness_probability(mean_similarity: float) -> float:
    """Per-prompt accuracy: affine in similarity, clipped to [0.30, 0.70]."""
    return min(0.70, max(0.30, 0.25 + 0.6 * mean_similarity))


def make_example(
    doc_id: str,
    antecedents: Sequence[str],
    lead: str = "Charge the flask with",
    anaphor: str = "the mixture",
    tail: str = "was stirred for two hours.",
) -> Example:
    """Build a labeled example whose antecedents precede the anaphor."""
    body = " and ".join(antecedents)
    text = f"{lead} {body}. Then {anaphor} {tail}"
    spans = []
    cursor = 0
    for surface in antecedents:
        start = text.index(surface, cursor)
        spans.append(Span(start, start + len(surface), surface))
        cursor = start + len(surface)
    ana_start = text.index(anaphor, cursor)
    return Example(
        doc_id=doc_id,
        text=text,
        anaphor=Span(ana_start, ana_start + len(anaphor), anaphor),
        gold_antecedents=tuple(spans),
    )


def make_dataset(count: int, prefix: str = "doc", **kwargs) -> Dataset:
    examples = tuple(
        make_example(f"{prefix}{i}", [f"reagent A{i}", f"solvent B{i}"], **kwargs)
        for i in range(count)
    )
    return Dataset(examples=examples, split_name=prefix)


class StubEmbedder:
    """Maps exact texts to preassigned vectors; unknown texts fail loudly."""

    def __init__(self, vectors: Mapping[str, Sequence[float]]):
        self._vectors = {t: np.asarray(v, dtype=np.float64) for t, v in vectors.items()}

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        rows = []
        for text in texts:
            if text not in self._vectors:
                raise KeyError(f"no stub vector for {text[:60]!r}")
            rows.append(self._vectors[text])
        return np.stack(rows)


class NoisyOracleBackend:
    """Similarity-correlated scripted answers with decoy corruption.

    Each request is decomposed into its demonstrations and test input by
    exact string matching against the known corpus renders. The chance the
    answer is the gold set rises with the demos' mean similarity to the
    test input; otherwise a decoy surface pair (hash-chosen from the
    example's pool) is emitted. Deterministic: same prompt, same answer.
    """

    def __init__(
        self,
        train: Dataset,
        test: Dataset,
        decoys: Mapping[str, Sequence[Sequence[str]]],
        noise_seed: int = NOISE_SEED,
        template: Optional[Template] = None,
        tokenizer: Optional[Tokenizer] = None,
        embed_dim: int = 1024,
    ):
        self._template = template or Template()
        self._tokenizer = tokenizer or WordTokenizer()
        self._decoys = {k: [list(pair) for pair in pool] for k, pool in decoys.items()}
        self._noise_seed = noise_seed
        embedder = HashingEmbedder(embed_dim)

        self._test_by_render: dict[str, Example] = {}
        test_renders = []
        for ex in test:
            render = self._template.render_example(ex, include_answer=False)
            self._test_by_render[render] = ex
            test_renders.append(render)
        self._demo_by_render: dict[str, Example] = {}
        demo_renders = []
        for ex in train:
            render = self._template.render_example(ex, include_answer=True)
            self._demo_by_render[render] = ex
            demo_renders.append(self._template.render_example(ex, include_answer=False))

        test_vectors = embedder.embed(test_renders)
        demo_vectors = embedder.embed(demo_renders)
        self._sim: dict[tuple[str, str], float] = {}
        for ti, tex in enumerate(test):
            for di, dex in enumerate(train):
                self._sim[(tex.key, dex.key)] = cosine(
                    test_vectors[ti], demo_vectors[di]
                )
        self.request_count = 0

    def answer_for(self, prompt: str) -> list[str]:
        """The surfaces this backend will emit for a prompt."""
        joiner = self._template.demonstration_joiner
        segments = prompt.split(joiner)
        test_render = segments[-1]
        test = self._test_by_render.get(test_render)
        if test is None:
            raise AssertionError("prompt does not end with a known test input")
        demos = []
        for segment in segments[:-1]:
            demo = self._demo_by_render.get(segment)
            if demo is None:
                raise AssertionError("prompt contains an unknown demonstration")
            demos.append(demo)
        if demos:
            mean_sim = sum(self._sim[(test.key, d.key)] for d in demos) / len(demos)
        else:
            mean_sim = 0.0
        p = correctness_probability(mean_sim)
        if hash_uniform(self._noise_seed, prompt) <= p:
            return test.gold_surfaces()
        pool = self._decoys[test.key]
        idx = int(hash_uniform(self._noise_seed + 1, prompt) * len(pool))
        return list(pool[idx])

    def complete(self, prompt: str, params: DecodeParams) -> Generation:
        self.request_count += 1
        surfaces = self.answer_for(prompt)
        text = f" {self._template.separator} ".join(surfaces)
        spans = self._tokenizer.span_tokenize(text)
        tokens = tuple(text[a:b] for a, b in spans)
        return Generation(
            text=text,
            tokens=tokens,
            top_probs=tuple({tok: 1.0} for tok in tokens),
        )


class FakeResponse:
    """An HTTP response; a payload that is an exception is raised by json()."""

    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self._payload = payload or {}

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class FakeSession:
    """Stands in for the HTTP session: replays a scripted outcome list."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome
