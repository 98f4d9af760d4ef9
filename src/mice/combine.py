"""Turning generations into candidate antecedents and mixing them.

Each prompt's generation is parsed into a per-prompt prediction; the
combiners then pool candidate surfaces across prompts. Every rule is one
piece of per-prompt evidence plus one fold over the prompts:

  * mixture:       first-token probability, folded as a gate-weighted sum
  * mixture-sample: a 0/1 "did this prompt emit it" indicator, same fold
  * product:       first-token probability, folded as a floored product

First-token probability of a candidate under one prompt is the highest
probability that candidate's first token received at any answer slot of
that prompt's generation.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .gateway import (
    Backend,
    DecodeMode,
    DecodeParams,
    Generation,
    Tokenizer,
    complete_many,
)
from .gating import GatingDistribution
from .prompts import Prompt, Template

_WS_RE = re.compile(r"\s+")


def canonicalize(surface: str) -> str:
    """Collapse whitespace runs and strip; case is preserved."""
    return _WS_RE.sub(" ", surface).strip()


@dataclass(frozen=True)
class PromptPrediction:
    """One prompt's parsed answer.

    ``generated_antecedents`` holds distinct canonical surfaces in first
    appearance order. ``slot_distributions`` holds one top-probability map
    per raw answer segment, pre-deduplication, so a repeated surface keeps
    the distributions from every slot it occupied. ``degraded`` marks
    predictions whose slots could not be aligned to the generation's
    token-level probabilities.
    """

    prompt_id: int
    generated_antecedents: tuple[str, ...] = ()
    slot_distributions: tuple[Mapping[str, float], ...] = ()
    degraded: bool = False


def extract_prediction(
    generation: Generation,
    template: Template,
    tokenizer: Tokenizer,
    prompt_id: int = 0,
) -> PromptPrediction:
    """Parse one generation into surfaces plus per-slot distributions.

    Each token that opens an answer slot (see ``Template.slot_starts``)
    contributes its top-probability map. A walk that does not yield one
    map per non-empty answer segment marks the prediction degraded and pads
    with empty maps.
    """
    raw = [s for s in template.segments(generation.text) if s]
    canonical = [canonicalize(s) for s in raw]
    seen: set[str] = set()
    distinct = tuple(s for s in canonical if not (s in seen or seen.add(s)))
    slots: list[Mapping[str, float]] = [
        dict(generation.top_probs[i]) if i < len(generation.top_probs) else {}
        for i in template.slot_starts(generation.tokens)
    ]
    degraded = len(slots) != len(raw)
    slots = slots[: len(raw)] + [{} for _ in range(len(raw) - len(slots))]
    return PromptPrediction(
        prompt_id=prompt_id,
        generated_antecedents=distinct,
        slot_distributions=tuple(slots),
        degraded=degraded,
    )


def first_token_prob(first_token: str, prediction: PromptPrediction) -> float:
    """Highest probability the token received at any answer slot."""
    best = 0.0
    for dist in prediction.slot_distributions:
        p = dist.get(first_token, 0.0)
        if p > best:
            best = p
    return best


@dataclass(frozen=True)
class CandidateAntecedent:
    """A candidate surface with its per-prompt and combined scores."""

    surface: str
    first_token: str
    combined_prob: float
    per_prompt_prob: Mapping[int, float] = field(default_factory=dict)

    def max_per_prompt(self) -> float:
        return max(self.per_prompt_prob.values(), default=0.0)


def rank_candidates(candidates: Iterable[CandidateAntecedent]) -> list[CandidateAntecedent]:
    """Highest combined probability first, ties by surface."""
    return sorted(candidates, key=lambda c: (-c.combined_prob, c.surface))


# The product rule floors each prompt's probability here, so one prompt that
# never saw a candidate dampens it instead of zeroing it outright.
_PRODUCT_FLOOR = 1e-4


def _pool(
    predictions: Sequence[PromptPrediction],
    tokenizer: Tokenizer,
    evidence: Callable[[str, str, PromptPrediction], float],
    fold: Callable[[dict[int, float]], Optional[float]],
) -> list[CandidateAntecedent]:
    """Score every surface any prompt emitted, then rank.

    ``evidence(surface, first_token, prediction)`` is one prompt's support
    for a surface; ``fold`` turns the per-prompt map into the combined
    probability, or ``None`` to drop the candidate.
    """
    if not predictions:
        raise ValueError("cannot combine an empty prediction list")
    candidates: list[CandidateAntecedent] = []
    seen: set[str] = set()
    for surface in (s for pred in predictions for s in pred.generated_antecedents):
        if surface in seen:
            continue
        seen.add(surface)
        token = tokenizer.tokenize(surface)[0]
        per_prompt = {pred.prompt_id: evidence(surface, token, pred) for pred in predictions}
        combined = fold(per_prompt)
        if combined is not None:
            candidates.append(CandidateAntecedent(surface, token, combined, per_prompt))
    return rank_candidates(candidates)


def _first_token_evidence(surface: str, token: str, prediction: PromptPrediction) -> float:
    return first_token_prob(token, prediction)


def _emitted(surface: str, token: str, prediction: PromptPrediction) -> float:
    return 1.0 if surface in prediction.generated_antecedents else 0.0


def _gated_sum(gating: GatingDistribution) -> Callable[[dict[int, float]], Optional[float]]:
    """Gate-weighted sum; candidates without mass are dropped."""

    def fold(per_prompt: dict[int, float]) -> Optional[float]:
        combined = sum(gating[pid] * p for pid, p in per_prompt.items())
        return combined if combined > 0.0 else None

    return fold


def _floored_product(per_prompt: dict[int, float]) -> float:
    combined = 1.0
    for p in per_prompt.values():
        combined *= max(p, _PRODUCT_FLOOR)
    return combined


def combine_mice(
    predictions: Sequence[PromptPrediction],
    gating: GatingDistribution,
    tokenizer: Tokenizer,
) -> list[CandidateAntecedent]:
    """Probability-weighted mixture over prompts.

    Each candidate's combined probability is the gate-weighted sum of its
    first-token probability under every prompt. Candidates no prompt
    assigns any mass are dropped.
    """
    return _pool(predictions, tokenizer, _first_token_evidence, _gated_sum(gating))


def combine_mice_sample(
    predictions: Sequence[PromptPrediction],
    gating: GatingDistribution,
    tokenizer: Tokenizer,
) -> list[CandidateAntecedent]:
    """Sampling form of the mixture: membership indicators replace probabilities.

    A prompt contributes its full gate weight to every surface it emitted
    and nothing to the rest, so no token-level probabilities are needed.
    """
    return _pool(predictions, tokenizer, _emitted, _gated_sum(gating))


def combine_product(
    predictions: Sequence[PromptPrediction], tokenizer: Tokenizer
) -> list[CandidateAntecedent]:
    """Unweighted product of per-prompt first-token probabilities.

    Probabilities are floored at ``_PRODUCT_FLOOR``; stored per-prompt
    values are the raw, unfloored probabilities. No candidate is dropped.
    """
    return _pool(predictions, tokenizer, _first_token_evidence, _floored_product)


def combine_single(
    prediction: PromptPrediction, tokenizer: Tokenizer
) -> list[CandidateAntecedent]:
    """Wrap one prompt's answer as candidates with full confidence."""
    return combine_mice_sample(
        [prediction], GatingDistribution.single(prediction.prompt_id), tokenizer
    )


def kate_plus_requests(
    prompt: str, decode: DecodeParams, n_samples: int
) -> list[tuple[str, DecodeParams]]:
    """The ``n_samples`` draws of one prompt, the i-th seeded ``(decode.seed or 0) + i``."""
    if decode.mode is not DecodeMode.NUCLEUS:
        raise ValueError("repeated sampling requires nucleus decoding")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    base_seed = decode.seed or 0
    return [(prompt, decode.with_seed(base_seed + i)) for i in range(n_samples)]


def combine_kate_plus(
    kate_prompt: Prompt,
    backend: Backend,
    decode: DecodeParams,
    n_samples: int,
    template: Template,
    tokenizer: Tokenizer,
    parallelism: int = 8,
) -> tuple[list[CandidateAntecedent], list[Generation]]:
    """Sample the nearest-neighbors prompt repeatedly and pool the answers.

    The library form of the resolver's kate-plus plan: the draws of
    ``kate_plus_requests`` go through ``complete_many``, and a candidate's
    combined probability is the fraction of samples that produced it.
    """
    requests = kate_plus_requests(kate_prompt.text, decode, n_samples)
    generations = complete_many(backend, requests, parallelism)
    predictions = [
        extract_prediction(gen, template, tokenizer, prompt_id=i)
        for i, gen in enumerate(generations)
    ]
    gating = GatingDistribution.uniform(list(range(n_samples)))
    return combine_mice_sample(predictions, gating, tokenizer), generations
