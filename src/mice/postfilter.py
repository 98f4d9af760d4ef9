"""Candidate postfiltering: length cap, substring merge, probability gates.

Applied in a fixed order so the result is reproducible and a second pass
changes nothing:

  1. drop candidates longer than the token cap;
  2. merge candidates that are substrings of another into the longest
     containing candidate, keeping the highest probability;
  3. drop candidates no single prompt supported above the per-prompt floor;
  4. drop candidates whose combined probability is below the floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .combine import CandidateAntecedent, rank_candidates
from .gateway import Tokenizer


@dataclass(frozen=True)
class FilterConfig:
    """Postfilter thresholds. Defaults match the resolver's operating point."""

    max_antecedent_tokens: int = 250
    per_prompt_threshold: float = 0.02
    combined_threshold: float = 0.1
    merge_substrings: bool = True

    def __post_init__(self) -> None:
        if self.max_antecedent_tokens < 1:
            raise ValueError("max_antecedent_tokens must be positive")
        if not 0.0 <= self.per_prompt_threshold < math.inf:
            raise ValueError("per_prompt_threshold must be finite and non-negative")
        if not 0.0 <= self.combined_threshold < math.inf:
            raise ValueError("combined_threshold must be finite and non-negative")

    @classmethod
    def permissive(cls) -> "FilterConfig":
        """Length cap and merging only; no probability gates."""
        return cls(per_prompt_threshold=0.0, combined_threshold=0.0)


def _merge_substrings(
    candidates: list[CandidateAntecedent],
) -> list[CandidateAntecedent]:
    """Fold each candidate into its host: the longest candidate containing
    it, ties broken by lexicographically smallest surface.

    A longer candidate holding the host would hold the candidate too, so the
    hosts are exactly the maximal surfaces (contained in no other candidate),
    and each comes out once. The merged candidate keeps the maximum combined
    probability of its members and the key-wise maximum of their positive
    per-prompt probabilities.
    """
    groups: dict[str, tuple[CandidateAntecedent, list[CandidateAntecedent]]] = {}
    for c in candidates:
        host = min((h for h in candidates if c.surface in h.surface),
                   key=lambda h: (-len(h.surface), h.surface))
        groups.setdefault(host.surface, (host, []))[1].append(c)
    merged: list[CandidateAntecedent] = []
    for host, members in groups.values():
        per_prompt: dict[int, float] = {}
        for member in members:
            for pid, p in member.per_prompt_prob.items():
                if p > per_prompt.get(pid, 0.0):
                    per_prompt[pid] = p
        merged.append(
            CandidateAntecedent(
                surface=host.surface,
                first_token=host.first_token,
                combined_prob=max(m.combined_prob for m in members),
                per_prompt_prob=per_prompt,
            )
        )
    return merged


def filter_and_merge(
    candidates: Sequence[CandidateAntecedent],
    config: FilterConfig,
    tokenizer: Tokenizer,
) -> list[CandidateAntecedent]:
    """Apply the postfilter stages in order; idempotent by construction.

    Thresholds keep candidates at or above the floor. Output is ranked by
    combined probability, ties by surface.
    """
    kept = [
        c
        for c in candidates
        if tokenizer.count(c.surface) <= config.max_antecedent_tokens
    ]
    if config.merge_substrings and kept:
        kept = _merge_substrings(kept)
    if config.per_prompt_threshold > 0.0:
        kept = [
            c for c in kept if c.max_per_prompt() >= config.per_prompt_threshold
        ]
    if config.combined_threshold > 0.0:
        kept = [c for c in kept if c.combined_prob >= config.combined_threshold]
    return rank_candidates(kept)
