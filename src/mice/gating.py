"""Similarity gating: embeddings, cosine scores, and per-prompt weights.

Each prompt is scored by how similar its demonstrations are to the test
passage; a softmax over those scores yields the mixture weight of each
prompt. Embedding is pluggable: a deterministic feature-hashing embedder
ships here, and ``mice.gateway.RemoteEmbedder`` covers real encoders. This
module does no I/O.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from .prompts import Prompt

_WORD_RE = re.compile(r"[a-z0-9]+")


class Embedder(Protocol):
    def embed(self, texts: Sequence[str]) -> np.ndarray: ...


class HashingEmbedder:
    """Deterministic bag-of-words embedding via feature hashing.

    Lowercased alphanumeric tokens are hashed (blake2b) into fixed buckets;
    vectors are L2-normalized. Bucket 0 is reserved for empty texts so they
    embed to a fixed unit vector instead of zero. No model weights, fully
    reproducible across platforms.

    Each instance remembers the bucket of every distinct token it has
    hashed, so a token is digested once per embedder however often it
    recurs. The memo holds one entry per distinct token seen and is never
    shared: a fresh embedder starts empty.
    """

    def __init__(self, dim: int = 1024):
        if dim < 2:
            raise ValueError("dim must be at least 2")
        self.dim = dim
        self._buckets: dict[str, int] = {}

    def _bucket(self, token: str) -> int:
        """``token``'s bucket, digested and remembered the first time it is met."""
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        bucket = self._buckets[token] = 1 + int.from_bytes(digest, "big") % (self.dim - 1)
        return bucket

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        buckets = self._buckets
        for row, text in enumerate(texts):
            tokens = _WORD_RE.findall(text.lower())
            if not tokens:
                out[row, 0] = 1.0
                continue
            # Buckets start at 1, so a remembered one is never falsy.
            out[row] = np.bincount([buckets.get(tok) or self._bucket(tok) for tok in tokens],
                                   minlength=self.dim)
            out[row] /= np.linalg.norm(out[row])
        return out


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; zero vectors score 0 against anything."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def row_norms(vectors: np.ndarray) -> list[float]:
    """Each row's norm, as ``cosine`` computes it."""
    return [float(np.linalg.norm(row)) for row in vectors]


def similarities(test_vector: np.ndarray, demo_vectors: np.ndarray,
                 demo_norms: Sequence[float]) -> np.ndarray:
    """Each demo's ``cosine`` with the test passage, bit for bit, given their ``row_norms``."""
    if demo_vectors.shape[1:] != test_vector.shape:
        raise ValueError(f"dimension mismatch: {test_vector.shape} vs {demo_vectors.shape[1:]}")
    nt = float(np.linalg.norm(test_vector))
    return np.array([float(np.dot(test_vector, row) / (nt * nd)) if nt and nd else 0.0
                     for row, nd in zip(demo_vectors, demo_norms, strict=True)])


@dataclass(frozen=True)
class GatingDistribution:
    """Normalized mixture weights keyed by prompt id."""

    weights: Mapping[int, float]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("gating distribution must cover at least one prompt")
        total = sum(self.weights.values())
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"gating weights sum to {total}, expected 1")
        for pid, w in self.weights.items():
            if not w >= 0.0:
                raise ValueError(f"negative weight for prompt {pid}")

    def __getitem__(self, prompt_id: int) -> float:
        return self.weights[prompt_id]

    @classmethod
    def uniform(cls, prompt_ids: Sequence[int]) -> "GatingDistribution":
        return cls(weights={pid: 1.0 / len(prompt_ids) for pid in prompt_ids})

    @classmethod
    def single(cls, prompt_id: int) -> "GatingDistribution":
        return cls(weights={prompt_id: 1.0})


def gate(
    prompts: Sequence[Prompt],
    demo_similarities: Sequence[float],
    combine: str = "sum",
) -> GatingDistribution:
    """Softmax mixture weights from summed demonstration similarities.

    Each prompt's score is the sum (or product, when ``combine`` is
    "product") of the cosine similarities of the demonstrations it actually
    contains after trimming; a prompt with no demonstrations scores 0. The
    softmax subtracts the max score, so a single prompt gets weight
    exactly 1.0 and weights always sum to 1 up to float rounding.
    """
    if not prompts:
        raise ValueError("cannot gate an empty prompt set")
    if combine not in ("sum", "product"):
        raise ValueError(f"unknown combine rule: {combine!r}")
    scores = np.zeros(len(prompts), dtype=np.float64)
    for row, prompt in enumerate(prompts):
        sims = [demo_similarities[i] for i in prompt.demo_indices]
        if not sims:
            scores[row] = 0.0
        elif combine == "sum":
            scores[row] = float(sum(sims))
        else:
            scores[row] = float(np.prod(sims))
    scores -= scores.max()
    exp = np.exp(scores)
    exp /= exp.sum()
    return GatingDistribution(
        weights={p.prompt_id: float(exp[row]) for row, p in enumerate(prompts)}
    )
