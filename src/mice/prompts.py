"""Prompt construction: templates, demonstration tuples, ordering, budgets.

Each prompt stacks a handful of worked demonstrations above the test
passage in a question-answering layout:

    <demo text>
    Question: What does <anaphor> contain?
    Answer: <antecedent> | <antecedent> | ...

    <test text>
    Question: What does <anaphor> contain?
    Answer:

A prompt set enumerates demonstration tuples from a k-shot sample (ordered,
with replacement), selects up to a cap of them, orders the demonstrations
inside each prompt, and trims prompts that exceed the model's context
budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import permutations
from operator import add
from typing import Sequence

import numpy as np

from .corpus import DECODE_ERRORS, CorpusError, Example, KShotSample, seeded_prefix
from .gateway import WORDS, Tokenizer

# Top-gated selection ranks universes up to this size; seeded-random
# selection works at any size.
_RANKING_CAP = 1_000_000


class PromptBudgetError(ValueError):
    """A test passage cannot fit the context window even with no demonstrations."""


class Ordering(str, Enum):
    """How demonstrations are arranged inside one prompt."""

    ASCEND = "ascend"    # least similar first, most similar adjacent to the test input
    DESCEND = "descend"  # most similar first
    MIXED = "mixed"      # per-prompt seeded shuffle


class Selection(str, Enum):
    """How the prompt subset is chosen from the demonstration universe."""

    TOP_GATED = "top-gated"        # highest summed similarity first
    SEEDED_RANDOM = "seeded-random"  # uniform without replacement


@dataclass(frozen=True)
class Template:
    """The question-answering surface form shared by demonstrations and queries.

    It alone writes, splits, walks and checks the answer line, whose slot
    walk aligns on a separator of one ``WordTokenizer`` token.
    """

    question_pattern: str = "Question: What does {anaphor} contain?"
    answer_prefix: str = "Answer:"
    separator: str = "|"
    demonstration_joiner: str = "\n\n"

    def __post_init__(self) -> None:
        try:
            self.question_pattern.format(anaphor="the mixture")
        except DECODE_ERRORS as exc:
            raise ValueError(f"question_pattern {self.question_pattern!r} must format with "
                             f"{{anaphor}} alone: {exc!r}") from exc
        if WORDS.tokenize(self.separator) != [self.separator]:
            raise ValueError(f"separator {self.separator!r} is not a single token")

    def question(self, example: Example) -> str:
        return self.question_pattern.format(anaphor=example.anaphor.surface)

    def linearize(self, surfaces: Sequence[str]) -> str:
        """Join antecedent surfaces into one answer line."""
        return f" {self.separator} ".join(surfaces)

    def segments(self, answer: str) -> list[str]:
        """The stripped pieces between separators on the first line, empty ones kept."""
        return [piece.strip() for piece in answer.split("\n", 1)[0].split(self.separator)]

    def slot_starts(self, tokens: Sequence[str]) -> list[int]:
        """Positions of the tokens that open an answer slot on the first line.

        The first token, and the first token after each separator token, opens
        a slot; the walk stops at the first token that contains a newline.
        """
        starts: list[int] = []
        expecting = True
        for i, token in enumerate(tokens):
            if "\n" in token:
                break
            if token.strip() == self.separator:
                expecting = True
            elif expecting:
                starts.append(i)
                expecting = False
        return starts

    def render_example(self, example: Example, include_answer: bool) -> str:
        body = f"{example.text}\n{self.question(example)}\n{self.answer_prefix}"
        if include_answer:
            body += " " + self.linearize(example.gold_surfaces())
        return body

    def render_prompt(self, demonstrations: Sequence[Example], test: Example) -> str:
        parts = [self.render_example(d, include_answer=True) for d in demonstrations]
        parts.append(self.render_example(test, include_answer=False))
        return self.demonstration_joiner.join(parts)

    def validate_against(self, sample: KShotSample) -> None:
        """Reject samples whose gold surfaces would collide with the separator."""
        for ex in sample:
            for surface in ex.gold_surfaces():
                if self.separator in surface:
                    raise CorpusError(
                        f"antecedent {surface!r} in {ex.key} contains the "
                        f"separator {self.separator!r}"
                    )


@dataclass(frozen=True)
class PromptSetConfig:
    """Knobs for building one prompt set."""

    demos_per_prompt: int = 2
    max_prompts: int = 256
    ordering: Ordering = Ordering.ASCEND
    selection: Selection = Selection.TOP_GATED
    seed: int = 0
    max_sequence_length: int = 2048
    generation_reserve: int = 256

    def __post_init__(self) -> None:
        if self.demos_per_prompt < 1:
            raise ValueError("demos_per_prompt must be positive")
        if self.max_prompts < 1:
            raise ValueError("max_prompts must be positive")
        if self.generation_reserve < 0:
            raise ValueError("generation_reserve must be non-negative")
        if self.max_sequence_length <= self.generation_reserve:
            raise ValueError("max_sequence_length must exceed generation_reserve")

    @property
    def input_budget(self) -> int:
        """Tokens available for the prompt after reserving generation room."""
        return self.max_sequence_length - self.generation_reserve


@dataclass(frozen=True)
class Prompt:
    """One rendered prompt: which demos it uses, in order, and its text."""

    prompt_id: int
    universe_index: int
    demo_indices: tuple[int, ...]
    text: str
    token_count: int
    dropped_demo_indices: tuple[int, ...] = ()


def universe_size(k: int, d: int) -> int:
    """Size of the demonstration-tuple universe; past two demos, 0 when d > k."""
    return math.prod(_radices(k, d))


def _top_gated_scores(k: int, d: int, similarities: Sequence[float]) -> np.ndarray:
    """Each tuple's similarities summed left to right, as sum() does, in universe order.

    Past two demos, extensions that repeat a demo of their prefix are
    dropped level by level, so no step holds k**d scores.
    """
    sims = np.asarray(similarities, dtype=float)
    score = 0.0 + sims
    eye = np.eye(k, dtype=bool)
    free = ~eye  # free[r, j]: prefix r lacks demo j
    for level in range(1, d):
        score = np.add.outer(score, sims)
        score = score.ravel() if d <= 2 else score[free]
        if level + 1 < d:
            # Prefix r grows by each of its k - level free demos, in order.
            free = np.repeat(free, k - level, axis=0) & ~eye[np.nonzero(free)[1]]
    return score


def _radices(k: int, d: int) -> tuple[int, ...]:
    """The mixed radix of universe indices. Up to two demos per prompt, each
    digit picks any of the k demos (tuples with replacement, matching the
    quadratic 256-cap arithmetic); past two, one of the demos that the
    positions before it leave free."""
    return tuple(k - pos for pos in range(d)) if d > 2 else (k,) * d


def _decode(us: np.ndarray, k: int, d: int) -> np.ndarray:
    """Each universe index's demo tuple, one row per index (universe order is lexicographic)."""
    rows = np.array(np.unravel_index(us, _radices(k, d))).T
    if d > 2:  # right to left, each pick moves the later picks at or above it up one
        for pos in range(d - 2, -1, -1):
            tail = rows[:, pos + 1:]
            tail += tail >= rows[:, pos, None]
    return rows


def _encode(rows: np.ndarray, k: int) -> np.ndarray:
    """Each row's universe index: ``_decode`` undone."""
    d = rows.shape[1]
    if d > 2:
        rows = rows.copy()
        for pos in range(d - 1):
            tail = rows[:, pos + 1:]
            tail -= tail > rows[:, pos, None]
    return np.ravel_multi_index(tuple(rows.T), _radices(k, d))


def _outside_bound(descending: np.ndarray, m: int, d: int) -> float:
    """The highest score of a tuple that holds a demo outside the m most similar.

    Sorted by similarity, such a tuple's similarities sit at or below the
    d - 1 highest (the highest each, when demos repeat) followed by the
    (m + 1)-th highest. Float addition is monotone, so that list, summed in
    the order the tuple holds it, bounds its score; the largest sum over
    every order bounds every such tuple.
    """
    heads = descending[: d - 1] if d > 2 else np.repeat(descending[:1], d - 1)
    return max(reduce(add, order, 0.0) for order in permutations([*heads, descending[m]]))


def _select_universe_indices(
    k: int, config: PromptSetConfig, similarities: Sequence[float]
) -> list[int]:
    """Pick which demo tuples become prompts, returned sorted ascending.

    Top-gated selection ranks only the tuples of the m most similar demos:
    m starts at twice the smallest count whose tuples can fill the selection
    and doubles until no tuple holding another demo can reach the n-th best
    score. At m = k it ranks the whole universe.
    """
    d = config.demos_per_prompt
    total = universe_size(k, d)
    n = min(config.max_prompts, total)
    top_gated = config.selection is Selection.TOP_GATED
    if top_gated and total > _RANKING_CAP:
        raise ValueError(
            f"universe of {total} tuples is too large to rank; "
            "use seeded-random selection"
        )
    if n == total:
        return list(range(total))
    if not top_gated:
        return sorted(seeded_prefix(total, n, [config.seed]))
    sims = np.asarray(similarities, dtype=float)
    ranked = np.argsort(-sims, kind="stable")
    m = 2 * next(size for size in range(1, k + 1) if universe_size(size, d) >= n)
    while True:
        m = min(m, k)
        demos = np.sort(ranked[:m])  # ascending, so local tuples keep universe order
        key = np.negative(_top_gated_scores(m, d, sims[demos]))
        nth = np.partition(key, n - 1)[n - 1]
        if m == k or _outside_bound(sims[ranked], m, d) < -nth:
            break
        m *= 2
    # Stable-sort only the tuples at or above the n-th best score, so ties go
    # to the lower universe index.
    contenders = np.flatnonzero(key <= nth)
    best = contenders[np.argsort(key[contenders], kind="stable")[:n]]
    if m < k:  # local tuple indices to universe indices
        best = _encode(demos[_decode(best, m, d)], k)
    return sorted(best.tolist())


def _finite_similarities(similarities: Sequence[float], k: int) -> np.ndarray:
    """The k similarities as an array; a NaN or an infinity cannot rank or order demos."""
    if len(similarities) != k:
        raise ValueError(f"{len(similarities)} similarities for k={k}")
    sims = np.asarray(similarities, dtype=float)
    bad = np.flatnonzero(~np.isfinite(sims))
    if bad.size:
        raise ValueError(f"similarity of demonstration {bad[0]} is {sims[bad[0]]}, not finite")
    return sims


def _order(
    rows: np.ndarray, us: np.ndarray, sims: np.ndarray, config: PromptSetConfig
) -> list[tuple[int, ...]]:
    """Arrange the demos of each selected tuple, one row per universe index.

    ascend puts the most similar demo next to the test input and descend
    puts it first, a stable sort keeping tied demos in tuple order; mixed
    permutes the row of universe index u by ``seeded_prefix(d, d, [seed, u])``.
    """
    d = rows.shape[1]
    if config.ordering is Ordering.MIXED:
        shuffles = [seeded_prefix(d, d, [config.seed, u]) for u in us.tolist()]
        positions = np.array(shuffles, dtype=np.intp).reshape(-1, d)
    else:
        gated = sims[rows] if config.ordering is Ordering.ASCEND else -sims[rows]
        positions = np.argsort(gated, axis=1, kind="stable")
    return list(map(tuple, np.take_along_axis(rows, positions, axis=1).tolist()))


def _build_prompt(
    prompt_id: int,
    universe_index: int,
    ordered: tuple[int, ...],
    sample: KShotSample,
    test: Example,
    config: PromptSetConfig,
    similarities: Sequence[float],
    template: Template,
    tokenizer: Tokenizer,
) -> Prompt:
    """Drop least-similar demos from an ordered tuple until it fits the budget."""
    current = list(ordered)
    dropped: list[int] = []
    while True:
        text = template.render_prompt([sample.examples[i] for i in current], test)
        count = tokenizer.count(text)
        if count <= config.input_budget:
            return Prompt(
                prompt_id, universe_index, tuple(current), text, count, tuple(dropped)
            )
        if not current:
            raise PromptBudgetError(
                f"test input for {test.key} needs {count} tokens; "
                f"budget is {config.input_budget}"
            )
        victim_pos = min(range(len(current)), key=lambda p: (similarities[current[p]], p))
        dropped.append(current.pop(victim_pos))


def enumerate_prompts(
    sample: KShotSample,
    test: Example,
    config: PromptSetConfig,
    similarities: Sequence[float],
    template: Template,
    tokenizer: Tokenizer,
) -> list[Prompt]:
    """Build the prompt set for one test example.

    Returns prompts with dense ids 0..n-1 assigned in universe order, so
    the same sample, config, and similarities always produce the same set.
    Tuples that order to the same demos share one rendered, counted and
    trimmed prompt; only their ids differ.
    """
    k = sample.k
    sims = _finite_similarities(similarities, k)
    selected = _select_universe_indices(k, config, sims)
    us = np.array(selected, dtype=np.int64)
    orders = _order(_decode(us, k, config.demos_per_prompt), us, sims, config)
    built: dict[tuple[int, ...], Prompt] = {}
    prompts = []
    for prompt_id, (u, ordered) in enumerate(zip(selected, orders)):
        b = built.get(ordered)
        if b is None:
            b = built[ordered] = _build_prompt(
                prompt_id, u, ordered, sample, test, config, similarities, template, tokenizer
            )
        prompts.append(
            Prompt(prompt_id, u, b.demo_indices, b.text, b.token_count, b.dropped_demo_indices)
        )
    return prompts


def select_kate_prompt(
    sample: KShotSample,
    test: Example,
    config: PromptSetConfig,
    similarities: Sequence[float],
    template: Template,
    tokenizer: Tokenizer,
) -> Prompt:
    """Build the single nearest-neighbors prompt: the top demos by similarity.

    The ``demos_per_prompt`` most similar demonstrations (ties broken by
    sample position) form one prompt, ordered and budget-trimmed the same
    way as enumerated prompts.
    """
    k, d = sample.k, config.demos_per_prompt
    sims = _finite_similarities(similarities, k)
    if d > k:
        raise ValueError(f"no prompt of {d} distinct demonstrations can be drawn from k={k}")
    rows = np.sort(np.argsort(-sims, kind="stable")[:d])[None]
    us = _encode(rows, k)
    (ordered,) = _order(rows, us, sims, config)
    return _build_prompt(
        0, int(us[0]), ordered, sample, test, config, similarities, template, tokenizer
    )
