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

from dataclasses import dataclass, fields
from enum import Enum
from functools import reduce
from itertools import permutations
from operator import add
from typing import Sequence

import numpy as np

from .corpus import Example, KShotSample, seeded_prefix
from .gateway import Tokenizer

# Top-gated selection ranks universes up to this size; seeded-random
# selection works at any size.
_RANKING_CAP = 1_000_000
# Smaller universes rank whole faster than the pruned ranking sets up.
_PRUNE_FROM = 10_000


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
    """The question-answering surface form shared by demonstrations and queries."""

    question_pattern: str = "Question: What does {anaphor} contain?"
    answer_prefix: str = "Answer:"
    separator: str = "|"
    demonstration_joiner: str = "\n\n"

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, str):
                raise ValueError(
                    f"template field {f.name} must be a string, not {type(value).__name__}"
                )
        try:
            self.question_pattern.format(anaphor="the mixture")
        except (AttributeError, IndexError, KeyError, ValueError) as exc:
            raise ValueError(
                f"question_pattern {self.question_pattern!r} must format with "
                f"{{anaphor}} alone: {exc!r}"
            ) from exc

    def question(self, example: Example) -> str:
        return self.question_pattern.format(anaphor=example.anaphor.surface)

    def linearize(self, surfaces: Sequence[str]) -> str:
        """Join antecedent surfaces into one answer line."""
        return f" {self.separator} ".join(surfaces)

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
                    raise ValueError(
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
    """Size of the demonstration-tuple universe.

    One or two demos per prompt use ordered tuples with replacement (k and
    k*k), matching the quadratic 256-cap arithmetic; three or more use
    ordered tuples of distinct demos (falling factorial).
    """
    if d <= 2:
        return k**d
    size = 1
    for i in range(d):
        size *= k - i
    return size


def tuple_from_universe_index(u: int, k: int, d: int) -> tuple[int, ...]:
    """Decode a universe index into its demo-index tuple (lexicographic)."""
    if d <= 2:
        digits = []
        for _ in range(d):
            digits.append(u % k)
            u //= k
        return tuple(reversed(digits))
    available = list(range(k))
    out: list[int] = []
    block = universe_size(k, d)
    for pos in range(d):
        block //= k - pos
        idx, u = divmod(u, block)
        out.append(available.pop(idx))
    return tuple(out)


def universe_index_from_tuple(demo_indices: Sequence[int], k: int) -> int:
    """Inverse of tuple_from_universe_index."""
    d = len(demo_indices)
    if d <= 2:
        u = 0
        for i in demo_indices:
            u = u * k + i
        return u
    available = list(range(k))
    u = 0
    for pos, value in enumerate(demo_indices):
        idx = available.index(value)
        u = u * (k - pos) + idx
        available.pop(idx)
    return u


def order_demonstrations(
    demo_indices: Sequence[int],
    similarities: Sequence[float],
    ordering: Ordering,
    seed: int,
    universe_index: int,
) -> tuple[int, ...]:
    """Arrange one prompt's demos; the mixed order is seeded per prompt."""
    d = len(demo_indices)
    if ordering is Ordering.ASCEND:
        positions = sorted(range(d), key=lambda p: (similarities[demo_indices[p]], p))
    elif ordering is Ordering.DESCEND:
        positions = sorted(range(d), key=lambda p: (-similarities[demo_indices[p]], p))
    else:
        positions = seeded_prefix(d, d, [seed, universe_index])
    return tuple(demo_indices[p] for p in positions)


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
    """The mixed radix of universe indices: each digit picks one of the demos
    that the positions before it leave free."""
    return tuple(k - pos for pos in range(d)) if d > 2 else (k,) * d


def _decode(us: np.ndarray, k: int, d: int) -> np.ndarray:
    """``tuple_from_universe_index`` of each index: one row of demo indices per index."""
    rows = np.array(np.unravel_index(us, _radices(k, d))).T
    if d > 2:  # right to left, each pick moves the later picks at or above it up one
        for pos in range(d - 2, -1, -1):
            tail = rows[:, pos + 1:]
            tail += tail >= rows[:, pos, None]
    return rows


def _encode(rows: np.ndarray, k: int) -> np.ndarray:
    """``universe_index_from_tuple`` of each row: ``_decode`` undone."""
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

    From ``_PRUNE_FROM`` tuples on, top-gated selection ranks only the
    tuples of the m most similar demos: m starts at twice the smallest count
    whose tuples can fill the selection and doubles until no tuple holding
    another demo can reach the n-th best score. Below that size, or at
    m = k, it ranks the whole universe.
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
    m = next(size for size in range(1, k + 1) if universe_size(size, d) >= n)
    m = 2 * m if total >= _PRUNE_FROM and np.isfinite(sims).all() else k
    while True:
        m = min(m, k)
        demos = np.sort(ranked[:m])  # ascending, so local tuples keep universe order
        key = np.negative(_top_gated_scores(m, d, sims[demos]))
        nth = np.partition(key, n - 1)[n - 1]
        if m == k or _outside_bound(sims[ranked], m, d) < -nth:
            break
        m *= 2
    # Stable-sort only the tuples at or above the n-th best score: ties go to
    # the lower universe index, and NaN keys, never `> nth`, rank last.
    contenders = np.flatnonzero(~(key > nth))
    best = contenders[np.argsort(key[contenders], kind="stable")[:n]]
    if m < k:  # local tuple indices to universe indices
        best = _encode(demos[_decode(best, m, d)], k)
    return sorted(best.tolist())


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
                prompt_id=prompt_id,
                universe_index=universe_index,
                demo_indices=tuple(current),
                text=text,
                token_count=count,
                dropped_demo_indices=tuple(dropped),
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
    if len(similarities) != k:
        raise ValueError(f"{len(similarities)} similarities for k={k}")
    selected = _select_universe_indices(k, config, similarities)
    rows = _decode(np.array(selected, dtype=np.int64), k, config.demos_per_prompt)
    sims = np.asarray(similarities, dtype=float)
    if config.ordering is Ordering.MIXED or np.isnan(sims).any():
        orders = [
            order_demonstrations(row, similarities, config.ordering, config.seed, u)
            for row, u in zip(rows.tolist(), selected)
        ]
    else:
        # A stable sort keeps tied demos in tuple order, as order_demonstrations does.
        gated = sims[rows] if config.ordering is Ordering.ASCEND else -sims[rows]
        rows = rows[np.arange(len(rows))[:, None], np.argsort(gated, axis=1, kind="stable")]
        orders = list(map(tuple, rows.tolist()))
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
    k = sample.k
    if len(similarities) != k:
        raise ValueError(f"{len(similarities)} similarities for k={k}")
    ranked = sorted(range(k), key=lambda i: (-similarities[i], i))
    demo_tuple = tuple(sorted(ranked[: config.demos_per_prompt]))
    u = universe_index_from_tuple(demo_tuple, k)
    ordered = order_demonstrations(demo_tuple, similarities, config.ordering, config.seed, u)
    return _build_prompt(0, u, ordered, sample, test, config, similarities, template, tokenizer)
