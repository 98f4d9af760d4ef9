"""End-to-end resolution: embed, build prompts, query, combine, filter, score.

The pipeline owns run manifests: JSONL files carrying the configuration,
every prompt id, gating weight, generation, candidate, and final set, so
any run can be replayed and re-scored without touching a backend.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain, islice, pairwise
from pathlib import Path
from typing import Callable, Generator, Iterable, Mapping, Optional, Sequence

import numpy as np

from .combine import (
    CandidateAntecedent,
    PromptPrediction,
    combine_kate_plus,  # not called; bench/tracing.py hooks it until ROADMAP direction 2
    combine_mice,
    combine_mice_sample,
    combine_product,
    combine_single,
    extract_prediction,
    kate_plus_requests,
)
from .corpus import CorpusError, Dataset, Example, KShotSample, from_json, read_json, to_json
from .gateway import (
    WORDS,
    Backend,
    BackendError,
    DecodeMode,
    DecodeParams,
    Generation,
    RequestPool,
    Tokenizer,
    complete_many,
)
from .gating import Embedder, GatingDistribution, HashingEmbedder, gate, row_norms, similarities
from .metrics import ScoreReport, micro_f1
from .postfilter import FilterConfig, filter_and_merge
from .prompts import (
    PromptBudgetError,
    PromptSetConfig,
    Template,
    enumerate_prompts,
    select_kate_prompt,
    universe_size,
)

logger = logging.getLogger(__name__)

MANIFEST_SCHEMA = "mice-manifest/2"
_SCHEMA_V1 = "mice-manifest/1"

# The streamed loop plans this many examples back to back, one group ahead.
_PLAN_AHEAD = 8


class Combiner(str, Enum):
    MICE = "mice"
    MICE_S = "mice-s"
    KATE = "kate"
    KATE_PLUS = "kate-plus"
    PRODUCT = "product"


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run besides the data and the backend."""

    combiner: Combiner = Combiner.MICE_S
    prompt: PromptSetConfig = PromptSetConfig()
    template: Template = Template()
    decode: DecodeParams = DecodeParams.greedy()
    filters: FilterConfig = FilterConfig()
    gate_combine: str = "sum"
    parallelism: int = 8
    kate_plus_samples: int = 256
    embed_dim: int = 1024

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ValueError("parallelism must be positive")
        if self.kate_plus_samples < 1:
            raise ValueError("kate_plus_samples must be positive")
        if self.gate_combine not in ("sum", "product"):
            raise ValueError(f"unknown gate_combine: {self.gate_combine!r}")
        if self.combiner is Combiner.KATE_PLUS and self.decode.mode is not DecodeMode.NUCLEUS:
            raise ValueError("kate-plus requires nucleus decoding")


@dataclass(frozen=True)
class ResolutionResult:
    """One test input's full trace through the pipeline."""

    key: str
    gold: Optional[tuple[str, ...]]
    prompt_ids: tuple[int, ...]
    gating: Optional[GatingDistribution]
    generations: tuple[Generation, ...]
    candidates: tuple[CandidateAntecedent, ...]
    final: tuple[CandidateAntecedent, ...]
    request_count: int
    error: Optional[str] = None

    @property
    def predicted_surfaces(self) -> list[str]:
        return [c.surface for c in self.final]


@dataclass(frozen=True)
class SplitResult:
    """Outcome of resolving one split: traces, predictions, optional scores."""

    results: tuple[ResolutionResult, ...]
    report: Optional[ScoreReport]
    request_count: int
    # Examples that failed on a BackendError; not part of the manifest.
    backend_failures: int = 0

    @property
    def predictions(self) -> dict[str, list[str]]:
        return {r.key: r.predicted_surfaces for r in self.results}


class Resolver:
    """Binds a k-shot sample, a backend, and a configuration.

    Demonstration embeddings are computed once at construction; each test
    input then costs one embedding call plus the prompt completions.
    """

    def __init__(
        self,
        config: RunConfig,
        sample: KShotSample,
        backend: Backend,
        embedder: Optional[Embedder] = None,
        tokenizer: Optional[Tokenizer] = None,
    ):
        self.config = config
        self.sample = sample
        self.backend = backend
        self.tokenizer = tokenizer or WORDS
        self.embedder = embedder or HashingEmbedder(config.embed_dim)
        template = config.template
        template.validate_against(sample)
        # The product rule multiplies one-demonstration experts, one per sampled demo.
        self._prompt_config = (
            replace(config.prompt, demos_per_prompt=1, max_prompts=sample.k)
            if config.combiner is Combiner.PRODUCT else config.prompt
        )
        # kate and kate-plus pick d distinct demos; the rest enumerate tuples.
        d = self._prompt_config.demos_per_prompt
        picks = config.combiner in (Combiner.KATE, Combiner.KATE_PLUS)
        if (d > sample.k) if picks else (universe_size(sample.k, d) == 0):
            raise ValueError(
                f"no prompt of {d} distinct demonstrations can be drawn from k={sample.k}"
            )
        # Demos embed in their rendered answer-free form so they look like
        # the test input they are compared against.
        self._demo_vectors = self.embedder.embed(
            [template.render_example(ex, include_answer=False) for ex in sample]
        )
        self._demo_norms = row_norms(self._demo_vectors)

    def _similarities(self, test: Example) -> np.ndarray:
        test_vector = self.embedder.embed(
            [self.config.template.render_example(test, include_answer=False)]
        )[0]
        if test_vector.shape != self._demo_vectors.shape[1:]:
            raise BackendError(
                f"embedding of {test.key} has shape {test_vector.shape}, "
                f"the demonstrations' {self._demo_vectors.shape[1:]}"
            )
        sims = similarities(test_vector, self._demo_vectors, self._demo_norms)
        bad = np.flatnonzero(~np.isfinite(sims))
        if bad.size:
            i = bad[0]
            raise BackendError(f"similarity of {test.key} to demonstration {i} is {sims[i]}")
        return sims

    def resolve_one(self, test: Example) -> ResolutionResult:
        """Build the prompts and gate for one test input, query, and finish."""
        requests, finish = self._plan(test)
        return finish(complete_many(self.backend, requests, self.config.parallelism))

    def resolve_split(self, split: Dataset) -> SplitResult:
        """Resolve every example; failures degrade to empty predictions."""
        results: list[ResolutionResult] = []
        backend_failures = 0
        for result, example in zip(self.iter_results(split), split, strict=True):
            if isinstance(result, Exception):
                logger.warning("resolution failed for %s: %s", example.key, result)
                backend_failures += isinstance(result, BackendError)
                result = _failed(example.key, _gold(example), str(result))
            results.append(result)
        return replace(_assemble_split_result(results), backend_failures=backend_failures)

    def iter_results(
        self, examples: Iterable[Example]
    ) -> Generator[ResolutionResult | Exception, None, None]:
        """Yield each example's result, or the ``PromptBudgetError`` or
        ``BackendError`` that failed it, in order. Examples are planned and
        their requests queued in one shared pool in groups of ``_PLAN_AHEAD``,
        and group g+1 is started before any example of group g is finished.
        Closing the loop early cancels the requests that have not started.
        """
        with RequestPool(self.backend, self.config.parallelism) as pool:

            def start(example: Example) -> Callable[[], ResolutionResult] | Exception:
                try:
                    requests, finish = self._plan(example)
                except (PromptBudgetError, BackendError) as exc:
                    return exc
                wait = pool.submit(requests)
                return lambda: finish(wait())

            rest = iter(examples)
            groups = iter(lambda: [start(example) for example in islice(rest, _PLAN_AHEAD)], [])
            # pairwise starts group g+1 before it hands out group g.
            for group, _ in pairwise(chain(groups, [None])):
                for started in group:
                    try:
                        outcome = started if isinstance(started, Exception) else started()
                    except (PromptBudgetError, BackendError) as exc:
                        outcome = exc
                    yield outcome

    def _plan(self, test: Example) -> tuple[
        list[tuple[str, DecodeParams]], Callable[[Sequence[Generation]], ResolutionResult]
    ]:
        """Embed, build the prompts and gate for one test input; send nothing.

        Returns the example's ``(prompt, params)`` requests and the finish
        step, which takes their generations by position, hands each prompt
        its request's generation and runs ``_finish``. Each position is a
        prompt's text under ``config.decode``, or for kate-plus one seeded
        draw of its one KATE prompt; positions with the same text and seed
        share one request, except unseeded nucleus draws, which are
        independent.
        """
        config = self.config
        combiner = config.combiner
        sims = self._similarities(test)
        if combiner in (Combiner.KATE, Combiner.KATE_PLUS):
            prompts = [
                select_kate_prompt(
                    self.sample, test, config.prompt, sims, config.template, self.tokenizer
                )
            ]
        else:
            prompts = enumerate_prompts(
                self.sample, test, self._prompt_config, sims, config.template, self.tokenizer
            )
        gating: Optional[GatingDistribution] = None
        if combiner is Combiner.KATE_PLUS:
            positions = kate_plus_requests(prompts[0].text, config.decode, config.kate_plus_samples)
            prompt_ids = tuple(range(len(positions)))
            gating = GatingDistribution.uniform(prompt_ids)
        else:
            positions = [(p.text, config.decode) for p in prompts]
            prompt_ids = tuple(p.prompt_id for p in prompts)
            if combiner is Combiner.KATE:
                gating = GatingDistribution.single(prompt_ids[0])
            elif combiner is not Combiner.PRODUCT:
                gating = gate(prompts, sims, config.gate_combine)
        unseeded = config.decode.mode is DecodeMode.NUCLEUS and config.decode.seed is None
        index: dict[tuple[str, Optional[int], Optional[int]], int] = {}  # request key -> slot
        requests: list[tuple[str, DecodeParams]] = []
        slots = []
        for i, (text, params) in enumerate(positions):
            slot = index.setdefault((text, params.seed, i if unseeded else None), len(requests))
            if slot == len(requests):
                requests.append((text, params))
            slots.append(slot)
        return requests, lambda generations: _finish(
            test.key, _gold(test), prompt_ids, gating, [generations[s] for s in slots],
            config, self.tokenizer,
        )


def _gold(example: Example) -> Optional[tuple[str, ...]]:
    return tuple(example.gold_surfaces()) if example.is_labeled else None


def _finish(
    key: str,
    gold: Optional[tuple[str, ...]],
    prompt_ids: Sequence[int],
    gating: Optional[GatingDistribution],
    generations: Sequence[Generation],
    config: RunConfig,
    tokenizer: Tokenizer,
) -> ResolutionResult:
    """Extract, combine and filter one example's generations.

    Resolution and replay both end here, so a replayed manifest goes
    through the very code that produced it. Positions that share one
    ``Generation`` object share its extraction, each under its own prompt id.
    Generation tokens come from the wire, so each candidate's first token is
    split with ``WORDS``; ``tokenizer`` counts only for the postfilter.
    """
    extracted: dict[int, PromptPrediction] = {}
    predictions = []
    for pid, gen in zip(prompt_ids, generations, strict=True):
        if id(gen) not in extracted:
            extracted[id(gen)] = extract_prediction(gen, config.template, WORDS, prompt_id=pid)
        p = extracted[id(gen)]
        predictions.append(p if p.prompt_id == pid else replace(p, prompt_id=pid))
    combiner = config.combiner
    if combiner is Combiner.MICE:
        candidates = combine_mice(predictions, gating, WORDS)
    elif combiner in (Combiner.MICE_S, Combiner.KATE_PLUS):
        candidates = combine_mice_sample(predictions, gating, WORDS)
    elif combiner is Combiner.KATE:
        candidates = combine_single(predictions[0], WORDS)
    else:
        candidates = combine_product(predictions, WORDS)
    final = filter_and_merge(candidates, config.filters, tokenizer)
    return ResolutionResult(
        key=key,
        gold=gold,
        prompt_ids=tuple(prompt_ids),
        gating=gating,
        generations=tuple(generations),
        candidates=tuple(candidates),
        final=tuple(final),
        request_count=len(generations),
    )


def _failed(key: str, gold: Optional[tuple[str, ...]], error: Optional[str]) -> ResolutionResult:
    """An example without generations, hence without candidates."""
    return ResolutionResult(key, gold, (), None, (), (), (), 0, error)


def _assemble_split_result(results: Sequence[ResolutionResult]) -> SplitResult:
    report: Optional[ScoreReport] = None
    if results and all(r.gold is not None for r in results):
        report = micro_f1(
            {r.key: r.predicted_surfaces for r in results},
            {r.key: list(r.gold or ()) for r in results},
        )
    return SplitResult(
        results=tuple(results),
        report=report,
        request_count=sum(r.request_count for r in results),
    )


@dataclass(frozen=True)
class _Header:
    """A manifest's header line: the run's split, k-shot sample and configuration."""

    record: str
    schema: str
    split: str
    k: int
    sample_seed: int
    config: RunConfig


@dataclass(frozen=True)
class _Entry:
    """A manifest line per test input: its ``ResolutionResult``, the gating as its weights.
    Generations, candidates and finals stay JSON; replay decodes what it reads itself."""

    record: str
    key: str
    gold: Optional[tuple[str, ...]]
    prompt_ids: tuple[int, ...]
    gating: Optional[Mapping[int, float]]
    generations: tuple
    candidates: tuple
    final: tuple
    request_count: int
    error: Optional[str]


# A manifest payload is built fresh by ``to_json``, so it holds no cycle to check for.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                          check_circular=False).encode


def write_manifest(
    split_result: SplitResult,
    config: RunConfig,
    sample: KShotSample,
    path: str | Path,
    split_name: str = "",
) -> None:
    """Serialize a run to JSONL: header, one entry per test input, summary.

    Output bytes depend only on the inputs, so identical runs produce
    identical files; timing is deliberately not serialized.
    """
    header = _Header("header", MANIFEST_SCHEMA, split_name, sample.k, sample.seed, config)
    lines = [_dumps(to_json(header))]
    for r in split_result.results:
        entry = _Entry(record="entry", **{**vars(r), "gating": r.gating and r.gating.weights})
        lines.append(_dumps(to_json(entry)))
    summary: dict = {"record": "summary", "request_count": split_result.request_count}
    if split_result.report is not None:
        summary["report"] = to_json(split_result.report, omit=("per_example",))
    lines.append(_dumps(summary))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def replay_manifest(path: str | Path) -> tuple[SplitResult, RunConfig]:
    """Recompute every final prediction from a manifest, no backend calls.

    The file is read in one pass, line by line. Header and entry lines
    decode as ``_Header`` and ``_Entry``, each field required; the summary
    is not read, and a line of any other ``record`` kind is refused. Each
    entry's extraction, combination, and filtering run again at once, under
    the configuration of the nearest header above it, so a malformed line
    fails naming its line. The returned result carries freshly computed
    candidates and finals plus a recomputed score report; the configuration
    is the last header's.
    """
    configs: list[RunConfig] = []

    def replay(line: dict) -> Optional[ResolutionResult]:
        kind = line["record"]
        if kind == "header":
            configs.append(_decode_header(line))
        elif kind == "entry":
            if not configs:
                raise ValueError("no header before this entry")
            return _replay_entry(line, configs[-1])
        elif kind != "summary":
            raise ValueError(f"unknown record kind {kind!r:.80}")
        return None

    results = [r for r in read_json(path, "manifest", replay, lines=True) if r is not None]
    if not configs:
        raise CorpusError(f"manifest {path} has no header")
    return _assemble_split_result(results), configs[-1]


def _decode_header(line: dict) -> RunConfig:
    schema = line["schema"]
    if schema not in (MANIFEST_SCHEMA, _SCHEMA_V1):
        raise ValueError(f"unsupported manifest schema: {schema!r}")
    if schema == _SCHEMA_V1:  # predates config.template; such runs used the default
        config = from_json(dict, line["config"])
        line = {**line, "config": {**config, "template": to_json(RunConfig.template)}}
    return from_json(_Header, line).config


def _replay_entry(line: dict, config: RunConfig) -> ResolutionResult:
    """An entry finished again from its stored generations; the positions that
    stored equal generations share one, so ``_finish`` extracts it once."""
    entry = from_json(_Entry, line)
    stored, prompt_ids, weights = entry.generations, entry.prompt_ids, entry.gating
    distinct: list = []
    for generation in stored:
        if generation not in distinct:
            distinct.append(generation)
    decoded = from_json(tuple[Generation, ...], distinct)
    if entry.error or not stored:
        return _failed(entry.key, entry.gold, entry.error)
    if len(prompt_ids) != len(stored):
        raise ValueError(f"{len(prompt_ids)} prompt ids for {len(stored)} generations")
    if (weights is None) != (config.combiner is Combiner.PRODUCT):
        raise ValueError(f"gating {'null' if weights is None else 'weights'} "
                         f"under combiner {config.combiner.value}")
    gating = None if weights is None else GatingDistribution(weights)
    if weights and (unweighted := [pid for pid in prompt_ids if pid not in weights]):
        raise ValueError(f"gating has no weight for prompt id {unweighted[0]}")
    return _finish(
        entry.key, entry.gold, prompt_ids, gating,
        [decoded[distinct.index(generation)] for generation in stored], config, WORDS,
    )
