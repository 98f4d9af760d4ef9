"""Span recording around the layers of mice's resolve path, from outside.

``instrument`` swaps the public functions ``mice.pipeline`` calls (and the
few that ``mice.combine`` calls internally) for timing wrappers, and puts
them back when it exits; nothing under ``src/`` changes. The backend,
tokenizer and embedder objects the benchmark hands to ``Resolver`` are
wrapped the same way. Spans stay in memory until the run ends.

A span names its layer before the dot (``prompts.render``). Its parent is
the innermost open span of the same thread; a span opened on a worker
thread with nothing open takes the innermost open span of the thread that
created the recorder, which is the fan-out that submitted it as long as
``resolve_split`` handles one example at a time.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import statistics
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    example: Optional[str]
    failed: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and counters; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.request_keys: set = set()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        """Name of this thread's innermost open span."""
        stack = self._stack()
        return stack[-1][2] if stack else None

    def add(self, **counts: int) -> None:
        with self._lock:
            self.counts.update(counts)

    def add_request(self, key) -> None:
        with self._lock:
            self.request_keys.add(key)

    @contextlib.contextmanager
    def span(self, name: str, example: Optional[str] = None) -> Iterator[None]:
        stack = self._stack()
        outer = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else None)
        parent_id, parent_example, _ = outer if outer else (None, None, None)
        span_id = next(self._ids)
        example = example if example is not None else parent_example
        stack.append((span_id, example, name))
        failed = True
        start = perf_counter()
        try:
            yield
            failed = False
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent_id, name, start, end, example, failed))

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_result: Optional[Callable] = None,
        example_of: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` inside a span; ``on_result(args, result)`` feeds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, example_of(args) if example_of else None):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def write_jsonl(self, path: Path, pass_index: int) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "pass": pass_index,
                            "span_id": s.span_id,
                            "parent_id": s.parent_id,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "example": s.example,
                            "failed": s.failed,
                        }
                    )
                    + "\n"
                )


class MeteredBackend:
    """Counts calls into ``Backend.complete``; with a recorder, traces each one.

    Every other attribute is the wrapped backend's own.
    """

    def __init__(self, inner, recorder: Optional[Recorder] = None):
        self._inner = inner
        self._recorder = recorder
        self._lock = threading.Lock()
        self.requests = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def complete(self, prompt, params):
        with self._lock:
            self.requests += 1
        if self._recorder is None:
            return self._inner.complete(prompt, params)
        self._recorder.add_request((prompt, params))
        with self._recorder.span("gateway.request"):
            return self._inner.complete(prompt, params)


class TracedTokenizer:
    """Tokenizer whose ``count`` calls are spans; the rest passes through.

    A count made inside ``filter_and_merge`` is postfilter work and is
    recorded as ``postfilter.token_count``; every other one is the prompt
    builder's budget trim, ``prompts.token_count``.
    """

    def __init__(self, inner, recorder: Recorder):
        self.tokenize = inner.tokenize
        self.span_tokenize = inner.span_tokenize
        self._recorder = recorder
        self._prompts_count = recorder.wrap(inner.count, "prompts.token_count")
        self._postfilter_count = recorder.wrap(inner.count, "postfilter.token_count")

    def count(self, text: str) -> int:
        if self._recorder.current() == "postfilter.filter":
            return self._postfilter_count(text)
        return self._prompts_count(text)


class TracedEmbedder:
    """Embedder whose ``embed`` calls are spans that count the texts embedded."""

    def __init__(self, inner, recorder: Recorder):
        self.embed = recorder.wrap(
            inner.embed,
            "gating.embed",
            on_result=lambda args, result: recorder.add(embed_texts=len(args[0])),
        )


def _prompt_counts(recorder: Recorder, prompts) -> None:
    recorder.add(
        prompts_built=len(prompts),
        prompt_tokens=sum(p.token_count for p in prompts),
        demos_dropped=sum(len(p.dropped_demo_indices) for p in prompts),
    )


def _hooks(recorder: Recorder) -> list[tuple[str, str, str, dict]]:
    """(module, attribute, span name, wrap options) for every patched callable."""
    add = recorder.add

    def outer_candidates(args, result) -> None:
        # combine_single and combine_kate_plus call the mixture rule
        # themselves; only the outermost combine call counts.
        if recorder.current() != "combine.combine":
            add(candidates=len(result))

    combine_opts = {"on_result": outer_candidates}
    return [
        ("mice.pipeline", "enumerate_prompts", "prompts.enumerate",
         {"on_result": lambda a, r: _prompt_counts(recorder, r)}),
        ("mice.pipeline", "select_kate_prompt", "prompts.select_kate",
         {"on_result": lambda a, r: _prompt_counts(recorder, [r])}),
        ("mice.prompts", "Template.render_prompt", "prompts.render", {}),
        ("mice.pipeline", "complete_many", "gateway.complete_many", {}),
        ("mice.pipeline", "similarities", "gating.similarities", {}),
        ("mice.pipeline", "gate", "gating.gate", {}),
        ("mice.pipeline", "extract_prediction", "combine.extract",
         {"on_result": lambda a, r: add(degraded=int(r.degraded))}),
        ("mice.combine", "extract_prediction", "combine.extract",
         {"on_result": lambda a, r: add(degraded=int(r.degraded))}),
        ("mice.pipeline", "combine_mice", "combine.combine", combine_opts),
        ("mice.pipeline", "combine_mice_sample", "combine.combine", combine_opts),
        ("mice.pipeline", "combine_product", "combine.combine", combine_opts),
        ("mice.pipeline", "combine_single", "combine.combine", combine_opts),
        ("mice.combine", "combine_mice_sample", "combine.combine", combine_opts),
        ("mice.pipeline", "combine_kate_plus", "combine.kate_plus", {}),
        ("mice.pipeline", "filter_and_merge", "postfilter.filter",
         {"on_result": lambda a, r: add(candidates_in=len(a[0]), candidates_kept=len(r))}),
        ("mice.pipeline", "micro_f1", "metrics.micro_f1", {}),
        ("mice.pipeline", "Resolver.resolve_one", "pipeline.resolve_one",
         {"example_of": lambda a: a[1].key}),
    ]


class MissingHook(LookupError):
    """The program no longer has a callable that a layer's metrics rely on."""


@contextlib.contextmanager
def instrument(recorder: Recorder) -> Iterator[None]:
    """Patch every hook for the duration.

    Raises ``MissingHook`` before patching anything if the program lacks a
    hook, so that a moved or renamed function fails the traced run instead
    of reading as a layer whose cost dropped to zero.
    """
    targets = []
    missing = []
    for module_name, attr, span_name, options in _hooks(recorder):
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = owner.__dict__.get(name) if owner is not None else None
        if original is None:
            missing.append(f"{module_name}.{attr}")
        targets.append((owner, name, original, span_name, options))
    if missing:
        raise MissingHook(f"the program lacks {', '.join(missing)}; update bench/tracing.py")
    restore: list[tuple[object, str, object]] = []
    try:
        for owner, name, original, span_name, options in targets:
            restore.append((owner, name, original))
            setattr(owner, name, recorder.wrap(original, span_name, **options))
        yield
    finally:
        for owner, name, original in reversed(restore):
            setattr(owner, name, original)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.span_id, ())
            if b > s.start and a < s.end
        ]
        out[s.span_id] = s.duration - _union_length(kids)
    return out


def layer_metrics(recorder: Recorder, stub_attempts: int, failed_examples: int,
                  examples: int) -> dict[str, float]:
    """The per-layer table for one traced pass, keyed by metric name."""
    spans = recorder.spans
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = self_times(spans)
    names = {s.span_id: s.name for s in spans}
    layer_self: Counter = Counter()
    for s in spans:
        layer_self[s.layer] += selfs[s.span_id]

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    outer_combines = [
        s for s in by_name.get("combine.combine", ())
        if names.get(s.parent_id) != "combine.combine"
    ]
    requests = by_name.get("gateway.request", [])
    latencies_ms = [s.duration * 1000.0 for s in requests]
    busy = sum(s.duration for s in requests)
    covered = _union_length([(s.start, s.end) for s in requests])
    n_requests = len(requests)
    c = recorder.counts
    return {
        "prompts.enumerate_calls": calls("prompts.enumerate"),
        "prompts.enumerate_s": total("prompts.enumerate"),
        "prompts.select_kate_s": total("prompts.select_kate"),
        "prompts.prompts_built": c["prompts_built"],
        "prompts.prompt_tokens": c["prompt_tokens"],
        "prompts.demos_dropped": c["demos_dropped"],
        "prompts.render_calls": calls("prompts.render"),
        "prompts.render_s": total("prompts.render"),
        "prompts.token_count_calls": calls("prompts.token_count"),
        "prompts.token_count_s": total("prompts.token_count"),
        "prompts.self_s": layer_self["prompts"],
        "gateway.complete_many_calls": calls("gateway.complete_many"),
        "gateway.complete_many_s": total("gateway.complete_many"),
        "gateway.requests": n_requests,
        "gateway.unique_requests": len(recorder.request_keys),
        "gateway.unique_request_ratio": (
            len(recorder.request_keys) / n_requests if n_requests else 0.0
        ),
        "gateway.request_busy_s": busy,
        "gateway.request_p50_ms": _quantile(latencies_ms, 0.50),
        "gateway.request_p99_ms": _quantile(latencies_ms, 0.99),
        "gateway.in_flight_mean": busy / covered if covered else 0.0,
        "gateway.http_attempts": stub_attempts,
        "gateway.failed_requests": sum(1 for s in requests if s.failed),
        "gateway.self_s": layer_self["gateway"],
        "gating.embed_calls": calls("gating.embed"),
        "gating.embed_texts": c["embed_texts"],
        "gating.embed_s": total("gating.embed"),
        "gating.similarities_s": total("gating.similarities"),
        "gating.gate_calls": calls("gating.gate"),
        "gating.gate_s": total("gating.gate"),
        "gating.self_s": layer_self["gating"],
        "combine.extract_calls": calls("combine.extract"),
        "combine.extract_s": total("combine.extract"),
        "combine.degraded": c["degraded"],
        "combine.combine_calls": len(outer_combines),
        "combine.combine_s": sum(s.duration for s in outer_combines),
        "combine.kate_plus_s": total("combine.kate_plus"),
        "combine.candidates": c["candidates"],
        "combine.self_s": layer_self["combine"],
        "postfilter.calls": calls("postfilter.filter"),
        "postfilter.s": total("postfilter.filter"),
        "postfilter.candidates_in": c["candidates_in"],
        "postfilter.candidates_kept": c["candidates_kept"],
        "postfilter.self_s": layer_self["postfilter"],
        "metrics.micro_f1_s": total("metrics.micro_f1"),
        "pipeline.resolve_one_calls": calls("pipeline.resolve_one"),
        "pipeline.resolve_one_self_s": sum(
            selfs[s.span_id] for s in by_name.get("pipeline.resolve_one", ())
        ),
        "pipeline.write_manifest_s": total("pipeline.write_manifest"),
        "pipeline.manifest_bytes": c["manifest_bytes"],
        "pipeline.replay_s": total("pipeline.replay"),
        "pipeline.self_s": layer_self["pipeline"],
        "corpus.load_s": total("corpus.load"),
        "corpus.sample_s": total("corpus.sample"),
        "failed_example_share": failed_examples / examples,
    }


def _quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
