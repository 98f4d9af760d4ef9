"""Pseudo-label export: teacher predictions as BIO-tagged token sequences.

For each detected anaphor in an unlabeled document, the teacher pipeline
predicts antecedent surfaces; those surfaces are aligned back to token
runs in the document (the occurrence nearest to and preceding the
anaphor), tagged B/I against an O background, and the anaphor itself is
bracketed with two marker tokens. Records export to JSONL (with per-run
confidences) or CONLL (token TAB tag).
"""
from __future__ import annotations

import json
import logging
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Generator, Optional, Sequence

from .corpus import CorpusError, Example, Span, from_json, read_json, to_json
from .detector import RuleSet, detect_examples
from .gateway import WORDS, Tokenizer
from .pipeline import ResolutionResult

logger = logging.getLogger(__name__)

MARKER_START = "[Ana-start]"
MARKER_END = "[Ana-end]"

TAG_BEGIN = "B"
TAG_INSIDE = "I"
TAG_OUTSIDE = "O"


@dataclass(frozen=True)
class PseudoLabeledRecord:
    """One anaphor's tagged token sequence.

    ``tokens`` includes the two marker tokens bracketing exactly the
    anaphor's tokens; markers and anaphor tokens carry tag O. Every B
    opens one aligned predicted-antecedent run; ``confidences`` lists the
    combined probability of each B-run in token order.
    """

    doc_id: str
    anaphor: Span
    tokens: tuple[str, ...]
    tags: tuple[str, ...]
    confidences: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.tags):
            raise ValueError(
                f"{len(self.tags)} tags for {len(self.tokens)} tokens in {self.doc_id}"
            )
        if self.tokens.count(MARKER_START) != 1 or self.tokens.count(MARKER_END) != 1:
            raise ValueError(f"markers must appear exactly once each in {self.doc_id}")
        start = self.tokens.index(MARKER_START)
        end = self.tokens.index(MARKER_END)
        if start >= end:
            raise ValueError(f"marker order violated in {self.doc_id}")
        if self.tags[start] != TAG_OUTSIDE or self.tags[end] != TAG_OUTSIDE:
            raise ValueError(f"marker tokens must carry tag O in {self.doc_id}")
        previous = TAG_OUTSIDE
        for tag in self.tags:
            if tag not in (TAG_BEGIN, TAG_INSIDE, TAG_OUTSIDE):
                raise ValueError(f"unknown tag {tag!r} in {self.doc_id}")
            if tag == TAG_INSIDE and previous == TAG_OUTSIDE:
                raise ValueError(f"I without preceding B in {self.doc_id}")
            previous = tag
        if len(self.confidences) != (runs := self.tags.count(TAG_BEGIN)):
            raise ValueError(
                f"{len(self.confidences)} confidences for {runs} runs in {self.doc_id}")


@dataclass
class DropLog:
    """Why predicted surfaces were left out of the tags."""

    entries: list[dict] = field(default_factory=list)

    def record(self, doc_id: str, anaphor_key: str, surface: str, reason: str) -> None:
        logger.info("dropping %r for %s: %s", surface, anaphor_key, reason)
        self.entries.append(
            {
                "doc_id": doc_id,
                "anaphor": anaphor_key,
                "surface": surface,
                "reason": reason,
            }
        )


def find_alignment(
    doc_tokens: Sequence[str],
    token_spans: Sequence[tuple[int, int]],
    surface_tokens: Sequence[str],
    anaphor_start: int,
    claimed: Sequence[bool],
) -> Optional[tuple[int, int]]:
    """Locate the nearest preceding unclaimed occurrence of a token run.

    Scans candidate start positions from the anaphor backwards; a match
    must end (in characters) at or before the anaphor start and must not
    overlap token indices already claimed by another prediction.
    """
    m = len(surface_tokens)
    if m == 0:
        return None
    for start in range(len(doc_tokens) - m, -1, -1):
        end = start + m
        if token_spans[end - 1][1] > anaphor_start:
            continue
        if list(doc_tokens[start:end]) != list(surface_tokens):
            continue
        if any(claimed[start:end]):
            continue
        return (start, end)
    return None


def build_record(
    example: Example,
    predictions: Sequence[tuple[str, float]],
    tokenizer: Tokenizer,
    drop_log: Optional[DropLog] = None,
) -> PseudoLabeledRecord:
    """Align one anaphor's predicted surfaces and assemble the tagged record.

    Predictions are aligned in decreasing-confidence order (ties by
    surface) so stronger predictions claim tokens first; surfaces with no
    available occurrence before the anaphor are dropped and logged.
    """
    text = example.text
    token_spans = tokenizer.span_tokenize(text)
    doc_tokens = [text[a:b] for a, b in token_spans]
    claimed = [False] * len(doc_tokens)
    tags = [TAG_OUTSIDE] * len(doc_tokens)
    runs: list[tuple[int, float]] = []

    for surface, confidence in sorted(predictions, key=lambda p: (-p[1], p[0])):
        surface_tokens = tokenizer.tokenize(surface)
        found = find_alignment(
            doc_tokens, token_spans, surface_tokens, example.anaphor.start, claimed
        )
        if found is None:
            if drop_log is not None:
                drop_log.record(
                    example.doc_id, example.key, surface,
                    "no unclaimed occurrence before the anaphor",
                )
            continue
        start, end = found
        for i in range(start, end):
            claimed[i] = True
        tags[start] = TAG_BEGIN
        for i in range(start + 1, end):
            tags[i] = TAG_INSIDE
        runs.append((start, confidence))

    ana_range = [
        i
        for i, (a, b) in enumerate(token_spans)
        if a < example.anaphor.end and example.anaphor.start < b
    ]
    if not ana_range:
        raise CorpusError(f"anaphor in {example.key} covers no tokens")
    lo, hi = ana_range[0], ana_range[-1] + 1

    out_tokens = [*doc_tokens[:lo], MARKER_START, *doc_tokens[lo:hi], MARKER_END,
                  *doc_tokens[hi:]]
    # The markers and the anaphor's own tokens are outside every run.
    out_tags = tags[:lo] + [TAG_OUTSIDE] * (hi - lo + 2) + tags[hi:]
    confidences = tuple(conf for _, conf in sorted(runs))
    return PseudoLabeledRecord(
        doc_id=example.doc_id,
        anaphor=example.anaphor,
        tokens=tuple(out_tokens),
        tags=tuple(out_tags),
        confidences=confidences,
    )


def _unlabeled_doc(record: dict) -> tuple[str, str]:
    return from_json(str, record["doc_id"]), from_json(str, record["text"])


def load_unlabeled_docs(path: str | Path) -> list[tuple[str, str]]:
    """Read unlabeled documents: JSONL of {"doc_id": ..., "text": ...}."""
    return read_json(path, "unlabeled docs", _unlabeled_doc, lines=True)


def generate_pseudo_labels(
    docs: Sequence[tuple[str, str]],
    resolve: Callable[[Sequence[Example]], Generator[ResolutionResult | Exception, None, None]],
    m: int,
    rules: RuleSet,
    drop_log: Optional[DropLog] = None,
    checkpoint_path: Optional[str | Path] = None,
) -> list[PseudoLabeledRecord]:
    """Detect anaphors in document order; resolve, align and tag the first ``m``.

    ``resolve``, such as ``Resolver.iter_results``, yields each anaphor's
    result or the error that failed it. The first error is raised after the
    completed records are written to ``checkpoint_path`` (if given).
    """
    pending: list[Example] = []
    for doc_id, text in docs:
        pending.extend(detect_examples(doc_id, text, rules))
    if m < 1:
        raise ValueError(f"requested {m} records; the count must be at least 1")
    if m > len(pending):
        raise CorpusError(f"requested {m} records but only {len(pending)} anaphors detected")
    records: list[PseudoLabeledRecord] = []
    try:
        # Closed at once, so its queued requests are cancelled before the checkpoint.
        with closing(resolve(pending[:m])) as results:
            for result, example in zip(results, pending):
                if isinstance(result, Exception):
                    raise result
                predictions = [(c.surface, c.combined_prob) for c in result.final]
                records.append(build_record(example, predictions, WORDS, drop_log))
    except Exception:
        if checkpoint_path is not None and records:
            export_records(records, checkpoint_path, "jsonl")
            logger.warning(
                "checkpointed %d records to %s before failure", len(records), checkpoint_path
            )
        raise
    return records


def export_records(
    records: Sequence[PseudoLabeledRecord], path: str | Path, fmt: str
) -> None:
    """Write records deterministically; JSONL keeps confidences, CONLL tags only."""
    path = Path(path)
    if fmt == "jsonl":
        body = "".join(
            json.dumps(to_json(r), sort_keys=True, ensure_ascii=False) + "\n"
            for r in records
        )
    elif fmt == "conll":
        blocks = [
            "\n".join(f"{tok}\t{tag}" for tok, tag in zip(r.tokens, r.tags))
            for r in records
        ]
        body = "\n\n".join(blocks) + "\n" if blocks else ""
    else:
        raise ValueError(f"unknown export format: {fmt!r}")
    path.write_text(body, encoding="utf-8")


def load_records(path: str | Path) -> list[PseudoLabeledRecord]:
    """Reload a JSONL export; inverse of export_records(..., "jsonl")."""
    return read_json(path, "records", lambda r: from_json(PseudoLabeledRecord, r), lines=True)
