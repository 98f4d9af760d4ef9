"""Rule-based detection of container anaphors in procedural text.

Anaphors like "the mixture" or "the resulting solution" are found with a
small set of regular-expression rules. Longer matches win over shorter
overlapping ones; overlap is otherwise resolved by rule order, then by
position.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable

from .corpus import DECODE_ERRORS, CorpusError, Dataset, Example, Span
from .metrics import ScoreReport


@dataclass(frozen=True)
class RuleSet:
    """Compiled detection rules, matched case-insensitively on word boundaries."""

    patterns: tuple[str, ...]
    _compiled: tuple[re.Pattern, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ValueError("rule set must contain at least one pattern")
        compiled = []
        for p in self.patterns:
            try:
                compiled.append(re.compile(rf"\b(?:{p})\b", re.IGNORECASE))
            except re.error as exc:
                raise ValueError(f"rule {p!r} is not a valid pattern: {exc.msg}") from exc
        object.__setattr__(self, "_compiled", tuple(compiled))

    def finditer(self, text: str) -> Iterable[tuple[int, int, int]]:
        """Yield (start, end, rule_index) for every raw rule match."""
        for idx, pattern in enumerate(self._compiled):
            for m in pattern.finditer(text):
                yield (m.start(), m.end(), idx)


def detect_anaphors(text: str, rules: RuleSet) -> list[Span]:
    """Find non-overlapping anaphor mentions, longest match first.

    All raw matches are ranked by descending length, then rule order, then
    position; matches overlapping an already-accepted span are discarded.
    The result is sorted by start offset.
    """
    matches = sorted(
        rules.finditer(text), key=lambda m: (-(m[1] - m[0]), m[2], m[0])
    )
    accepted: list[tuple[int, int]] = []
    for start, end, _ in matches:
        if any(start < b and a < end for a, b in accepted):
            continue
        accepted.append((start, end))
    accepted.sort()
    return [Span.from_offsets(text, a, b) for a, b in accepted]


def evaluate_rules(dataset: Dataset, rules: RuleSet) -> ScoreReport:
    """Pool exact-match detection counts over every document in a dataset.

    Each example contributes its gold anaphor; a document with several
    annotated anaphors is detected once and matched against all of them.
    """
    gold_by_doc: dict[str, set[tuple[int, int]]] = {}
    text_by_doc: dict[str, str] = {}
    for ex in dataset:
        gold_by_doc.setdefault(ex.doc_id, set()).add(ex.anaphor.offsets())
        text_by_doc[ex.doc_id] = ex.text
    tp = fp = fn = 0
    for doc_id, text in text_by_doc.items():
        predicted = {s.offsets() for s in detect_anaphors(text, rules)}
        gold = gold_by_doc[doc_id]
        tp += len(predicted & gold)
        fp += len(predicted - gold)
        fn += len(gold - predicted)
    return ScoreReport.from_counts(tp, fp, fn)


def detect_examples(doc_id: str, text: str, rules: RuleSet) -> list[Example]:
    """Wrap detected anaphors as unlabeled examples, in document order."""
    return [Example(doc_id=doc_id, text=text, anaphor=s) for s in detect_anaphors(text, rules)]


def load_rules(path: str | Path) -> RuleSet:
    """Read one pattern per line; blank lines and `#` comments are skipped. A line
    that is not UTF-8, like a pattern that does not compile, fails naming its line."""
    patterns = []
    for n, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
            if line and not line.startswith("#"):
                patterns.append(line)
                RuleSet(patterns=(line,))
        except DECODE_ERRORS as exc:
            raise CorpusError(f"rules {path} line {n}: {exc}") from exc
    if not patterns:
        raise CorpusError(f"rules {path}: rule set must contain at least one pattern")
    return RuleSet(patterns=tuple(patterns))


def default_rules() -> RuleSet:
    """The built-in rule set shipped with the package."""
    with resources.as_file(resources.files("mice") / "data" / "default_rules.txt") as path:
        return load_rules(path)
