"""Micro-averaged exact-match scoring of predicted antecedent sets.

Predictions and gold are both keyed by example; surfaces are compared
after whitespace canonicalization. Counts pool over all examples before
precision, recall, and F1 are computed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from .combine import canonicalize
from .corpus import to_json


@dataclass(frozen=True)
class ExampleScore:
    key: str
    true_positives: int
    false_positives: int
    false_negatives: int


@dataclass(frozen=True)
class ScoreReport:
    """Micro precision/recall/F1 with pooled counts and a per-example breakdown."""

    precision: float
    recall: float
    f1: float
    true_positives: int
    false_positives: int
    false_negatives: int
    per_example: tuple[ExampleScore, ...] = ()

    @classmethod
    def from_counts(
        cls, tp: int, fp: int, fn: int, per_example: Sequence[ExampleScore] = ()
    ) -> "ScoreReport":
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        recall = tp / (tp + fn) if (tp + fn) else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if (precision + recall)
            else 0.0
        )
        return cls(precision, recall, f1, tp, fp, fn, tuple(per_example))

    def to_json(self) -> str:
        return json.dumps(to_json(self), sort_keys=True, indent=2)

    def to_table(self) -> str:
        return (
            f"precision {self.precision:.4f}  recall {self.recall:.4f}  "
            f"f1 {self.f1:.4f}  (tp {self.true_positives} fp {self.false_positives} "
            f"fn {self.false_negatives})"
        )


def _canonical_set(surfaces: Sequence[str]) -> set[str]:
    return {canonicalize(s) for s in surfaces} - {""}


def micro_f1(
    predictions: Mapping[str, Sequence[str]],
    gold: Mapping[str, Sequence[str]],
) -> ScoreReport:
    """Pooled exact-match F1 over all examples.

    Both mappings must cover exactly the same example keys. A predicted
    surface is correct when its canonical form appears in the example's
    canonical gold set. With no predictions precision is 0; with no gold
    antecedents recall is 0; F1 is 0 whenever precision + recall is 0.
    """
    missing, extra = gold.keys() - predictions.keys(), predictions.keys() - gold.keys()
    if missing or extra:
        raise ValueError(
            f"key sets differ: missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]}")
    tp = fp = fn = 0
    breakdown: list[ExampleScore] = []
    for key in sorted(gold):
        predicted = _canonical_set(predictions[key])
        expected = _canonical_set(gold[key])
        ex_tp = len(predicted & expected)
        ex_fp = len(predicted - expected)
        ex_fn = len(expected - predicted)
        tp += ex_tp
        fp += ex_fp
        fn += ex_fn
        breakdown.append(ExampleScore(key, ex_tp, ex_fp, ex_fn))
    return ScoreReport.from_counts(tp, fp, fn, breakdown)
