"""Rule-based anaphor detection and its exact-span scoring."""
import pytest

from mice.corpus import Dataset, Example, Span, load_corpus
from mice.detector import (
    RuleSet,
    default_rules,
    detect_anaphors,
    detect_examples,
    evaluate_rules,
    load_rules,
)

from conftest import FIXTURES


class TestRuleSet:
    def test_case_insensitive_by_default(self):
        rules = RuleSet(("the mixture",))
        spans = detect_anaphors("The Mixture was stirred.", rules)
        assert [s.surface for s in spans] == ["The Mixture"]

    def test_word_boundaries_prevent_partial_hits(self):
        rules = RuleSet(("the mass",))
        assert detect_anaphors("the massive flask", rules) == []

    def test_longest_match_wins_overlap(self):
        rules = RuleSet(("the mixture", "the reaction mixture"))
        spans = detect_anaphors("Then the reaction mixture was hot.", rules)
        assert [s.surface for s in spans] == ["the reaction mixture"]

    def test_rule_order_breaks_equal_length_ties(self):
        # Both rules match the same span text; the earlier rule claims it.
        rules = RuleSet(("the (?:mixture)", "the mixture"))
        spans = detect_anaphors("Then the mixture was hot.", rules)
        assert len(spans) == 1

    def test_matches_sorted_by_position(self):
        rules = RuleSet(("the mixture", "the residue"))
        text = "First the residue was dried. Then the mixture was stirred."
        spans = detect_anaphors(text, rules)
        assert [s.surface for s in spans] == ["the residue", "the mixture"]
        assert spans[0].start < spans[1].start

    def test_non_overlapping_greedy_selection(self):
        rules = RuleSet(("the mixture was", "was stirred"))
        spans = detect_anaphors("Then the mixture was stirred.", rules)
        assert [s.surface for s in spans] == ["the mixture was"]


class TestEvaluateRules:
    def test_pooled_counts_over_documents(self):
        text_hit = "Add water. Then the mixture was stirred."
        text_trap = "Add brine. Then the mixture was mixed; the contents were lost."
        examples = (
            Example("a", text_hit, Span.from_offsets(text_hit, 16, 27)),
            Example("b", text_trap, Span.from_offsets(text_trap, 16, 27)),
        )
        ds = Dataset(examples, "mini")
        rules = RuleSet(("the mixture", "the contents"))
        report = evaluate_rules(ds, rules)
        # Both gold anaphors found, plus one unannotated rule hit.
        assert (report.true_positives, report.false_positives, report.false_negatives) == (2, 1, 0)

    def test_multiple_anaphors_share_a_document(self):
        text = "Then the mixture was stirred and the residue was dried."
        examples = (
            Example("doc", text, Span.from_offsets(text, 5, 16)),
            Example("doc", text, Span.from_offsets(text, 33, 44)),
        )
        ds = Dataset(examples, "shared")
        rules = RuleSet(("the mixture", "the residue"))
        report = evaluate_rules(ds, rules)
        assert (report.true_positives, report.false_positives, report.false_negatives) == (2, 0, 0)

    def test_exact_offsets_required(self):
        text = "Then the mixture was stirred."
        off_by_one = Example("doc", text, Span.from_offsets(text, 4, 16))
        report = evaluate_rules(Dataset((off_by_one,), "one"), RuleSet(("the mixture",)))
        assert (report.true_positives, report.false_positives, report.false_negatives) == (0, 1, 1)


class TestDefaultRules:
    def test_fixture_corpus_scores_frozen_counts(self):
        ds = load_corpus(FIXTURES / "detector_eval.jsonl")
        assert len(ds.examples) == 50
        report = evaluate_rules(ds, default_rules())
        assert report.true_positives == 48
        assert report.false_positives == 1
        assert report.false_negatives == 2
        assert report.f1 == pytest.approx(0.9697, abs=1e-4)

    def test_common_container_phrases_covered(self):
        rules = default_rules()
        for phrase in (
            "the mixture",
            "the reaction mixture",
            "the resulting solution",
            "the residue",
            "the filtrate",
            "the organic layer",
            "the crude product",
        ):
            assert detect_anaphors(f"Then {phrase} was used.", rules), phrase


class TestHelpers:
    def test_load_rules_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("# comment\n\nthe mixture\nthe residue\n", encoding="utf-8")
        rules = load_rules(path)
        assert len(rules.patterns) == 2

    def test_detect_examples_builds_unlabeled_examples(self):
        text = "Then the mixture was stirred. Later the mixture was cooled."
        rules = RuleSet(("the mixture",))
        examples = detect_examples("doc9", text, rules)
        assert len(examples) == 2
        assert all(not e.is_labeled for e in examples)
        assert examples[0].doc_id == "doc9"
        assert examples[0].anaphor.surface == "the mixture"
