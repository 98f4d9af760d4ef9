"""Pseudo-label export: alignment, BIO tagging, and serialization."""
import json
import threading
import time

import pytest
from conftest import FIXTURES

from mice.combine import CandidateAntecedent
from mice.corpus import CorpusError, Example, Span, from_json, load_corpus, sample_kshot, to_json
from mice.detector import RuleSet, detect_examples
from mice.distill import (
    MARKER_END,
    MARKER_START,
    DropLog,
    PseudoLabeledRecord,
    build_record,
    export_records,
    find_alignment,
    generate_pseudo_labels,
    load_records,
    load_unlabeled_docs,
)
from mice.gateway import BackendError, MockBackend, WordTokenizer
from mice.pipeline import ResolutionResult, Resolver, RunConfig

TOK = WordTokenizer()


def make_example(text, anaphor_surface):
    start = text.index(anaphor_surface)
    return Example(
        doc_id="doc",
        text=text,
        anaphor=Span.from_offsets(text, start, start + len(anaphor_surface)),
    )


def valid_record(**overrides):
    kwargs = dict(
        doc_id="doc",
        anaphor=Span(start=0, end=11, surface="the mixture"),
        tokens=(MARKER_START, "the", "mixture", MARKER_END, "held", "water"),
        tags=("O", "O", "O", "O", "O", "B"),
        confidences=(0.9,),
    )
    kwargs.update(overrides)
    return PseudoLabeledRecord(**kwargs)


class TestRecordValidation:
    def test_valid_record_accepted(self):
        record = valid_record()
        assert record.tags.count("B") == 1

    def test_tag_count_must_match_tokens(self):
        with pytest.raises(ValueError, match="tags for"):
            valid_record(tags=("O", "O", "O", "O", "O"))

    def test_markers_required(self):
        with pytest.raises(ValueError, match="markers"):
            valid_record(
                tokens=("the", "mixture", "x", MARKER_END, "held", "water")
            )

    def test_duplicate_marker_rejected(self):
        with pytest.raises(ValueError, match="markers"):
            valid_record(
                tokens=(MARKER_START, MARKER_START, "mixture", MARKER_END, "held", "water")
            )

    def test_marker_order_enforced(self):
        with pytest.raises(ValueError, match="order"):
            valid_record(
                tokens=(MARKER_END, "the", "mixture", MARKER_START, "held", "water")
            )

    def test_markers_must_be_outside(self):
        with pytest.raises(ValueError, match="tag O"):
            valid_record(tags=("B", "O", "O", "O", "O", "B"), confidences=(0.9, 0.8))

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown tag"):
            valid_record(tags=("O", "O", "O", "O", "O", "X"))

    def test_inside_without_begin_rejected(self):
        with pytest.raises(ValueError, match="I without preceding B"):
            valid_record(tags=("O", "O", "O", "O", "O", "I"))

    def test_begin_inside_run_accepted(self):
        record = valid_record(
            tokens=(MARKER_START, "it", MARKER_END, "held", "ice", "water"),
            tags=("O", "O", "O", "O", "B", "I"),
            anaphor=Span(start=0, end=2, surface="it"),
        )
        assert record.tags[-2:] == ("B", "I")

    def test_confidences_must_match_run_count(self):
        with pytest.raises(ValueError, match="confidences"):
            valid_record(confidences=(0.9, 0.8))


ALIGN_TEXT = "Add water then more water now; stir the mixture."
ALIGN_SPANS = TOK.span_tokenize(ALIGN_TEXT)
ALIGN_TOKENS = [ALIGN_TEXT[a:b] for a, b in ALIGN_SPANS]


class TestFindAlignment:
    TEXT = ALIGN_TEXT
    SPANS = ALIGN_SPANS
    TOKENS = ALIGN_TOKENS

    def test_nearest_preceding_occurrence_wins(self):
        anaphor_start = self.TEXT.index("the mixture")
        found = find_alignment(
            self.TOKENS, self.SPANS, ["water"], anaphor_start,
            [False] * len(self.TOKENS),
        )
        assert found == (4, 5)
        assert self.TOKENS[4] == "water"
        assert self.SPANS[4][0] == self.TEXT.index("water", 10)

    def test_claimed_tokens_fall_back_to_earlier_occurrence(self):
        claimed = [False] * len(self.TOKENS)
        claimed[4] = True
        found = find_alignment(
            self.TOKENS, self.SPANS, ["water"],
            self.TEXT.index("the mixture"), claimed,
        )
        assert found == (1, 2)

    def test_occurrence_after_anaphor_is_ignored(self):
        text = "Stir the mixture of water."
        spans = TOK.span_tokenize(text)
        tokens = [text[a:b] for a, b in spans]
        found = find_alignment(
            tokens, spans, ["water"], text.index("the mixture"),
            [False] * len(tokens),
        )
        assert found is None

    def test_run_ending_exactly_at_anaphor_start_is_allowed(self):
        text = "water the mixture"
        spans = TOK.span_tokenize(text)
        tokens = [text[a:b] for a, b in spans]
        # "water" ends at offset 5; anaphor starts at 6. A run may end at
        # or before the anaphor start.
        found = find_alignment(tokens, spans, ["water"], 6, [False] * len(tokens))
        assert found == (0, 1)

    def test_multi_token_run_must_match_contiguously(self):
        text = "ice cold water before the mixture"
        spans = TOK.span_tokenize(text)
        tokens = [text[a:b] for a, b in spans]
        assert (
            find_alignment(
                tokens, spans, ["ice", "water"], text.index("the mixture"),
                [False] * len(tokens),
            )
            is None
        )
        assert find_alignment(
            tokens, spans, ["ice", "cold", "water"], text.index("the mixture"),
            [False] * len(tokens),
        ) == (0, 3)

    def test_empty_surface_returns_none(self):
        assert (
            find_alignment(self.TOKENS, self.SPANS, [], 10, [False] * len(self.TOKENS))
            is None
        )


class TestBuildRecord:
    def test_markers_bracket_anaphor_tokens(self):
        ex = make_example("Add water and brine. Stir the mixture well.", "the mixture")
        record = build_record(ex, [("water", 0.9)], TOK)
        i = record.tokens.index(MARKER_START)
        j = record.tokens.index(MARKER_END)
        assert record.tokens[i + 1 : j] == ("the", "mixture")
        assert set(record.tags[i:j + 1]) == {"O"}
        assert record.tokens[1] == "water"
        assert record.tags[1] == "B"

    def test_multi_token_prediction_tagged_b_i(self):
        ex = make_example("Pour ice water in. Heat the mixture now.", "the mixture")
        record = build_record(ex, [("ice water", 0.7)], TOK)
        b = record.tags.index("B")
        assert record.tokens[b : b + 2] == ("ice", "water")
        assert record.tags[b + 1] == "I"
        assert record.confidences == (0.7,)

    def test_confidences_listed_in_token_order(self):
        ex = make_example("Add water then brine. Stir the mixture.", "the mixture")
        record = build_record(ex, [("brine", 0.9), ("water", 0.4)], TOK)
        # "water" precedes "brine" in the text, so its run comes first.
        assert record.confidences == (0.4, 0.9)

    def test_stronger_prediction_claims_tokens_first(self):
        text = "Mix ice water fast. Chill the mixture."
        ex = make_example(text, "the mixture")
        record = build_record(ex, [("water", 0.5), ("ice water", 0.9)], TOK)
        b = record.tags.index("B")
        assert record.tokens[b : b + 2] == ("ice", "water")
        assert record.tags[b + 1] == "I"
        # The weaker "water" has no unclaimed occurrence left.
        assert record.tags.count("B") == 1
        assert record.confidences == (0.9,)

    def test_unalignable_surface_dropped_and_logged(self):
        ex = make_example("Add water. Stir the mixture.", "the mixture")
        log = DropLog()
        record = build_record(ex, [("water", 0.8), ("toluene", 0.6)], TOK, log)
        assert record.tags.count("B") == 1
        assert len(log.entries) == 1
        entry = log.entries[0]
        assert entry["surface"] == "toluene"
        assert entry["doc_id"] == "doc"
        assert "occurrence" in entry["reason"]

    def test_no_predictions_gives_all_outside(self):
        ex = make_example("Add water. Stir the mixture.", "the mixture")
        record = build_record(ex, [], TOK)
        assert set(record.tags) == {"O"}
        assert record.confidences == ()

    def test_anaphor_covering_no_tokens_rejected(self):
        text = "Add water.  Stir."
        ex = Example(
            doc_id="doc",
            text=text,
            anaphor=Span(start=10, end=11, surface=" "),
        )
        with pytest.raises(CorpusError, match="covers no tokens"):
            build_record(ex, [], TOK)


class TestSerialization:
    def test_dict_round_trip(self):
        record = valid_record()
        payload = json.loads(json.dumps(to_json(record)))
        assert from_json(PseudoLabeledRecord, payload) == record

    def test_jsonl_round_trip(self, tmp_path):
        records = [
            valid_record(),
            valid_record(
                doc_id="doc2",
                tokens=(MARKER_START, "it", MARKER_END, "held", "ice", "water"),
                tags=("O", "O", "O", "O", "B", "I"),
                anaphor=Span(start=0, end=2, surface="it"),
                confidences=(0.25,),
            ),
        ]
        path = tmp_path / "records.jsonl"
        export_records(records, path, "jsonl")
        assert load_records(path) == records

    def test_undeclared_key_names_its_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("\n".join(json.dumps(record) for record in [
            to_json(valid_record()), {**to_json(valid_record()), "score": 0.5}]) + "\n",
            encoding="utf-8")
        with pytest.raises(CorpusError) as info:
            load_records(path)
        assert str(info.value) == (f"records {path} line 2: "
                                   "unknown pseudo labeled record fields: ['score']")

    def test_conll_layout(self, tmp_path):
        records = [
            valid_record(
                tokens=(MARKER_START, "it", MARKER_END, "water"),
                tags=("O", "O", "O", "B"),
                anaphor=Span(start=0, end=2, surface="it"),
            ),
            valid_record(
                doc_id="doc2",
                tokens=(MARKER_START, "it", MARKER_END, "brine"),
                tags=("O", "O", "O", "B"),
                anaphor=Span(start=0, end=2, surface="it"),
            ),
        ]
        path = tmp_path / "records.conll"
        export_records(records, path, "conll")
        assert path.read_text(encoding="utf-8") == (
            f"{MARKER_START}\tO\nit\tO\n{MARKER_END}\tO\nwater\tB"
            "\n\n"
            f"{MARKER_START}\tO\nit\tO\n{MARKER_END}\tO\nbrine\tB\n"
        )

    def test_conll_empty(self, tmp_path):
        path = tmp_path / "empty.conll"
        export_records([], path, "conll")
        assert path.read_text(encoding="utf-8") == ""

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            export_records([], tmp_path / "x.bin", "parquet")


class TestLoadUnlabeledDocs:
    def test_loads_and_skips_blank_lines(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(
            '{"doc_id": "a", "text": "Add water."}\n\n'
            '{"doc_id": "b", "text": "Add brine."}\n',
            encoding="utf-8",
        )
        assert load_unlabeled_docs(path) == [
            ("a", "Add water."),
            ("b", "Add brine."),
        ]

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(
            '{"doc_id": "a", "text": "ok"}\n{"doc_id": "b"}\n', encoding="utf-8"
        )
        with pytest.raises(CorpusError, match="line 2"):
            load_unlabeled_docs(path)

    def test_fixture_corpus_loads(self):
        docs = load_unlabeled_docs(FIXTURES / "unlabeled_docs.jsonl")
        assert len(docs) == 3
        assert all(isinstance(d, str) and isinstance(t, str) for d, t in docs)


def resolved(example, surface):
    """A result whose one final antecedent is ``surface``, at confidence 0.9."""
    final = (CandidateAntecedent(surface, surface.split()[0], 0.9),)
    return ResolutionResult(example.key, None, (0,), None, (), final, final, 1)


class CountingResolver:
    """A stand-in for ``Resolver.iter_results`` that names one fixed surface.

    It can be armed to yield a failure for the nth example, and records the
    examples it was given, those it reached and whether it was closed.
    """

    def __init__(self, fail_on=None, surface="water"):
        self.given = None
        self.calls = []
        self.closed = False
        self._fail_on = fail_on
        self._surface = surface

    def __call__(self, examples):
        self.given = [example.key for example in examples]
        try:
            for example in examples:
                self.calls.append(example.key)
                if self._fail_on is not None and len(self.calls) == self._fail_on:
                    yield RuntimeError("backend down")
                else:
                    yield resolved(example, self._surface)
        except GeneratorExit:
            self.closed = True
            raise


RULES = RuleSet(patterns=(r"the mixture",))

DOCS = [
    ("d1", "Add water now. Stir the mixture gently."),
    ("d2", "Add water again. Heat the mixture. Cool the mixture."),
]


class TestGeneratePseudoLabels:
    def test_document_order_and_limit(self):
        resolve = CountingResolver()
        records = generate_pseudo_labels(DOCS, resolve, m=2, rules=RULES)
        assert len(records) == 2
        assert [r.doc_id for r in records] == ["d1", "d2"]
        assert resolve.calls == ["d1:20:31", "d2:22:33"]
        assert resolve.given == resolve.calls

    def test_requesting_too_many_rejected(self):
        with pytest.raises(ValueError, match="only 3 anaphors"):
            generate_pseudo_labels(DOCS, CountingResolver(), m=4, rules=RULES)

    @pytest.mark.parametrize("m", [-1, 0])
    def test_requesting_fewer_than_one_rejected(self, m):
        resolve = CountingResolver()
        with pytest.raises(ValueError, match="at least 1"):
            generate_pseudo_labels(DOCS, resolve, m=m, rules=RULES)
        assert resolve.given is None

    def test_checkpoint_written_on_failure(self, tmp_path):
        checkpoint = tmp_path / "partial.jsonl"
        resolve = CountingResolver(fail_on=2)
        with pytest.raises(RuntimeError, match="backend down"):
            generate_pseudo_labels(
                DOCS, resolve, m=3, rules=RULES, checkpoint_path=checkpoint
            )
        saved = load_records(checkpoint)
        assert len(saved) == 1
        assert saved[0].doc_id == "d1"
        # The loop is closed at its failure; the third anaphor is never reached.
        assert resolve.calls == ["d1:20:31", "d2:22:33"]
        assert resolve.closed

    def test_failure_without_checkpoint_path_just_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            generate_pseudo_labels(DOCS, CountingResolver(fail_on=1), m=3, rules=RULES)
        assert list(tmp_path.iterdir()) == []

    def test_drop_log_passed_through(self):
        log = DropLog()
        generate_pseudo_labels(
            DOCS, CountingResolver(surface="xenon"), m=1, rules=RULES, drop_log=log
        )
        assert [e["surface"] for e in log.entries] == ["xenon"]

    def test_a_failure_closes_the_resolvers_loop(self, tmp_path):
        # Three anaphors of ten requests each, at four workers. Example 1's
        # first request fails once example 2's requests are being sent, and
        # each of those takes 0.1 s.
        docs = [
            ("a", "Add water now. Stir the mixture gently."),
            ("b", "Pour oil first. Warm the mixture slowly."),
            ("c", "Take salt here. Shake the mixture well."),
        ]
        scripted = MockBackend.from_fixture(FIXTURES / "scripted_mock.json")
        sample = sample_kshot(load_corpus(FIXTURES / "synthetic_train.jsonl"), 4, seed=1)
        resolver = Resolver(RunConfig(parallelism=4), sample, scripted)
        second, last = (detect_examples(d, text, RULES)[0] for d, text in docs[1:])
        failing = resolver._plan(second)[0][0][0]
        queued = len(resolver._plan(last)[0])
        sending = threading.Event()
        sent = []

        class FailingSecond:
            def complete(self, prompt, params):
                if prompt == failing:
                    sending.wait(5)
                    raise BackendError("backend down")
                if last.text in prompt:
                    sent.append(prompt)
                    sending.set()
                    time.sleep(0.1)
                return scripted.complete(prompt, params)

        resolver.backend = FailingSecond()
        checkpoint = tmp_path / "partial.jsonl"
        threads = threading.active_count()
        with pytest.raises(BackendError, match="backend down"):
            generate_pseudo_labels(
                docs, resolver.iter_results, m=3, rules=RULES, checkpoint_path=checkpoint
            )
        assert threading.active_count() == threads
        assert [r.doc_id for r in load_records(checkpoint)] == ["a"]
        # Example 2's requests that had not started when the loop was closed
        # never reach the backend, then or later.
        reached = len(sent)
        time.sleep(0.5)
        assert 1 <= len(sent) == reached < queued
