"""Corpus loading, validation, and k-shot sampling."""
import json
import re

import numpy as np
import pytest

from mice.corpus import (
    CorpusError,
    Dataset,
    Example,
    Span,
    example_to_record,
    load_corpus,
    read_json,
    sample_kshot,
    save_corpus,
    seeded_prefix,
)

from conftest import FIXTURES


def labeled(doc_id="d0", text="Add water and brine. Then the mixture was stirred."):
    return Example(
        doc_id=doc_id,
        text=text,
        anaphor=Span(26, 37, "the mixture"),
        gold_antecedents=(Span(4, 9, "water"), Span(14, 19, "brine")),
    )


class TestSpan:
    def test_from_offsets_extracts_surface(self):
        span = Span.from_offsets("Add water now", 4, 9)
        assert span.surface == "water"
        assert span.offsets() == (4, 9)

    def test_from_offsets_rejects_bad_range(self):
        with pytest.raises(CorpusError, match="invalid span"):
            Span.from_offsets("short", 3, 99)
        with pytest.raises(CorpusError, match="invalid span"):
            Span.from_offsets("short", 4, 2)
        # int() would read these as 1, 4 and 4; a bool is not an offset either.
        for start in (True, 4.9, "4"):
            with pytest.raises(CorpusError, match=f"span offset {re.escape(repr(start))} "):
                Span.from_offsets("short", start, 5)

    def test_spans_are_immutable(self):
        span = Span(0, 3, "Add")
        with pytest.raises(AttributeError):
            span.start = 1


class TestExample:
    def test_key_combines_doc_and_offsets(self):
        assert labeled().key == "d0:26:37"

    def test_gold_surfaces_sorted_by_start(self):
        ex = Example(
            doc_id="d1",
            text="Add brine and water. Then the mixture was stirred.",
            anaphor=Span(26, 37, "the mixture"),
            gold_antecedents=(Span(14, 19, "water"), Span(4, 9, "brine")),
        )
        assert ex.gold_surfaces() == ["brine", "water"]

    def test_unlabeled_has_no_surfaces(self):
        ex = Example("d2", "Then the mixture was stirred.", Span(5, 16, "the mixture"))
        assert not ex.is_labeled
        with pytest.raises(CorpusError, match="unlabeled"):
            ex.gold_surfaces()

    def test_validate_rejects_antecedent_after_anaphor(self):
        text = "Then the mixture was mixed with water."
        ex = Example(
            doc_id="d4",
            text=text,
            anaphor=Span(5, 16, "the mixture"),
            gold_antecedents=(Span(32, 37, "water"),),
        )
        with pytest.raises(CorpusError, match="antecedent follows anaphor"):
            ex.validate()

    def test_validate_rejects_duplicate_antecedents(self):
        ex = Example(
            doc_id="d5",
            text="Add water and brine. Then the mixture was stirred.",
            anaphor=Span(26, 37, "the mixture"),
            gold_antecedents=(Span(4, 9, "water"), Span(4, 9, "water")),
        )
        with pytest.raises(CorpusError, match="duplicate antecedent"):
            ex.validate()


class TestDataset:
    def test_rejects_duplicate_keys(self):
        ex = labeled()
        with pytest.raises(CorpusError, match="duplicate anaphor key"):
            Dataset((ex, ex), "dup")

    def test_iteration_and_length(self):
        ds = Dataset((labeled("a"), labeled("b")), "two")
        assert len(ds) == 2
        assert [e.doc_id for e in ds] == ["a", "b"]


class TestLoadSave:
    def test_round_trip(self, tmp_path):
        ds = Dataset((labeled("a"), labeled("b")), "rt")
        path = tmp_path / "corpus.jsonl"
        save_corpus(ds, path)
        back = load_corpus(path, split_name="rt")
        assert back.examples == ds.examples

    def test_record_shape(self):
        record = example_to_record(labeled())
        assert record["doc_id"] == "d0"
        assert record["anaphor"] == {"start": 26, "end": 37}
        assert record["antecedents"] == [
            {"start": 4, "end": 9},
            {"start": 14, "end": 19},
        ]

    def test_missing_file_is_a_corpus_error(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            load_corpus(tmp_path / "nope.jsonl")

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(
            {
                "doc_id": "a",
                "text": "Add water. Stir the mixture.",
                "anaphor": {"start": 16, "end": 27},
                "antecedents": [{"start": 4, "end": 9}],
            }
        )
        path.write_text(good + "\n{oops\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_bad_span_reports_line(self, tmp_path):
        record = example_to_record(labeled())
        record["anaphor"] = {"start": 0, "end": 999}
        path = tmp_path / "bad_span.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 1"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "offsets, value",
        [({"start": True, "end": 9}, "True"), ({"start": 4, "end": 8.9}, "8.9"),
         ({"start": "4", "end": 9}, "'4'")],
        ids=["bool", "float", "string"],
    )
    def test_non_integer_offset_reports_line_and_value(self, tmp_path, offsets, value):
        # int() would load these as the spans [1, 9), [4, 8) and [4, 9).
        record = example_to_record(labeled())
        record["antecedents"][0] = offsets
        path = tmp_path / "bad_span.jsonl"
        path.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError) as info:
            load_corpus(path)
        assert str(info.value) == f"corpus {path} line 2: span offset {value} is not an integer"

    def test_fixture_corpora_load_and_validate(self):
        train = load_corpus(FIXTURES / "synthetic_train.jsonl")
        test = load_corpus(FIXTURES / "synthetic_test.jsonl")
        assert len(train) == 64
        assert len(test) == 64
        for ex in list(train) + list(test):
            ex.validate()


class TestReadJson:
    def test_document_is_decoded_whole(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1, 2]}', encoding="utf-8")
        assert read_json(path, "doc", lambda value: value["a"]) == [1, 2]

    def test_jsonl_skips_blank_lines_but_counts_them(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"n": 1}\n\n{"n": 2}\n{"m": 3}\n', encoding="utf-8")
        with pytest.raises(CorpusError) as info:
            read_json(path, "rows", lambda row: row["n"], lines=True)
        assert str(info.value) == f"rows {path} line 4: missing field 'n'"
        path.write_text('{"n": 1}\n\n{"n": 2}\n', encoding="utf-8")
        assert read_json(path, "rows", lambda row: row["n"], lines=True) == [1, 2]

    def test_too_deeply_nested_line_is_a_corpus_error(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text("{}\n" + "[" * 100_000 + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=" line 2: maximum recursion depth"):
            read_json(path, "rows", dict, lines=True)

    def test_unreadable_file_names_no_line(self, tmp_path):
        with pytest.raises(CorpusError) as info:
            read_json(tmp_path, "rows", dict, lines=True)
        assert str(info.value).startswith(f"rows {tmp_path}: [Errno ")


class TestSampleKshot:
    def make(self, n):
        return Dataset(tuple(labeled(f"d{i}") for i in range(n)), "pool")

    def test_matches_documented_partial_fisher_yates(self):
        ds = self.make(10)
        sample = sample_kshot(ds, k=4, seed=99)
        rng = np.random.Generator(np.random.PCG64(99))
        indices = list(range(10))
        for i in range(4):
            j = int(rng.integers(i, 10))
            indices[i], indices[j] = indices[j], indices[i]
        expected = tuple(ds.examples[i] for i in indices[:4])
        assert sample.examples == expected
        assert sample.k == 4
        assert sample.seed == 99

    @pytest.mark.parametrize("n, m", [(1, 1), (10, 3), (10, 10), (1000, 7)])
    def test_seeded_prefix_is_the_documented_shuffle(self, n, m):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([5, 2])))
        slots = list(range(n))
        for i in range(m):
            j = int(rng.integers(i, n))
            slots[i], slots[j] = slots[j], slots[i]
        assert seeded_prefix(n, m, [5, 2]) == slots[:m]

    def test_same_seed_same_sample(self):
        ds = self.make(12)
        a = sample_kshot(ds, k=5, seed=3)
        b = sample_kshot(ds, k=5, seed=3)
        assert a.examples == b.examples

    def test_different_seeds_differ(self):
        ds = self.make(12)
        samples = {sample_kshot(ds, k=5, seed=s).examples for s in range(20)}
        assert len(samples) > 1

    def test_k_equal_n_is_a_permutation(self):
        ds = self.make(6)
        sample = sample_kshot(ds, k=6, seed=0)
        assert sorted(e.doc_id for e in sample.examples) == sorted(
            e.doc_id for e in ds.examples
        )

    def test_k_beyond_n_rejected(self):
        with pytest.raises(ValueError, match="exceeds dataset size"):
            sample_kshot(self.make(3), k=4, seed=0)

    def test_no_duplicates_in_sample(self):
        ds = self.make(20)
        for seed in range(10):
            sample = sample_kshot(ds, k=8, seed=seed)
            keys = [e.key for e in sample.examples]
            assert len(set(keys)) == len(keys)
