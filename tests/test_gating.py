"""Hashing embedder, cosine similarity, and softmax gating."""
import hashlib
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mice import gating
from mice.gateway import BackendError, RemoteEmbedder
from mice.gating import (
    GatingDistribution,
    HashingEmbedder,
    cosine,
    gate,
    row_norms,
    similarities,
)
from mice.prompts import Prompt
from support import DROP, Reply


def vectors(dim):
    """Vectors of ``dim`` finite floats, the zero vector among them."""
    return st.one_of(
        st.just([0.0] * dim), st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)
    )


def make_prompt(pid, demos):
    return Prompt(
        prompt_id=pid, universe_index=pid, demo_indices=tuple(demos),
        text=f"prompt {pid}", token_count=1,
    )


class TestHashingEmbedder:
    def test_vectors_are_unit_norm(self):
        vecs = HashingEmbedder(64).embed(["Add water", "whatever else"])
        norms = np.linalg.norm(vecs, axis=1)
        assert np.allclose(norms, 1.0)

    def test_deterministic_across_instances(self):
        a = HashingEmbedder(128).embed(["the mixture was stirred"])
        b = HashingEmbedder(128).embed(["the mixture was stirred"])
        assert np.array_equal(a, b)

    def test_case_and_punctuation_insensitive(self):
        emb = HashingEmbedder(128)
        a = emb.embed(["Add Water!"])
        b = emb.embed(["add water"])
        assert np.array_equal(a, b)

    def test_empty_text_gets_reserved_bucket(self):
        vec = HashingEmbedder(32).embed(["", "..."])
        assert vec[0][0] == 1.0
        assert vec[1][0] == 1.0

    def test_token_multiplicity_counts(self):
        emb = HashingEmbedder(256)
        once = emb.embed(["water brine"])[0]
        twice = emb.embed(["water water brine"])[0]
        assert cosine(once, twice) < 1.0

    def test_shared_vocabulary_increases_similarity(self):
        emb = HashingEmbedder(1024)
        a, b, c = emb.embed(
            [
                "charge the flask with water and brine",
                "charge the flask with water and toluene",
                "entirely unrelated sentence about nothing",
            ]
        )
        assert cosine(a, b) > cosine(a, c)

    @staticmethod
    def reference(texts, dim):
        """The embedding written out token by token: one digest and one ``+= 1.0`` each."""
        out = np.zeros((len(texts), dim))
        for row, text in enumerate(texts):
            tokens = re.findall(r"[a-z0-9]+", text.lower())
            if not tokens:
                out[row, 0] = 1.0
                continue
            for tok in tokens:
                digest = hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest()
                out[row, 1 + int.from_bytes(digest, "big") % (dim - 1)] += 1.0
            out[row] /= np.linalg.norm(out[row])
        return out

    # Empty, punctuation-only, repeated-token and non-ASCII texts among the draws.
    TEXTS = st.lists(st.one_of(
        st.sampled_from(["", "...", "water water water", "Wasser, Öl und Eis", "1,4-dioxane"]),
        st.text(alphabet="ab9 ,.é", max_size=20),
        st.text(max_size=20),
    ), max_size=6)

    @settings(max_examples=60, deadline=None)
    @given(texts=TEXTS, earlier=TEXTS, dim=st.sampled_from([2, 3, 64, 1024]))
    def test_matches_the_per_token_reference_fresh_or_warm(self, texts, earlier, dim):
        expected = self.reference(texts, dim)
        assert np.array_equal(HashingEmbedder(dim).embed(texts), expected)
        warm = HashingEmbedder(dim)  # every token of ``texts`` already remembered
        warm.embed(earlier + texts)
        assert np.array_equal(warm.embed(texts), expected)

    def test_each_distinct_token_is_digested_once_per_embedder(self, monkeypatch):
        digested = []
        blake2b = hashlib.blake2b

        def counting(data, **kwargs):
            digested.append(data)
            return blake2b(data, **kwargs)

        monkeypatch.setattr(gating.hashlib, "blake2b", counting)
        emb = HashingEmbedder(64)
        emb.embed(["water and brine", "brine, then water"])
        emb.embed(["water and ice", "ice water"])
        assert sorted(digested) == sorted({b"water", b"and", b"brine", b"then", b"ice"})
        HashingEmbedder(64).embed(["water"])
        assert digested.count(b"water") == 2


TIMEOUT = 0.25


def remote_embedder(serve, outcomes):
    server = serve(outcomes)
    embedder = server.client(
        RemoteEmbedder, token="secret", timeout=TIMEOUT, sleep=lambda s: None
    )
    return embedder, server


def stall(call):
    time.sleep(2 * TIMEOUT)
    return DROP


class TestRemoteEmbedder:
    def test_returns_one_vector_per_text(self, serve):
        embedder, server = remote_embedder(
            serve, [Reply(200, {"vectors": [[1.0, 0.0], [0.0, 1.0]]})]
        )
        vectors = embedder.embed(["a", "b"])
        assert vectors.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        call = server.calls[0]
        assert call["json"] == {"texts": ["a", "b"]}
        assert call["headers"]["Authorization"] == "Bearer secret"

    @pytest.mark.parametrize(
        "outcomes, attempts",
        [
            ([DROP] * 3, 3),
            (stall, 3),
            ([503] * 3, 3),
            ([Reply(200, b"<html>")], 1),
            ([Reply(200, {"embeddings": []})], 1),
            ([Reply(200, {"vectors": [[1.0, 0.0]]})], 1),
            ([Reply(200, {"vectors": [0.5, 0.5]})], 1),
            ([Reply(200, {"vectors": [[int("9" * 400), 1], [0.0, 1.0]]})], 1),
        ],
        ids=["unreachable", "timeout", "http-503", "not-json", "no-vectors", "wrong-count",
             "not-a-matrix", "too-large-for-a-float"],
    )
    def test_endpoint_failures_are_backend_errors(self, serve, outcomes, attempts):
        embedder, server = remote_embedder(serve, outcomes)
        with pytest.raises(BackendError, match="^embedding request") as info:
            embedder.embed(["a", "b"])
        assert info.value.attempts == attempts
        assert len(server.calls) == attempts


class TestCosine:
    def test_orthogonal_is_zero(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector_scores_zero(self):
        assert cosine(np.zeros(3), np.array([1.0, 0.0, 0.0])) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine(np.ones(3), np.ones(4))
        with pytest.raises(ValueError, match="mismatch"):
            similarities(np.zeros(3), np.ones((2, 4)), [2.0, 2.0])

    def test_similarities_vectorizes(self):
        demos = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        sims = similarities(np.array([1.0, 0.0]), demos, row_norms(demos))
        assert sims == pytest.approx([1.0, 0.0, 1 / math.sqrt(2)])

    @given(st.integers(1, 8).flatmap(
        lambda dim: st.tuples(vectors(dim), st.lists(vectors(dim), max_size=6))))
    def test_similarities_are_per_row_cosine_bit_for_bit(self, case):
        test = np.array(case[0])
        demos = np.array(case[1]).reshape(-1, len(test))
        expected = np.array([cosine(test, row) for row in demos], dtype=np.float64)
        sims = similarities(test, demos, row_norms(demos))
        assert sims.dtype == np.float64
        assert sims.tobytes() == expected.tobytes()


class TestGatingDistribution:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            GatingDistribution({0: 0.6, 1: 0.6})

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            GatingDistribution({0: 1.5, 1: -0.5})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GatingDistribution({})

    @pytest.mark.parametrize(
        "weights", [{0: math.nan}, {0: 1.0, 1: math.nan}, {0: math.inf, 1: -math.inf}]
    )
    def test_nan_weights_rejected(self, weights):
        # Every comparison with NaN is False, so each check must be one that NaN fails.
        with pytest.raises(ValueError, match="gating weights sum to nan, expected 1"):
            GatingDistribution(weights)

    def test_uniform(self):
        dist = GatingDistribution.uniform([3, 5, 9])
        assert dist[3] == pytest.approx(1 / 3)
        assert dist[9] == pytest.approx(1 / 3)

    def test_single_is_exactly_one(self):
        assert GatingDistribution.single(7)[7] == 1.0


class TestGate:
    def test_two_prompt_softmax_by_hand(self):
        sims = [0.2, 0.6]
        prompts = [make_prompt(0, (0,)), make_prompt(1, (1,))]
        dist = gate(prompts, sims)
        expected_1 = 1.0 / (1.0 + math.exp(0.2 - 0.6))
        assert dist[1] == pytest.approx(expected_1, abs=1e-12)
        assert dist[0] == pytest.approx(1 - expected_1, abs=1e-12)

    def test_scores_sum_over_contained_demos(self):
        sims = [0.1, 0.4]
        prompts = [make_prompt(0, (0, 1)), make_prompt(1, (1, 1))]
        dist = gate(prompts, sims)
        # Scores 0.5 vs 0.8.
        expected_1 = math.exp(0.8 - 0.8) / (math.exp(0.5 - 0.8) + 1.0)
        assert dist[1] == pytest.approx(expected_1, abs=1e-12)

    def test_single_prompt_weight_is_exactly_one(self):
        dist = gate([make_prompt(0, (0, 1))], [0.3, 0.4])
        assert dist[0] == 1.0

    def test_empty_prompt_list_rejected(self):
        with pytest.raises(ValueError):
            gate([], [0.1])

    def test_promptless_demos_score_zero(self):
        prompts = [make_prompt(0, ()), make_prompt(1, (0,))]
        dist = gate(prompts, [0.5])
        expected_1 = 1.0 / (math.exp(-0.5) + 1.0)
        assert dist[1] == pytest.approx(expected_1, abs=1e-12)

    def test_product_combine_multiplies_sims(self):
        sims = [0.5, 0.8]
        prompts = [make_prompt(0, (0, 1)), make_prompt(1, (1, 1))]
        dist = gate(prompts, sims, combine="product")
        s0, s1 = 0.4, 0.64
        expected_1 = math.exp(s1 - s1) / (math.exp(s0 - s1) + 1.0)
        assert dist[1] == pytest.approx(expected_1, abs=1e-12)

    def test_unknown_combine_rejected(self):
        with pytest.raises(ValueError, match="combine"):
            gate([make_prompt(0, (0,))], [0.1], combine="mean")

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=8),
        st.floats(-100, 100),
    )
    def test_shift_invariance_property(self, sims, shift):
        prompts = [make_prompt(i, (i,)) for i in range(len(sims))]
        base = gate(prompts, sims)
        shifted = gate(prompts, [s + shift for s in sims])
        for pid in range(len(sims)):
            assert shifted[pid] == pytest.approx(base[pid], abs=1e-9)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=16))
    def test_weights_always_sum_to_one(self, sims):
        prompts = [make_prompt(i, (i,)) for i in range(len(sims))]
        dist = gate(prompts, sims)
        assert sum(dist.weights.values()) == pytest.approx(1.0, abs=1e-9)
