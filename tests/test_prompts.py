"""Prompt templating, demonstration-tuple universes, and budget packing."""
import tracemalloc
from functools import cache
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mice.combine import extract_prediction
from mice.corpus import Dataset, load_corpus, sample_kshot, seeded_prefix
from mice.gateway import Generation, WordTokenizer
from mice.prompts import (
    Ordering,
    Prompt,
    PromptBudgetError,
    PromptSetConfig,
    Selection,
    Template,
    _decode,
    _encode,
    _order,
    _select_universe_indices,
    _top_gated_scores,
    enumerate_prompts,
    select_kate_prompt,
    universe_size,
)

from conftest import FIXTURES
from support import make_dataset, make_example

TOK = WordTokenizer()


def tiny_sample(n=4, k=4, seed=0):
    return sample_kshot(make_dataset(n), k=k, seed=seed)


def parse(template, generated):
    """The antecedent surfaces the combiners read from a generated answer."""
    prediction = extract_prediction(Generation(text=generated), template, TOK)
    return list(prediction.generated_antecedents)


@cache
def universe(k, d):
    """Every demo tuple in universe order: ordered with replacement up to two
    demos, ordered and distinct beyond, each enumeration lexicographic."""
    return list(product(range(k), repeat=d) if d <= 2 else permutations(range(k), d))


def reference_top_gated(k, d, max_prompts, similarities):
    """Top-gated selection as a plain sort of (-summed similarity, index)."""
    sums = [sum(similarities[i] for i in combo) for combo in universe(k, d)]
    return sorted(sorted(range(len(sums)), key=lambda u: (-sums[u], u))[:max_prompts])


def order_one(demos, sims, ordering, seed, u):
    """One tuple through the prompt builders' one ordering step."""
    config = PromptSetConfig(ordering=ordering, seed=seed)
    (ordered,) = _order(np.array([demos]), np.array([u]), np.array(sims), config)
    return ordered


class TestTokenizer:
    def test_separator_counts_as_one_token(self):
        assert TOK.count("water | DCM") == 3

    def test_punctuation_splits(self):
        assert TOK.count("CH2CL2 (40 mL)") == 5

    def test_span_tokenize_round_trip(self):
        text = "Add 5 mL of H2O; stir."
        spans = TOK.span_tokenize(text)
        assert [text[a:b] for a, b in spans] == TOK.tokenize(text)

    @given(st.text())
    def test_count_agrees_with_spans(self, text):
        assert TOK.count(text) == len(TOK.span_tokenize(text))


class TestTemplate:
    def test_render_matches_golden_file(self):
        train = load_corpus(FIXTURES / "synthetic_train.jsonl")
        rendered = Template().render_prompt(
            [train.examples[0], train.examples[1]], train.examples[2]
        )
        golden = (FIXTURES / "golden_prompt.txt").read_text(encoding="utf-8")
        assert rendered == golden

    def test_question_substitutes_anaphor(self):
        ex = make_example("d", ["water"], anaphor="the residue")
        assert Template().question(ex) == "Question: What does the residue contain?"

    @pytest.mark.parametrize("pattern", ["{anaphor[x]}", "{0}", "{thing}"])
    def test_a_question_pattern_that_needs_more_than_the_anaphor_is_refused(self, pattern):
        with pytest.raises(ValueError, match=r"must format with \{anaphor\} alone"):
            Template(question_pattern=pattern)

    def test_parse_antecedents_dedups_and_strips(self):
        parsed = parse(Template(), "water |  DCM | water \nmore junk")
        assert parsed == ["water", "DCM"]

    def test_parse_antecedents_drops_empties(self):
        assert parse(Template(), " | water || ") == ["water"]

    def test_parse_inverts_linearize(self):
        template = Template()
        surfaces = ["citric acid", "water", "the aqueous layer"]
        assert parse(template, template.linearize(surfaces)) == surfaces

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    def test_parse_linearize_round_trip_property(self, surfaces):
        template = Template()
        assert parse(template, template.linearize(surfaces)) == surfaces

    def test_validate_against_rejects_separator_in_answers(self):
        sample = sample_kshot(make_dataset(2), k=2, seed=0)
        bad = Template(separator="A")  # every answer contains letter pairs with A
        with pytest.raises(ValueError, match="separator"):
            bad.validate_against(sample)


class TestUniverse:
    def test_sizes(self):
        assert universe_size(5, 1) == 5
        assert universe_size(5, 2) == 25
        assert universe_size(5, 3) == 60  # 5 * 4 * 3
        assert universe_size(4, 4) == 24

    @pytest.mark.parametrize("d", range(6))
    def test_size_counts_the_universe(self, d):
        # d > k leaves no distinct tuple past two demos, and k**d tuples up to two.
        for k in range(8):
            assert universe_size(k, d) == len(universe(k, d)), (k, d)

    def test_pairs_are_row_major(self):
        k = 4
        for i in range(k):
            for j in range(k):
                assert _encode(np.array([[i, j]]), k).tolist() == [i * k + j]
                assert _decode(np.array([i * k + j]), k, 2).tolist() == [[i, j]]

    def test_distinct_tuples_beyond_two_demos(self):
        k, d = 5, 3
        seen = set()
        for combo in map(tuple, _decode(np.arange(universe_size(k, d)), k, d).tolist()):
            assert len(set(combo)) == d
            seen.add(combo)
        assert len(seen) == 60

    @given(st.integers(2, 7), st.integers(1, 4), st.data())
    def test_encode_decode_round_trip(self, k, d, data):
        if d > k:
            d = k
        total = universe_size(k, d)
        u = data.draw(st.integers(0, total - 1))
        combo = _decode(np.array([u]), k, d)
        assert _encode(combo, k).tolist() == [u]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_array_decode_and_encode_match_the_scalar_helpers(self, d):
        for k in range(1 if d <= 2 else d, 8):
            total = universe_size(k, d)
            rows = _decode(np.arange(total), k, d)
            assert [tuple(row) for row in rows.tolist()] == universe(k, d)
            assert _encode(rows, k).tolist() == list(range(total))

    def test_round_trip_is_lexicographic_for_distinct_tuples(self):
        combos = _decode(np.arange(universe_size(4, 3)), 4, 3).tolist()
        assert combos == sorted(combos)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @settings(max_examples=20)
    @given(st.lists(st.floats(-1, 1), min_size=7, max_size=7))
    def test_ranking_scores_are_python_sums(self, d, sims):
        # Bit for bit, so top-gated ties fall exactly where sum() puts them.
        for k in range(1, 8):
            scores = _top_gated_scores(k, d, sims[:k])
            expected = [sum(sims[i] for i in combo) for combo in universe(k, d)]
            assert [x.hex() for x in scores.tolist()] == [x.hex() for x in expected]


class TestOrdering:
    SIMS = [0.9, 0.1, 0.5]

    def test_ascend_puts_most_similar_last(self):
        assert order_one((0, 1, 2), self.SIMS, Ordering.ASCEND, 0, 0) == (1, 2, 0)

    def test_descend_puts_most_similar_first(self):
        assert order_one((0, 1, 2), self.SIMS, Ordering.DESCEND, 0, 0) == (0, 2, 1)

    def test_ties_break_by_position(self):
        sims = [0.5, 0.5]
        assert order_one((0, 1), sims, Ordering.ASCEND, 0, 0) == (0, 1)
        assert order_one((1, 0), sims, Ordering.ASCEND, 0, 0) == (1, 0)

    def test_mixed_is_deterministic_per_seed_and_prompt(self):
        a = order_one((0, 1, 2), self.SIMS, Ordering.MIXED, 7, 12)
        b = order_one((0, 1, 2), self.SIMS, Ordering.MIXED, 7, 12)
        assert a == b

    # (demos, seed, universe index) -> the mixed order of (0, 1, ..., demos - 1).
    MIXED_ORDERS = {
        (2, 0, 0): (1, 0),
        (3, 7, 12): (2, 1, 0),
        (4, 1, 100): (1, 3, 0, 2),
        (5, 7, 0): (4, 3, 0, 2, 1),
        (5, 7, 1): (4, 0, 1, 3, 2),
        (6, 123, 45678): (4, 0, 1, 3, 2, 5),
    }

    @pytest.mark.parametrize("case", sorted(MIXED_ORDERS))
    def test_mixed_orders_are_pinned(self, case):
        d, seed, u = case
        order = order_one(tuple(range(d)), [0.1] * d, Ordering.MIXED, seed, u)
        assert order == self.MIXED_ORDERS[case]

    def test_mixed_varies_across_universe_indices(self):
        orders = {
            order_one(tuple(range(5)), [0.1] * 5, Ordering.MIXED, 7, u)
            for u in range(20)
        }
        assert len(orders) > 1


class TestSelection:
    def test_small_universe_keeps_every_tuple(self):
        sample = tiny_sample()
        config = PromptSetConfig(demos_per_prompt=2, max_prompts=256)
        prompts = enumerate_prompts(
            sample, make_example("t", ["water"]), config, [0.1, 0.2, 0.3, 0.4],
            Template(), TOK,
        )
        assert len(prompts) == 16
        assert [p.prompt_id for p in prompts] == list(range(16))
        assert [p.universe_index for p in prompts] == list(range(16))

    def test_top_gated_takes_highest_similarity_sums(self):
        sample = tiny_sample()
        config = PromptSetConfig(demos_per_prompt=2, max_prompts=4)
        sims = [0.0, 0.1, 0.2, 0.9]
        prompts = enumerate_prompts(
            sample, make_example("t", ["water"]), config, sims, Template(), TOK
        )
        # Scores: (3,3)=1.8, (2,3)=(3,2)=1.1, then (1,3)/(3,1) tie at 1.0
        # broken toward the lower universe index (1,3)=7. Ids re-densify
        # in universe order.
        assert [p.universe_index for p in prompts] == [7, 11, 14, 15]
        assert [p.prompt_id for p in prompts] == [0, 1, 2, 3]

    @settings(max_examples=200)
    @given(st.integers(2, 8), st.integers(1, 3), st.integers(1, 600), st.data())
    def test_top_gated_matches_reference_sort(self, k, d, max_prompts, data):
        # Similarities rounded to one decimal force many tied scores.
        sims = data.draw(
            st.lists(
                st.integers(-10, 10).map(lambda i: i / 10), min_size=k, max_size=k
            )
        )
        config = PromptSetConfig(demos_per_prompt=d, max_prompts=max_prompts)
        assert _select_universe_indices(k, config, sims) == reference_top_gated(
            k, d, max_prompts, sims
        )

    # Exact ties and zeros, negatives, and magnitudes far apart.
    SIMILARITY = st.one_of(
        st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, -0.2]),
        st.floats(-1, 1),
        st.floats(-1e12, 1e12),
        st.floats(-1e-12, 1e-12),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12) | st.integers(9, 12), st.integers(1, 4), st.data())
    def test_pruned_ranking_matches_reference_sort(self, k, d, data):
        d = min(d, k) if d > 2 else d
        total = universe_size(k, d)
        # A few prompts out of many is where the ranking can be pruned.
        max_prompts = data.draw(
            st.integers(1, 8) | st.integers(1, total + 5), label="max_prompts"
        )
        sims = data.draw(st.lists(self.SIMILARITY, min_size=k, max_size=k), label="sims")
        config = PromptSetConfig(demos_per_prompt=d, max_prompts=max_prompts)
        picks = _select_universe_indices(k, config, sims)
        assert picks == reference_top_gated(k, d, max_prompts, sims)

    # (k, demos, max prompts, similarities) -> the top-gated selection; several
    # tuples tie at the n-th best score in each.
    TIED_PICKS = {
        (5, 2, 7, (0.3, 0.1, 0.3, 0.2, 0.1)): [0, 2, 3, 10, 12, 13, 15],
        (6, 2, 10, (0.2, 0.5, 0.2, 0.5, 0.1, 0.2)): [1, 3, 6, 7, 8, 9, 11, 13, 19, 21],
        (5, 3, 9, (0.4, 0.2, 0.4, 0.1, 0.2)): [0, 3, 5, 10, 12, 15, 24, 26, 27],
        (6, 3, 20, (0.1, 0.3, 0.3, 0.2, 0.3, 0.1)): [
            25, 26, 29, 30, 33, 34, 45, 46, 49, 50, 53, 54, 65, 66, 69, 70, 73, 74, 85, 89,
        ],
    }

    @pytest.mark.parametrize("case", sorted(TIED_PICKS))
    def test_top_gated_ties_at_the_cut_are_pinned(self, case):
        k, d, n, sims = case
        config = PromptSetConfig(demos_per_prompt=d, max_prompts=n)
        assert _select_universe_indices(k, config, list(sims)) == self.TIED_PICKS[case]

    def test_seeded_random_is_reproducible(self):
        sample = tiny_sample()
        config = PromptSetConfig(
            demos_per_prompt=2, max_prompts=5, selection=Selection.SEEDED_RANDOM, seed=9
        )
        first = enumerate_prompts(
            sample, make_example("t", ["water"]), config, [0.1] * 4, Template(), TOK
        )
        second = enumerate_prompts(
            sample, make_example("t", ["water"]), config, [0.1] * 4, Template(), TOK
        )
        assert [p.universe_index for p in first] == [p.universe_index for p in second]
        assert len(first) == 5

    # (k, demos, max prompts, seed) -> the seeded-random selection.
    SEEDED_PICKS = {
        (4, 2, 5, 9): [0, 5, 6, 14, 15],
        (8, 1, 3, 2): [1, 2, 6],
        (16, 2, 8, 3): [22, 47, 49, 62, 151, 206, 207, 223],
        (16, 3, 10, 1): [120, 488, 843, 1053, 1589, 1720, 2537, 2766, 3187, 3193],
        (32, 4, 8, 0): [14270, 35366, 64940, 232838, 265671, 441132, 549723, 734122],
    }

    @staticmethod
    def seeded(d, max_prompts, seed):
        return PromptSetConfig(demos_per_prompt=d, max_prompts=max_prompts,
                               selection=Selection.SEEDED_RANDOM, seed=seed)

    @pytest.mark.parametrize("case", sorted(SEEDED_PICKS))
    def test_seeded_random_picks_are_pinned(self, case):
        k, d, n, seed = case
        picks = _select_universe_indices(k, self.seeded(d, n, seed), [0.1] * k)
        assert picks == self.SEEDED_PICKS[case]

    def test_seeded_random_beyond_the_ranking_cap(self):
        # k=32, d=5 has 24,165,120 tuples, 24x what top-gated may rank.
        total = universe_size(32, 5)
        assert total == 24_165_120
        picks = _select_universe_indices(32, self.seeded(5, 256, 4), [0.1] * 32)
        assert len(picks) == 256
        assert picks == sorted(set(picks))
        assert 0 <= picks[0] and picks[-1] < total
        assert _select_universe_indices(32, self.seeded(5, 256, 4), [0.1] * 32) == picks

    def test_top_gated_beyond_the_ranking_cap_is_rejected(self):
        config = PromptSetConfig(demos_per_prompt=5, max_prompts=256)
        with pytest.raises(ValueError, match="too large to rank"):
            _select_universe_indices(32, config, [0.1] * 32)

    def test_seeded_random_memory_does_not_grow_with_the_universe(self):
        # k=32, d=4 has 863,040 tuples; a list of all their indices takes ~35 MB.
        tracemalloc.start()
        try:
            _select_universe_indices(32, self.seeded(4, 256, 0), [0.1] * 32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_top_gated_memory_is_released(self):
        # k=32, d=4 ranks 863,040 tuples, 6.9 MB of scores; nothing may
        # outlive the call.
        config = PromptSetConfig(demos_per_prompt=4, max_prompts=256)
        sims = [((i * 7) % 32) / 32 for i in range(32)]
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            _select_universe_indices(32, config, sims)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 18_000_000
        assert abs(after - before) < 1_000_000

    @pytest.mark.parametrize("max_prompts", [32, 256])
    def test_top_gated_ranks_only_the_most_similar_demos(self, max_prompts):
        # k=32, d=4: ranking all 863,040 tuples peaks at ~15.5 MB. With
        # distinct similarities, the tuples of the 10 or 12 most similar
        # demos settle the selection.
        config = PromptSetConfig(demos_per_prompt=4, max_prompts=max_prompts)
        sims = [((i * 7) % 32) / 32 for i in range(32)]
        tracemalloc.start()
        try:
            picks = _select_universe_indices(32, config, sims)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        key = -_top_gated_scores(32, 4, sims)
        assert picks == sorted(np.argsort(key, kind="stable")[:max_prompts].tolist())

    def test_seeded_random_differs_by_seed(self):
        sample = tiny_sample()
        picks = set()
        for seed in range(8):
            config = PromptSetConfig(
                demos_per_prompt=2,
                max_prompts=5,
                selection=Selection.SEEDED_RANDOM,
                seed=seed,
            )
            prompts = enumerate_prompts(
                sample, make_example("t", ["water"]), config, [0.1] * 4, Template(), TOK
            )
            picks.add(tuple(p.universe_index for p in prompts))
        assert len(picks) > 1


class TestBudget:
    def test_prompts_respect_budget(self):
        sample = tiny_sample()
        config = PromptSetConfig(max_sequence_length=160, generation_reserve=16)
        prompts = enumerate_prompts(
            sample, make_example("t", ["water"]), config, [0.4, 0.3, 0.2, 0.1],
            Template(), TOK,
        )
        assert prompts
        for p in prompts:
            assert p.token_count <= config.input_budget

    def test_trim_drops_least_similar_demo_first(self):
        long_tail = "was stirred. " + "Filler words pad the context. " * 20
        ds = Dataset(
            tuple(
                make_example(f"d{i}", [f"reagent A{i}", f"solvent B{i}"], tail=long_tail)
                for i in range(3)
            ),
            "long",
        )
        sample = sample_kshot(ds, k=3, seed=0)
        test = make_example("t", ["water"])
        full = Template().render_prompt(list(sample.examples), test)
        budget_for_two = TOK.count(full) - 10
        config = PromptSetConfig(
            demos_per_prompt=3,
            max_sequence_length=budget_for_two + 64,
            generation_reserve=64,
        )
        sims = [0.9, 0.05, 0.5]
        prompts = enumerate_prompts(sample, test, config, sims, Template(), TOK)
        # Universe of ordered distinct triples; every prompt drops demo 1.
        for p in prompts:
            assert 1 in p.dropped_demo_indices
            assert 1 not in p.demo_indices

    def test_unfittable_test_input_raises(self):
        test = make_example("t", ["water"], tail="endless " * 400)
        sample = tiny_sample()
        config = PromptSetConfig(max_sequence_length=64, generation_reserve=8)
        with pytest.raises(PromptBudgetError, match="budget"):
            enumerate_prompts(sample, test, config, [0.1] * 4, Template(), TOK)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PromptSetConfig(demos_per_prompt=0)
        with pytest.raises(ValueError):
            PromptSetConfig(max_sequence_length=100, generation_reserve=100)


class CountingTokenizer:
    """The word tokenizer, recording every text it counts."""

    def __init__(self):
        self.counted = []

    def count(self, text):
        self.counted.append(text)
        return TOK.count(text)


def spec_order(combo, sims, config, u):
    """The documented order: ascend and descend sort by similarity, ties in
    tuple order; mixed takes the positions seeded_prefix(d, d, [seed, u])."""
    if config.ordering is Ordering.MIXED:
        return [combo[p] for p in seeded_prefix(len(combo), len(combo), [config.seed, u])]
    sign = 1 if config.ordering is Ordering.ASCEND else -1
    return sorted(combo, key=lambda i: sign * sims[i])


def reference_prompts(sample, test, config, sims):
    """Each selected tuple ordered, then trimmed, on its own."""
    k, d = sample.k, config.demos_per_prompt
    prompts = []
    for prompt_id, u in enumerate(_select_universe_indices(k, config, sims)):
        current = spec_order(universe(k, d)[u], sims, config, u)
        dropped = []
        while True:
            text = Template().render_prompt([sample.examples[i] for i in current], test)
            if TOK.count(text) <= config.input_budget:
                break
            victim = min(range(len(current)), key=lambda p: (sims[current[p]], p))
            dropped.append(current.pop(victim))
        prompts.append(Prompt(
            prompt_id, u, tuple(current), text, TOK.count(text), tuple(dropped)
        ))
    return prompts


class TestBuildOnce:
    # Demo i carries i padding clauses, so under the tight budget some
    # prompts keep two demos, others one.
    SAMPLE = sample_kshot(
        Dataset(tuple(
            make_example(f"d{i}", [f"reagent A{i}"], tail="was stirred." + " Then wait." * i)
            for i in range(5)
        ), "padded"),
        k=5, seed=0,
    )
    TEST = make_example("t", ["water"])
    SIMS = [0.3, 0.1, 0.3, 0.2, 0.5]

    def config(self, d, ordering, budget=2048):
        return PromptSetConfig(
            demos_per_prompt=d, max_prompts=12, ordering=ordering,
            max_sequence_length=budget + 16, generation_reserve=16,
        )

    @pytest.mark.parametrize("ordering", [Ordering.ASCEND, Ordering.DESCEND])
    @pytest.mark.parametrize("d", [2, 3])
    def test_each_distinct_text_is_counted_once(self, d, ordering):
        tokenizer = CountingTokenizer()
        prompts = enumerate_prompts(
            self.SAMPLE, self.TEST, self.config(d, ordering), self.SIMS, Template(), tokenizer
        )
        texts = {p.text for p in prompts}
        assert len(texts) < len(prompts)  # some permutations order alike
        assert sorted(tokenizer.counted) == sorted(texts)

    @pytest.mark.parametrize("budget", [2048, 85])
    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("d", [2, 3])
    def test_shared_builds_equal_per_tuple_builds(self, d, ordering, budget):
        config = self.config(d, ordering, budget)
        prompts = enumerate_prompts(
            self.SAMPLE, self.TEST, config, self.SIMS, Template(), TOK
        )
        assert prompts == reference_prompts(self.SAMPLE, self.TEST, config, self.SIMS)
        assert any(p.dropped_demo_indices for p in prompts) == (budget < 2048)

    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("d", [2, 3])
    def test_a_non_finite_similarity_is_rejected(self, d, ordering):
        # A NaN or an infinity has no place in a ranking or a sort; both builders refuse it.
        for bad in (float("nan"), float("inf"), -float("inf")):
            sims = [0.3, bad, 0.3, 0.2, 0.5]
            for build in (enumerate_prompts, select_kate_prompt):
                with pytest.raises(ValueError, match=f"demonstration 1 is {bad}, not finite"):
                    build(self.SAMPLE, self.TEST, self.config(d, ordering), sims, Template(), TOK)


class TestKatePrompt:
    def test_picks_top_two_by_similarity(self):
        sample = tiny_sample()
        sims = [0.1, 0.8, 0.3, 0.9]
        prompt = select_kate_prompt(
            sample, make_example("t", ["water"]), PromptSetConfig(), sims,
            Template(), TOK,
        )
        assert sorted(prompt.demo_indices) == [1, 3]
        # Ascending order puts the less similar demo first.
        assert prompt.demo_indices == (1, 3)
        assert prompt.prompt_id == 0

    def test_similarity_ties_break_by_position(self):
        sample = tiny_sample()
        sims = [0.5, 0.5, 0.5, 0.5]
        prompt = select_kate_prompt(
            sample, make_example("t", ["water"]), PromptSetConfig(), sims,
            Template(), TOK,
        )
        assert sorted(prompt.demo_indices) == [0, 1]

    @pytest.mark.parametrize("k, d", [(1, 2), (4, 5)])
    def test_more_distinct_demos_than_k_are_rejected(self, k, d):
        config = PromptSetConfig(demos_per_prompt=d)
        with pytest.raises(
            ValueError, match=f"no prompt of {d} distinct demonstrations can be drawn from k={k}"
        ):
            select_kate_prompt(
                tiny_sample(k=k), make_example("t", ["water"]), config, [0.1] * k,
                Template(), TOK,
            )


class TestPromptDataclass:
    def test_prompt_records_trace_fields(self):
        p = Prompt(
            prompt_id=3, universe_index=7, demo_indices=(1, 2), text="x",
            token_count=1, dropped_demo_indices=(0,),
        )
        assert p.prompt_id == 3
        assert p.dropped_demo_indices == (0,)
