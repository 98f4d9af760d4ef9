"""Parsing generations into candidates and mixing them across prompts."""
import threading

import pytest

from mice.combine import (
    CandidateAntecedent,
    PromptPrediction,
    canonicalize,
    combine_kate_plus,
    combine_mice,
    combine_mice_sample,
    combine_product,
    combine_single,
    extract_prediction,
    first_token_prob,
)
from mice.gateway import DecodeParams, Generation, WordTokenizer
from mice.gating import GatingDistribution
from mice.prompts import Prompt, Template

TOK = WordTokenizer()
TEMPLATE = Template()


def pred(pid, antecedents, slots, degraded=False):
    return PromptPrediction(
        prompt_id=pid,
        generated_antecedents=tuple(antecedents),
        slot_distributions=tuple(slots),
        degraded=degraded,
    )


class TestCanonicalize:
    def test_collapses_whitespace_runs(self):
        assert canonicalize("  CH2CL2   (40  mL) ") == "CH2CL2 (40 mL)"

    def test_tabs_and_newlines_collapse(self):
        assert canonicalize("ice\t\nwater") == "ice water"

    def test_case_preserved(self):
        assert canonicalize("DCM") == "DCM"


class TestExtractPrediction:
    def test_two_slot_walk(self):
        gen = Generation(
            text="water | DCM\nleftover",
            tokens=("water", "|", "DCM", "\nleftover"),
            top_probs=(
                {"water": 0.8, "brine": 0.2},
                {"|": 1.0},
                {"DCM": 0.7},
                {},
            ),
        )
        out = extract_prediction(gen, TEMPLATE, TOK, prompt_id=3)
        assert out.prompt_id == 3
        assert out.generated_antecedents == ("water", "DCM")
        assert out.slot_distributions == ({"water": 0.8, "brine": 0.2}, {"DCM": 0.7})
        assert not out.degraded

    def test_multi_token_surface_uses_first_token_slot(self):
        gen = Generation(
            text="ice water | brine",
            tokens=("ice", "water", "|", "brine"),
            top_probs=({"ice": 0.6}, {"water": 0.9}, {"|": 1.0}, {"brine": 0.5}),
        )
        out = extract_prediction(gen, TEMPLATE, TOK)
        assert out.generated_antecedents == ("ice water", "brine")
        assert out.slot_distributions == ({"ice": 0.6}, {"brine": 0.5})
        assert not out.degraded

    def test_repeated_surface_keeps_both_slots(self):
        gen = Generation(
            text="water | water",
            tokens=("water", "|", "water"),
            top_probs=({"water": 0.8}, {"|": 1.0}, {"water": 0.3}),
        )
        out = extract_prediction(gen, TEMPLATE, TOK)
        assert out.generated_antecedents == ("water",)
        assert out.slot_distributions == ({"water": 0.8}, {"water": 0.3})
        assert not out.degraded

    def test_segments_canonicalized_and_empties_dropped(self):
        gen = Generation(text="  ice   water |  | DCM")
        out = extract_prediction(gen, TEMPLATE, TOK)
        assert out.generated_antecedents == ("ice water", "DCM")

    def test_only_first_line_is_parsed(self):
        gen = Generation(text="water\nbrine | DCM")
        out = extract_prediction(gen, TEMPLATE, TOK)
        assert out.generated_antecedents == ("water",)

    def test_newline_token_stops_walk(self):
        gen = Generation(
            text="water\nbrine",
            tokens=("water", "\n", "brine"),
            top_probs=({"water": 0.8}, {}, {"brine": 0.9}),
        )
        out = extract_prediction(gen, TEMPLATE, TOK)
        assert out.slot_distributions == ({"water": 0.8},)
        assert not out.degraded

    def test_missing_tokens_degrade_and_pad(self):
        gen = Generation(text="water | DCM")
        out = extract_prediction(gen, TEMPLATE, TOK)
        assert out.degraded
        assert out.slot_distributions == ({}, {})

    def test_surplus_slots_degrade_and_truncate(self):
        gen = Generation(
            text="water",
            tokens=("water", "|", "DCM"),
            top_probs=({"water": 0.8}, {"|": 1.0}, {"DCM": 0.7}),
        )
        out = extract_prediction(gen, TEMPLATE, TOK)
        assert out.degraded
        assert out.slot_distributions == ({"water": 0.8},)

    def test_no_logprobs_means_empty_slot_maps(self):
        gen = Generation(text="water | DCM", tokens=("water", "|", "DCM"))
        out = extract_prediction(gen, TEMPLATE, TOK)
        assert not out.degraded
        assert out.slot_distributions == ({}, {})

    def test_empty_generation(self):
        out = extract_prediction(Generation(text=""), TEMPLATE, TOK)
        assert out.generated_antecedents == ()
        assert out.slot_distributions == ()
        assert not out.degraded


class TestFirstTokenProb:
    def test_max_over_slots(self):
        p = pred(0, ["water"], [{"water": 0.2}, {"water": 0.9}, {"brine": 1.0}])
        assert first_token_prob("water", p) == 0.9

    def test_zero_when_absent_everywhere(self):
        p = pred(0, ["water"], [{"water": 0.2}])
        assert first_token_prob("DCM", p) == 0.0

    def test_zero_when_no_slots(self):
        assert first_token_prob("water", pred(0, [], [])) == 0.0


class TestCombineMice:
    def test_gate_weighted_sum(self):
        preds = [
            pred(0, ["water"], [{"water": 0.8, "brine": 0.2}]),
            pred(1, ["water", "DCM"], [{"water": 0.5}, {"DCM": 0.7}]),
        ]
        gating = GatingDistribution({0: 0.75, 1: 0.25})
        out = combine_mice(preds, gating, TOK)
        by_surface = {c.surface: c for c in out}
        assert by_surface["water"].combined_prob == pytest.approx(
            0.75 * 0.8 + 0.25 * 0.5, abs=1e-12
        )
        assert by_surface["DCM"].combined_prob == pytest.approx(0.25 * 0.7, abs=1e-12)
        assert by_surface["water"].per_prompt_prob == {0: 0.8, 1: 0.5}
        assert by_surface["DCM"].per_prompt_prob == {0: 0.0, 1: 0.7}

    def test_cross_prompt_probability_pickup(self):
        # Prompt 1 never emitted "brine" as a surface, yet its slot gave the
        # token mass; the mixture still credits it.
        preds = [
            pred(0, ["brine"], [{"brine": 0.6}]),
            pred(1, ["water"], [{"water": 0.7, "brine": 0.3}]),
        ]
        gating = GatingDistribution({0: 0.5, 1: 0.5})
        out = combine_mice(preds, gating, TOK)
        brine = next(c for c in out if c.surface == "brine")
        assert brine.combined_prob == pytest.approx(0.5 * 0.6 + 0.5 * 0.3, abs=1e-12)

    def test_zero_mass_candidates_dropped(self):
        preds = [
            pred(0, ["water"], [{}], degraded=True),
            pred(1, ["brine"], [{"brine": 0.4}]),
        ]
        gating = GatingDistribution({0: 0.5, 1: 0.5})
        out = combine_mice(preds, gating, TOK)
        assert [c.surface for c in out] == ["brine"]

    def test_multi_token_candidate_uses_first_token(self):
        preds = [pred(0, ["ice water"], [{"ice": 0.55}])]
        out = combine_mice(preds, GatingDistribution.single(0), TOK)
        assert out[0].first_token == "ice"
        assert out[0].combined_prob == pytest.approx(0.55, abs=1e-12)

    def test_ranking_ties_break_by_surface(self):
        preds = [
            pred(0, ["water", "brine"], [{"water": 0.4}, {"brine": 0.4}]),
        ]
        out = combine_mice(preds, GatingDistribution.single(0), TOK)
        assert [c.surface for c in out] == ["brine", "water"]

    def test_empty_prediction_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            combine_mice([], GatingDistribution.single(0), TOK)


class TestCombineMiceSample:
    def test_three_of_four_prompts_agree(self):
        preds = [
            pred(0, ["water"], []),
            pred(1, ["water"], []),
            pred(2, ["water"], []),
            pred(3, ["brine"], []),
        ]
        gating = GatingDistribution({0: 0.3, 1: 0.3, 2: 0.3, 3: 0.1})
        out = combine_mice_sample(preds, gating, TOK)
        assert [c.surface for c in out] == ["water", "brine"]
        assert out[0].combined_prob == pytest.approx(0.9, abs=1e-12)
        assert out[1].combined_prob == pytest.approx(0.1, abs=1e-12)
        assert out[0].per_prompt_prob == {0: 1.0, 1: 1.0, 2: 1.0, 3: 0.0}

    def test_indicator_ignores_slot_probabilities(self):
        preds = [pred(0, ["water"], [{"water": 0.01}])]
        out = combine_mice_sample(preds, GatingDistribution.single(0), TOK)
        assert out[0].combined_prob == 1.0

    def test_unemitted_surface_never_appears(self):
        preds = [
            pred(0, ["water"], [{"water": 0.5, "brine": 0.5}]),
            pred(1, ["water"], []),
        ]
        gating = GatingDistribution({0: 0.5, 1: 0.5})
        out = combine_mice_sample(preds, gating, TOK)
        assert [c.surface for c in out] == ["water"]

    def test_empty_prediction_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            combine_mice_sample([], GatingDistribution.single(0), TOK)


class TestCombineProduct:
    def test_floors_unseen_probabilities(self):
        preds = [
            pred(0, ["water"], [{"water": 0.8}]),
            pred(1, ["brine"], [{"brine": 0.4}]),
        ]
        out = combine_product(preds, TOK)
        by_surface = {c.surface: c for c in out}
        assert by_surface["water"].combined_prob == pytest.approx(
            0.8 * 1e-4, abs=1e-18
        )
        assert by_surface["brine"].combined_prob == pytest.approx(
            1e-4 * 0.4, abs=1e-18
        )
        # Raw, unfloored values are preserved per prompt.
        assert by_surface["water"].per_prompt_prob == {0: 0.8, 1: 0.0}

    def test_keeps_zero_mass_candidates(self):
        preds = [
            pred(0, ["water"], [{}], degraded=True),
            pred(1, ["brine"], [{"brine": 0.4}]),
        ]
        out = combine_product(preds, TOK)
        surfaces = {c.surface for c in out}
        assert surfaces == {"water", "brine"}
        water = next(c for c in out if c.surface == "water")
        assert water.combined_prob == pytest.approx(1e-4 * 1e-4, abs=1e-20)

    def test_keeps_candidates_whose_product_underflows(self):
        # 90 prompts, each alone in seeing its surface: 0.5 * 1e-4 ** 89
        # underflows to 0.0, and the candidate still survives combination.
        preds = [pred(i, [f"s{i}"], [{f"s{i}": 0.5}]) for i in range(90)]
        out = combine_product(preds, TOK)
        assert len(out) == 90
        assert {c.combined_prob for c in out} == {0.0}

    def test_all_seen_product(self):
        preds = [
            pred(0, ["water"], [{"water": 0.8}]),
            pred(1, ["water"], [{"water": 0.5}]),
        ]
        out = combine_product(preds, TOK)
        assert out[0].combined_prob == pytest.approx(0.4, abs=1e-12)

    def test_empty_prediction_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            combine_product([], TOK)


class TestCombineSingle:
    def test_full_confidence_per_surface(self):
        out = combine_single(pred(4, ["water", "DCM"], []), TOK)
        assert {c.surface: c.combined_prob for c in out} == {"water": 1.0, "DCM": 1.0}
        # Equal confidence ranks alphabetically.
        assert [c.surface for c in out] == ["DCM", "water"]
        assert all(c.per_prompt_prob == {4: 1.0} for c in out)


class FakeSamplingBackend:
    """Returns scripted answers keyed by decode seed; records every call."""

    def __init__(self, answers_by_seed):
        self._answers = answers_by_seed
        self.calls = []
        self._lock = threading.Lock()

    def complete(self, prompt, params):
        with self._lock:
            self.calls.append((prompt, params.seed))
        return Generation(text=self._answers[params.seed])


class TestCombineKatePlus:
    PROMPT = Prompt(
        prompt_id=0, universe_index=0, demo_indices=(0,), text="Answer:", token_count=1
    )

    def test_pooled_fractions(self):
        backend = FakeSamplingBackend(
            {100: "water", 101: "water", 102: "brine", 103: "water"}
        )
        decode = DecodeParams.nucleus(seed=100)
        candidates, generations = combine_kate_plus(
            self.PROMPT, backend, decode, n_samples=4, template=TEMPLATE,
            tokenizer=TOK, parallelism=1,
        )
        assert [g.text for g in generations] == ["water", "water", "brine", "water"]
        by_surface = {c.surface: c.combined_prob for c in candidates}
        assert by_surface["water"] == pytest.approx(0.75, abs=1e-12)
        assert by_surface["brine"] == pytest.approx(0.25, abs=1e-12)
        assert sorted(s for _, s in backend.calls) == [100, 101, 102, 103]

    def test_parallel_matches_serial(self):
        answers = {i: ("water" if i % 3 else "water | brine") for i in range(20)}
        decode = DecodeParams.nucleus(seed=0)
        serial, _ = combine_kate_plus(
            self.PROMPT, FakeSamplingBackend(answers), decode, n_samples=20,
            template=TEMPLATE, tokenizer=TOK, parallelism=1,
        )
        parallel, gens = combine_kate_plus(
            self.PROMPT, FakeSamplingBackend(answers), decode, n_samples=20,
            template=TEMPLATE, tokenizer=TOK, parallelism=6,
        )
        assert [(c.surface, c.combined_prob) for c in serial] == [
            (c.surface, c.combined_prob) for c in parallel
        ]
        # Generations come back in submission order regardless of parallelism.
        assert [g.text for g in gens] == [answers[i] for i in range(20)]

    def test_greedy_decoding_rejected(self):
        with pytest.raises(ValueError, match="nucleus"):
            combine_kate_plus(
                self.PROMPT, FakeSamplingBackend({}), DecodeParams.greedy(),
                n_samples=2, template=TEMPLATE, tokenizer=TOK,
            )

    def test_nonpositive_sample_count_rejected(self):
        with pytest.raises(ValueError, match="n_samples"):
            combine_kate_plus(
                self.PROMPT, FakeSamplingBackend({}), DecodeParams.nucleus(seed=1),
                n_samples=0, template=TEMPLATE, tokenizer=TOK,
            )

    def test_unseeded_base_defaults_to_zero(self):
        backend = FakeSamplingBackend({0: "water", 1: "brine"})
        candidates, _ = combine_kate_plus(
            self.PROMPT, backend, DecodeParams.nucleus(), n_samples=2,
            template=TEMPLATE, tokenizer=TOK, parallelism=1,
        )
        assert sorted(s for _, s in backend.calls) == [0, 1]
