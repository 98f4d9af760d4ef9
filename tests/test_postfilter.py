"""Candidate postfiltering: length cap, substring merge, probability gates."""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mice.combine import CandidateAntecedent
from mice.gateway import WordTokenizer
from mice.postfilter import FilterConfig, filter_and_merge

TOK = WordTokenizer()


def cand(surface, combined, per_prompt=None):
    return CandidateAntecedent(
        surface=surface,
        first_token=TOK.tokenize(surface)[0] if surface.strip() else surface,
        combined_prob=combined,
        per_prompt_prob=dict(per_prompt or {}),
    )


class TestFilterConfig:
    def test_defaults(self):
        cfg = FilterConfig()
        assert cfg.max_antecedent_tokens == 250
        assert cfg.per_prompt_threshold == 0.02
        assert cfg.combined_threshold == 0.1
        assert cfg.merge_substrings

    def test_permissive_disables_probability_gates(self):
        cfg = FilterConfig.permissive()
        assert cfg.per_prompt_threshold == 0.0
        assert cfg.combined_threshold == 0.0
        assert cfg.max_antecedent_tokens == 250

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_antecedent_tokens": 0},
            {"per_prompt_threshold": -0.01},
            {"combined_threshold": -1.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FilterConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["per_prompt_threshold", "combined_threshold"])
    def test_non_finite_floor_rejected(self, field, value):
        # `nan > 0.0` is False, so a NaN floor would silently filter nothing.
        with pytest.raises(ValueError, match=f"{field} must be finite and non-negative"):
            FilterConfig(**{field: value})


class TestLengthCap:
    def test_over_cap_dropped_at_cap_kept(self):
        cfg = FilterConfig.permissive()
        cfg = FilterConfig(
            max_antecedent_tokens=3, per_prompt_threshold=0.0, combined_threshold=0.0
        )
        out = filter_and_merge(
            [cand("one two three four", 0.9), cand("one two three", 0.8)], cfg, TOK
        )
        assert [c.surface for c in out] == ["one two three"]

    def test_capped_host_cannot_absorb_survivors(self):
        cfg = FilterConfig(
            max_antecedent_tokens=2, per_prompt_threshold=0.0, combined_threshold=0.0
        )
        out = filter_and_merge(
            [cand("ice water", 0.5), cand("super duper ice water", 0.9)], cfg, TOK
        )
        assert [c.surface for c in out] == ["ice water"]
        assert out[0].combined_prob == 0.5

    def test_punctuation_counts_toward_cap(self):
        cfg = FilterConfig(
            max_antecedent_tokens=4, per_prompt_threshold=0.0, combined_threshold=0.0
        )
        # "CH2CL2 (40 mL)" tokenizes to 5 pieces.
        out = filter_and_merge([cand("CH2CL2 (40 mL)", 0.9)], cfg, TOK)
        assert out == []


class TestSubstringMerge:
    def test_worked_example_merges_to_longer_surface(self):
        out = filter_and_merge(
            [
                cand("CH2CL2", 0.4, {0: 0.4, 1: 0.1}),
                cand("CH2CL2 (40 mL)", 0.3, {0: 0.05, 1: 0.3}),
            ],
            FilterConfig(),
            TOK,
        )
        assert len(out) == 1
        merged = out[0]
        assert merged.surface == "CH2CL2 (40 mL)"
        assert merged.combined_prob == 0.4
        assert merged.per_prompt_prob == {0: 0.4, 1: 0.3}

    def test_merge_rescues_host_below_combined_floor(self):
        out = filter_and_merge(
            [
                cand("CH2CL2", 0.4, {0: 0.4}),
                cand("CH2CL2 (40 mL)", 0.05, {1: 0.05}),
            ],
            FilterConfig(),
            TOK,
        )
        assert [c.surface for c in out] == ["CH2CL2 (40 mL)"]
        assert out[0].combined_prob == 0.4

    def test_chain_folds_into_longest(self):
        out = filter_and_merge(
            [cand("a", 0.2, {0: 0.2}), cand("ab", 0.5, {0: 0.5}), cand("abc", 0.3, {1: 0.3})],
            FilterConfig.permissive(),
            TOK,
        )
        assert [c.surface for c in out] == ["abc"]
        assert out[0].combined_prob == 0.5
        assert out[0].per_prompt_prob == {0: 0.5, 1: 0.3}

    def test_host_tie_breaks_to_lexicographically_smallest(self):
        out = filter_and_merge(
            [
                cand("water", 0.9, {0: 0.9}),
                cand("water tank", 0.2, {1: 0.2}),
                cand("water bath", 0.1, {2: 0.1}),
            ],
            FilterConfig.permissive(),
            TOK,
        )
        by_surface = {c.surface: c for c in out}
        assert set(by_surface) == {"water bath", "water tank"}
        assert by_surface["water bath"].combined_prob == 0.9
        assert by_surface["water bath"].per_prompt_prob == {0: 0.9, 2: 0.1}
        assert by_surface["water tank"].combined_prob == 0.2

    def test_substring_check_is_case_sensitive(self):
        out = filter_and_merge(
            [cand("Water", 0.5, {0: 0.5}), cand("water bath", 0.4, {0: 0.4})],
            FilterConfig.permissive(),
            TOK,
        )
        assert {c.surface for c in out} == {"Water", "water bath"}

    def test_unrelated_surfaces_untouched(self):
        out = filter_and_merge(
            [cand("water", 0.5, {0: 0.5}), cand("brine", 0.4, {0: 0.4})],
            FilterConfig.permissive(),
            TOK,
        )
        assert [c.surface for c in out] == ["water", "brine"]

    def test_merge_can_be_disabled(self):
        cfg = FilterConfig(
            merge_substrings=False, per_prompt_threshold=0.0, combined_threshold=0.0
        )
        out = filter_and_merge(
            [cand("CH2CL2", 0.4, {0: 0.4}), cand("CH2CL2 (40 mL)", 0.3, {0: 0.3})],
            cfg,
            TOK,
        )
        assert {c.surface for c in out} == {"CH2CL2", "CH2CL2 (40 mL)"}

    def test_merged_keeps_host_first_token(self):
        out = filter_and_merge(
            [
                cand("water", 0.5, {0: 0.5}),
                CandidateAntecedent(
                    surface="the water bath",
                    first_token="the",
                    combined_prob=0.2,
                    per_prompt_prob={1: 0.2},
                ),
            ],
            FilterConfig.permissive(),
            TOK,
        )
        assert out[0].surface == "the water bath"
        assert out[0].first_token == "the"


    def test_candidates_sharing_a_surface_come_out_once(self):
        out = filter_and_merge(
            [cand("water", 0.5, {0: 0.5}), cand("water", 0.7, {1: 0.2}), cand("ice", 0.1)],
            FilterConfig.permissive(),
            TOK,
        )
        assert [(c.surface, c.combined_prob, c.per_prompt_prob) for c in out] == [
            ("water", 0.7, {0: 0.5, 1: 0.2}), ("ice", 0.1, {}),
        ]

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="ab ", min_size=1, max_size=5),
                st.floats(0.0, 1.0),
                st.dictionaries(st.integers(0, 3), st.floats(0.0, 1.0), max_size=4),
            ),
            min_size=1,
            max_size=10,
            unique_by=lambda t: t[0],
        )
    )
    def test_each_candidate_joins_the_longest_maximal_surface_holding_it(self, rows):
        surfaces = [s for s, _, _ in rows]
        maximal = [s for s in surfaces if not any(s != t and s in t for t in surfaces)]
        members: dict[str, list] = {m: [] for m in maximal}
        for s, combined, per_prompt in rows:
            host = min((m for m in maximal if s in m), key=lambda m: (-len(m), m))
            members[host].append((combined, per_prompt))
        expected = {}
        for host, group in members.items():
            per_prompt = {}
            for _, probs in group:
                for pid, p in probs.items():
                    if p > 0.0:
                        per_prompt[pid] = max(p, per_prompt.get(pid, 0.0))
            expected[host] = (max(combined for combined, _ in group), per_prompt)
        out = filter_and_merge(
            [cand(s, p, pp) for s, p, pp in rows], FilterConfig.permissive(), TOK
        )
        assert {c.surface: (c.combined_prob, c.per_prompt_prob) for c in out} == expected
        assert len(out) == len(maximal)


class TestThresholds:
    def test_per_prompt_floor_is_inclusive(self):
        cfg = FilterConfig(merge_substrings=False, combined_threshold=0.0)
        kept = cand("water", 0.5, {0: 0.02, 1: 0.0})
        dropped = cand("brine", 0.5, {0: 0.019, 1: 0.0199})
        out = filter_and_merge([kept, dropped], cfg, TOK)
        assert [c.surface for c in out] == ["water"]

    def test_combined_floor_is_inclusive(self):
        cfg = FilterConfig(merge_substrings=False, per_prompt_threshold=0.0)
        out = filter_and_merge(
            [cand("water", 0.1, {0: 1.0}), cand("brine", 0.09, {0: 1.0})], cfg, TOK
        )
        assert [c.surface for c in out] == ["water"]

    def test_zero_thresholds_skip_the_gates(self):
        out = filter_and_merge(
            [cand("water", 0.0, {0: 0.0})], FilterConfig.permissive(), TOK
        )
        assert [c.surface for c in out] == ["water"]

    def test_no_per_prompt_record_fails_positive_floor(self):
        cfg = FilterConfig(merge_substrings=False, combined_threshold=0.0)
        out = filter_and_merge([cand("water", 0.5, {})], cfg, TOK)
        assert out == []


class TestOrderingAndIdempotence:
    def test_output_sorted_by_probability_then_surface(self):
        cfg = FilterConfig.permissive()
        out = filter_and_merge(
            [
                cand("zinc", 0.4, {0: 0.4}),
                cand("brine", 0.4, {0: 0.4}),
                cand("water", 0.9, {0: 0.9}),
            ],
            cfg,
            TOK,
        )
        assert [c.surface for c in out] == ["water", "brine", "zinc"]

    def test_empty_input(self):
        assert filter_and_merge([], FilterConfig(), TOK) == []

    SURFACE_POOL = (
        "a", "ab", "abc", "b ab", "water", "ice water", "dry ice water",
        "brine", "CH2CL2", "CH2CL2 (40 mL)",
    )

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(SURFACE_POOL),
                st.floats(0.0, 1.0),
                st.dictionaries(st.integers(0, 3), st.floats(0.0, 1.0), max_size=4),
            ),
            min_size=1,
            max_size=8,
            unique_by=lambda t: t[0],
        ),
        st.sampled_from(["default", "permissive", "no-merge"]),
    )
    def test_idempotent(self, rows, which):
        cfg = {
            "default": FilterConfig(),
            "permissive": FilterConfig.permissive(),
            "no-merge": FilterConfig(
                merge_substrings=False,
                per_prompt_threshold=0.0,
                combined_threshold=0.0,
            ),
        }[which]
        candidates = [cand(s, p, pp) for s, p, pp in rows]
        once = filter_and_merge(candidates, cfg, TOK)
        twice = filter_and_merge(once, cfg, TOK)
        assert twice == once
