"""Command-line workflows: exit codes, outputs, files."""
import argparse
import copy
import functools
import gc
import hashlib
import json
import math
import operator
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import pytest
from conftest import FIXTURES
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mice
from mice import cli
from mice.cli import run
from mice.corpus import load_corpus, sample_kshot, to_json
from mice.distill import load_records
from mice.gateway import BackendError, HTTPBackend, MockBackend, RemoteEmbedder
from mice.pipeline import MANIFEST_SCHEMA, Resolver, RunConfig, replay_manifest, write_manifest
from mice.prompts import PromptSetConfig, Template

from support import Reply

TRAIN = str(FIXTURES / "synthetic_train.jsonl")
CLI_TEST = str(FIXTURES / "cli_test.jsonl")
ECHO = str(FIXTURES / "oracle_echo.json")
SCRIPTED = str(FIXTURES / "scripted_mock.json")
UNLABELED = str(FIXTURES / "unlabeled_docs.jsonl")
DETECTOR_EVAL = str(FIXTURES / "detector_eval.jsonl")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"
# The directory holding the imported `mice` package (`src/` in a checkout).
PACKAGE_ROOT = Path(mice.__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in ("MICE_LM_ENDPOINT", "MICE_LM_TOKEN", "MICE_EMBED_ENDPOINT"):
        monkeypatch.delenv(var, raising=False)


def resolve_args(*extra):
    return [
        "resolve", "--corpus", CLI_TEST, "--train", TRAIN, "--k", "4",
        "--lm-mock", ECHO, *extra,
    ]


class TestParserContract:
    @pytest.mark.parametrize(
        "command", ["detect", "sample", "resolve", "eval", "distill", "replay"]
    )
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        assert "usage: mice" in capsys.readouterr().out

    def test_resolve_and_distill_share_their_resolver_flags(self):
        (commands,) = (a.choices for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
        resolve, distill = ({tuple(a.option_strings): a for a in commands[name]._actions}
                            for name in ("resolve", "distill"))
        shared = set(resolve) & set(distill) - {("-h", "--help"), ("--seed",)}
        assert len(shared) == 25
        assert all(resolve[flag] is distill[flag] for flag in shared)

    def test_missing_command_is_usage_error(self, capsys):
        assert run([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_bad_flag_value_is_usage_error(self, capsys):
        assert run(["sample", "--train", TRAIN, "--k", "four", "--seed", "1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestDetect:
    def test_corpus_scoring(self, capsys):
        assert run(["detect", "--corpus", DETECTOR_EVAL]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["true_positives"] == 48
        assert payload["false_positives"] == 1
        assert payload["false_negatives"] == 2
        assert payload["f1"] == pytest.approx(0.9697, abs=1e-4)

    def test_docs_annotation_to_stdout(self, capsys):
        assert run(["detect", "--docs", UNLABELED]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) >= 3
        assert {"doc_id", "anaphor", "surface"} <= set(lines[0])
        assert lines[0]["doc_id"] == "prot-001"
        assert lines[0]["surface"] == "the mixture"

    def test_docs_annotation_to_file(self, tmp_path, capsys):
        out = tmp_path / "detections.jsonl"
        assert run(["detect", "--docs", UNLABELED, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8").count("\n") >= 3

    def test_docs_and_corpus_are_exclusive(self, capsys):
        assert run(["detect", "--docs", UNLABELED, "--corpus", DETECTOR_EVAL]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_neither_input_rejected(self):
        assert run(["detect"]) == 1

    def test_missing_file_is_exit_one(self, capsys):
        assert run(["detect", "--corpus", "/nonexistent/x.jsonl"]) == 1


class TestSample:
    def test_prints_keys(self, capsys):
        assert run(["sample", "--train", TRAIN, "--k", "4", "--seed", "1"]) == 0
        printed = capsys.readouterr().out.splitlines()
        expected = sample_kshot(load_corpus(TRAIN), 4, 1)
        assert printed == [ex.key for ex in expected]

    def test_writes_reloadable_corpus(self, tmp_path):
        out = tmp_path / "sample.jsonl"
        assert run(
            ["sample", "--train", TRAIN, "--k", "6", "--seed", "9", "--out", str(out)]
        ) == 0
        reloaded = load_corpus(out)
        expected = sample_kshot(load_corpus(TRAIN), 6, 9)
        assert [ex.key for ex in reloaded] == [ex.key for ex in expected]
        assert all(ex.is_labeled for ex in reloaded)

    def test_oversized_k_is_exit_one(self, capsys):
        assert run(["sample", "--train", TRAIN, "--k", "500", "--seed", "1"]) == 1
        assert "exceeds" in capsys.readouterr().err

    def test_zero_k_is_exit_one(self, capsys):
        assert run(["sample", "--train", TRAIN, "--k", "0", "--seed", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "k=0" in err


class TestResolve:
    def test_single_seed_full_outputs(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        predictions = tmp_path / "predictions.json"
        manifest = tmp_path / "manifest.jsonl"
        code = run(
            resolve_args(
                "--seed", "1", "--report", str(report),
                "--predictions", str(predictions), "--manifest", str(manifest),
            )
        )
        assert code == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        assert stdout_payload["f1"] == 1.0
        assert json.loads(report.read_text())["f1"] == 1.0
        pred_map = json.loads(predictions.read_text())
        test_set = load_corpus(CLI_TEST)
        assert set(pred_map) == {ex.key for ex in test_set}
        for ex in test_set:
            assert sorted(pred_map[ex.key]) == sorted(ex.gold_surfaces())
        header = json.loads(manifest.read_text().splitlines()[0])
        assert header["record"] == "header"
        assert header["schema"] == "mice-manifest/2"

    def test_multi_seed_reports_mean_and_std(self, tmp_path, capsys):
        manifest = tmp_path / "run.jsonl"
        code = run(resolve_args("--seeds", "1,2", "--manifest", str(manifest)))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seeds"] == [1, 2]
        assert [r["seed"] for r in payload["runs"]] == [1, 2]
        assert payload["mean_f1"] == 1.0
        assert payload["std_f1"] == 0.0
        assert (tmp_path / "run.seed1.jsonl").exists()
        assert (tmp_path / "run.seed2.jsonl").exists()
        assert not manifest.exists()

    def test_a_seed_sweep_writes_what_each_seed_writes_alone(self, tmp_path, capsys):
        sweep, alone = tmp_path / "sweep", tmp_path / "alone"
        sweep.mkdir()
        alone.mkdir()
        assert run(resolve_args("--seeds", "1,2", "--manifest", str(sweep / "run.jsonl"),
                                "--predictions", str(sweep / "preds.json"))) == 0
        for seed in (1, 2):
            assert run(resolve_args(
                "--seed", str(seed), "--manifest", str(alone / f"run.seed{seed}.jsonl"),
                "--predictions", str(alone / f"preds.seed{seed}.json"))) == 0
        capsys.readouterr()
        names = sorted(path.name for path in sweep.iterdir())
        assert names == ["preds.seed1.json", "preds.seed2.json",
                         "run.seed1.jsonl", "run.seed2.jsonl"]
        assert sorted(path.name for path in alone.iterdir()) == names
        for name in names:
            assert (sweep / name).read_bytes() == (alone / name).read_bytes(), name

    def test_a_seed_sweep_holds_one_split_at_a_time(self, monkeypatch, capsys):
        resolve_split = Resolver.resolve_split
        splits = []
        alive_at_start = []

        def tracked(resolver, split):
            gc.collect()
            alive_at_start.append([ref() is not None for ref in splits])
            result = resolve_split(resolver, split)
            splits.append(weakref.ref(result))
            return result

        monkeypatch.setattr(Resolver, "resolve_split", tracked)
        assert run(resolve_args("--seeds", "1,2")) == 0
        assert alive_at_start == [[], [False]]
        assert json.loads(capsys.readouterr().out)["mean_f1"] == 1.0

    def test_a_seed_sweep_reads_the_template_once(self, tmp_path, monkeypatch, capsys):
        template = tmp_path / "template.json"
        template.write_text(json.dumps({"separator": ";"}), encoding="utf-8")
        reads = []
        read_json = cli.read_json

        def counted(path, what, *rest, **options):
            reads.append(what)
            return read_json(path, what, *rest, **options)

        monkeypatch.setattr(cli, "read_json", counted)
        assert run(resolve_args("--seeds", "1,2,3", "--template", str(template))) == 0
        assert json.loads(capsys.readouterr().out)["mean_f1"] == 1.0
        assert reads.count("template") == 1

    def test_defaults_are_the_library_defaults(self):
        args = cli.build_parser().parse_args(
            ["resolve", "--train", TRAIN, "--k", "4", "--corpus", CLI_TEST])
        assert cli._run_config(args, 7, Template()) == RunConfig(prompt=PromptSetConfig(seed=7))

    def test_seed_and_seeds_conflict(self, capsys):
        assert run(resolve_args("--seed", "1", "--seeds", "1,2")) == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_no_seed_rejected(self, capsys):
        assert run(resolve_args()) == 1
        assert "--seed or --seeds" in capsys.readouterr().err

    def test_bad_seeds_string_rejected(self, capsys):
        assert run(resolve_args("--seeds", "1,two")) == 1

    @pytest.mark.parametrize("seeds", ["", ",", "1,1", "2,1,2"])
    def test_empty_or_repeated_seeds_rejected(self, seeds, tmp_path, capsys):
        manifest = tmp_path / "run.jsonl"
        assert run(resolve_args("--seeds", seeds, "--manifest", str(manifest))) == 1
        assert "error: --seeds must name one or more distinct seeds" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_kate_combiner(self, capsys):
        assert run(resolve_args("--seed", "1", "--combiner", "kate")) == 0
        assert json.loads(capsys.readouterr().out)["f1"] == 1.0

    def test_kate_plus_requires_nucleus(self, capsys):
        assert run(resolve_args("--seed", "1", "--combiner", "kate-plus")) == 1
        assert "nucleus" in capsys.readouterr().err

    def test_kate_plus_with_nucleus_runs(self, capsys):
        code = run(
            resolve_args(
                "--seed", "1", "--combiner", "kate-plus", "--decode", "nucleus",
                "--kp-samples", "4",
            )
        )
        assert code == 0
        json.loads(capsys.readouterr().out)

    def test_no_backend_is_usage_error(self, capsys):
        code = run(
            ["resolve", "--corpus", CLI_TEST, "--train", TRAIN, "--k", "4",
             "--seed", "1"]
        )
        assert code == 1
        assert "no backend" in capsys.readouterr().err

    def test_unreachable_embed_endpoint_is_exit_two(self, capsys, monkeypatch):
        slept = []
        monkeypatch.setattr(
            "mice.cli.RemoteEmbedder", functools.partial(RemoteEmbedder, sleep=slept.append)
        )
        code = run(resolve_args("--seed", "1", "--embed-endpoint", "http://127.0.0.1:1"))
        assert code == 2
        assert "backend error: embedding request failed" in capsys.readouterr().err
        assert slept == [0.5, 1.0]

    def test_non_finite_demonstration_embedding_is_exit_two(self, serve, capsys):
        # The demonstrations are embedded in one batch. A NaN in one of their
        # vectors gives every test input a similarity that is not finite, so
        # every example fails as a backend failure rather than scoring F1 0.
        def respond(call):
            vectors = [[1.0, len(text) % 7] for text in call["json"]["texts"]]
            if len(vectors) > 1:
                vectors[0][0] = math.nan
            return Reply(payload={"vectors": vectors})

        code = run(resolve_args("--seed", "1", "--embed-endpoint", serve(respond).url))
        out, err = capsys.readouterr()
        assert code == 2
        assert "backend error: all 3 examples failed" in err
        assert json.loads(out)["f1"] == 0.0

    def test_non_string_completions_from_the_whole_endpoint_are_exit_two(self, serve, capsys):
        lm = serve(lambda call: Reply(200, {"choices": [{"text": 5}]}))
        args = resolve_args("--seed", "1", "--lm-endpoint", lm.url)
        args.remove("--lm-mock")
        args.remove(ECHO)
        assert run(args) == 2
        out, err = capsys.readouterr()
        assert err.startswith("backend error: all 3 examples failed with seed 1"), err
        assert err.rstrip().endswith(
            "malformed completion response: generation text and tokens must be strings, not 5")
        assert json.loads(out)["f1"] == 0.0

    def test_an_overflowing_logprob_from_the_whole_endpoint_is_exit_two(self, serve, capsys):
        # exp(1000) does not fit a float.
        lm = serve(lambda call: Reply(200, {"choices": [{"text": "water", "logprobs": {
            "tokens": ["water"], "top_logprobs": [{"water": 1000}]}}]}))
        args = resolve_args("--seed", "1", "--lm-endpoint", lm.url)
        args.remove("--lm-mock")
        args.remove(ECHO)
        assert run(args) == 2
        out, err = capsys.readouterr()
        assert err.startswith("backend error: all 3 examples failed with seed 1"), err
        assert err.rstrip().endswith("unusable body: malformed completion response: "
                                     "math range error")
        assert json.loads(out)["f1"] == 0.0

    @pytest.mark.parametrize(
        "flag, field",
        [("--per-prompt-min", "per_prompt_threshold"), ("--combined-min", "combined_threshold")],
    )
    def test_non_finite_floor_is_exit_one(self, capsys, flag, field):
        # `nan > 0.0` is False, so a NaN floor would silently filter nothing.
        assert run(resolve_args("--seed", "1", flag, "nan")) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {field} must be finite and non-negative\n"

    @pytest.mark.parametrize("flag", ["--lm-endpoint", "--embed-endpoint"])
    def test_malformed_endpoint_is_exit_one(self, capsys, monkeypatch, flag):
        slept = []
        for client in ("HTTPBackend", "RemoteEmbedder"):
            monkeypatch.setattr(f"mice.cli.{client}", functools.partial(
                getattr(cli, client), sleep=slept.append))
        args = resolve_args("--seed", "1", flag, "localhost:9/v1/completions")
        if flag == "--lm-endpoint":
            args.remove("--lm-mock")
            args.remove(ECHO)
        assert run(args) == 1
        assert "not an http:// or https:// URL" in capsys.readouterr().err
        assert slept == []

    def test_template_override(self, tmp_path, capsys):
        template = tmp_path / "template.json"
        template.write_text(
            json.dumps({"separator": ";"}), encoding="utf-8"
        )
        # The echo mock answers in the run's template, so the gold
        # antecedents come back joined by ";" and are all recovered.
        code = run(resolve_args("--seed", "1", "--template", str(template)))
        assert code == 0
        assert json.loads(capsys.readouterr().out)["f1"] == 1.0

    @pytest.mark.parametrize("extra", [
        ("--combiner", "kate-plus", "--kp-samples", "16"),
        ("--combiner", "mice-s"),
        ("--combiner", "kate"),
    ], ids=["kate-plus", "mice-s", "kate"])
    def test_the_oracle_is_perfect_under_nucleus_decoding(self, capsys, extra):
        # A nucleus draw of a gold slot's first token keeps the whole gold surface.
        argv = ["resolve", "--corpus", str(FIXTURES / "synthetic_test.jsonl"), "--train", TRAIN,
                "--k", "8", "--seed", "1", "--lm-mock", ECHO, "--decode", "nucleus", *extra]
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["f1"] == 1.0

    def test_multi_token_separator_rejected(self, tmp_path, capsys):
        template = tmp_path / "template.json"
        template.write_text(json.dumps({"separator": "||"}), encoding="utf-8")
        assert run(resolve_args("--seed", "1", "--template", str(template))) == 1
        assert capsys.readouterr().err == (
            f"error: template {template}: separator '||' is not a single token\n")

    def test_whole_split_backend_outage_is_exit_two(self, tmp_path, capsys, monkeypatch):
        class DownBackend:
            def complete(self, prompt, params):
                raise BackendError("endpoint unreachable")

        monkeypatch.setattr(cli, "_build_backend", lambda *_: DownBackend())
        outputs = [tmp_path / name for name in ("m.jsonl", "r.json", "p.json")]
        code = run(resolve_args(
            "--seed", "1", "--manifest", str(outputs[0]), "--report", str(outputs[1]),
            "--predictions", str(outputs[2]),
        ))
        captured = capsys.readouterr()
        assert code == 2
        assert "backend error: all 3 examples failed" in captured.err
        assert json.loads(captured.out)["f1"] == 0.0
        assert all(path.exists() for path in outputs)

    def test_partial_backend_failure_is_exit_zero(self, capsys, monkeypatch):
        echo = MockBackend.from_fixture(ECHO)
        poison = load_corpus(CLI_TEST).examples[0].text

        class FlakyBackend:
            def complete(self, prompt, params):
                if poison in prompt:
                    raise BackendError("boom")
                return echo.complete(prompt, params)

        monkeypatch.setattr(cli, "_build_backend", lambda *_: FlakyBackend())
        assert run(resolve_args("--seed", "1")) == 0
        assert 0.0 < json.loads(capsys.readouterr().out)["f1"] < 1.0

    def test_top_gated_beyond_the_ranking_cap_is_exit_one(self, capsys):
        # k=32 with 5 demos per prompt makes 24,165,120 ordered tuples.
        args = ["resolve", "--corpus", CLI_TEST, "--train", TRAIN, "--k", "32",
                "--demos-per-prompt", "5", "--lm-mock", ECHO, "--seed", "1"]
        assert run(args) == 1
        assert "too large to rank" in capsys.readouterr().err

    @pytest.mark.parametrize("combiner", ["mice", "mice-s", "product", "kate", "kate-plus"])
    def test_zero_k_is_exit_one(self, combiner, capsys):
        args = resolve_args("--seed", "1", "--combiner", combiner, "--decode", "nucleus")
        args[args.index("--k") + 1] = "0"
        assert run(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: k-shot sample needs at least one example, got k=0" in err

    @pytest.mark.parametrize(
        "combiner, code",
        [("mice", 1), ("mice-s", 1), ("product", 0), ("kate", 1), ("kate-plus", 1)],
    )
    def test_more_distinct_demos_than_k(self, combiner, code, capsys):
        # Three or more demos per prompt must be distinct, so k=2 yields no
        # tuple, and kate cannot pick 3 distinct demos from 2; product uses
        # one demo per prompt.
        decode = ["--decode", "nucleus"] if combiner == "kate-plus" else []
        args = resolve_args(
            "--seed", "1", "--combiner", combiner, "--demos-per-prompt", "3", *decode
        )
        args[args.index("--k") + 1] = "2"
        assert run(args) == code
        err = capsys.readouterr().err
        if code:
            assert "no prompt of 3 distinct demonstrations can be drawn from k=2" in err

    def test_unlabeled_split_prints_predictions(self, tmp_path, capsys):
        corpus = tmp_path / "unlabeled.jsonl"
        records = [json.loads(line) for line in Path(CLI_TEST).read_text().splitlines()]
        corpus.write_text(
            "".join(json.dumps({k: v for k, v in r.items() if k != "antecedents"}) + "\n"
                    for r in records),
            encoding="utf-8",
        )
        manifest = tmp_path / "manifest.jsonl"
        args = resolve_args("--seed", "1", "--manifest", str(manifest))
        args[args.index(CLI_TEST)] = str(corpus)
        assert run(args) == 0
        resolved = capsys.readouterr().out
        payload = json.loads(resolved)
        assert payload["note"] == "unlabeled split; no scores"
        assert {key: sorted(p) for key, p in payload["predictions"].items()} == {
            ex.key: sorted(ex.gold_surfaces()) for ex in load_corpus(CLI_TEST)
        }
        lines = [json.loads(line) for line in manifest.read_text().splitlines()]
        entries = [line for line in lines if line["record"] == "entry"]
        assert len(entries) == len(records)
        assert all(entry["gold"] is None for entry in entries)
        assert run(["replay", "--manifest", str(manifest)]) == 0
        assert capsys.readouterr().out == resolved

    def test_unknown_template_field_rejected(self, tmp_path, capsys):
        template = tmp_path / "template.json"
        template.write_text(json.dumps({"prefix": "x"}), encoding="utf-8")
        assert run(resolve_args("--seed", "1", "--template", str(template))) == 1
        assert "unknown template fields" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [{"separator": 1}, {"question_pattern": "What about {thing}?"}],
        ids=["non-string-field", "unknown-placeholder"],
    )
    def test_malformed_template_is_exit_one(self, tmp_path, capsys, fields):
        template = tmp_path / "template.json"
        template.write_text(json.dumps(fields), encoding="utf-8")
        assert run(resolve_args("--seed", "1", "--template", str(template))) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestEval:
    def gold_predictions(self):
        return {ex.key: ex.gold_surfaces() for ex in load_corpus(CLI_TEST)}

    def test_perfect_predictions(self, tmp_path, capsys):
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps(self.gold_predictions()), encoding="utf-8")
        report_path = tmp_path / "report.json"
        code = run(
            ["eval", "--predictions", str(pred_path), "--corpus", CLI_TEST,
             "--report", str(report_path)]
        )
        assert code == 0
        assert "f1 1.0000" in capsys.readouterr().out
        assert json.loads(report_path.read_text())["f1"] == 1.0

    def test_surfaces_joined_in_a_string_are_exit_one(self, tmp_path, capsys):
        predictions = self.gold_predictions()
        key = next(iter(predictions))
        predictions[key] = " | ".join(predictions[key])
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps(predictions), encoding="utf-8")
        assert run(["eval", "--predictions", str(pred_path), "--corpus", CLI_TEST]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: predictions {pred_path}: ")
        assert repr(key) in err

    def test_key_mismatch_is_exit_one(self, tmp_path, capsys):
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps({"wrong:0:1": ["water"]}), encoding="utf-8")
        assert run(["eval", "--predictions", str(pred_path), "--corpus", CLI_TEST]) == 1
        assert "key sets differ" in capsys.readouterr().err


# sha256 of the manifest `mice resolve ... --seed 1 --manifest` writes on
# cli_test.jsonl (k=4 of synthetic_train, oracle-echo mock unless a later
# --lm-mock overrides it). "TEMPLATE" stands for a template whose separator
# is ";". A change to the codec or the resolver must leave every byte alone.
GOLDEN_MANIFESTS = {
    "mice": (("--combiner", "mice"),
             "c71ed7b74f8c49464b785ec51427ffe3bf4637a40fcd472bb79bf6e2f03c9052"),
    "mice-s": (("--combiner", "mice-s"),
               "9a4b8f08b0cf712b71f92ba4e3821795495b183b6f19d272c507ea29e16e583b"),
    "kate": (("--combiner", "kate"),
             "827d6fa72ce9db7b469658ad9b7b18e65e5f62e6f14807a61eb2d25acc3ffdfb"),
    "kate-plus": (("--combiner", "kate-plus", "--decode", "nucleus", "--kp-samples", "16"),
                  "4c44ffd4af9a1937127e0feac13676ef7c1557b9a6d080ff30ecab5ae46a184e"),
    "product": (("--combiner", "product"),
                "0cc7a1502bbe33bce78a839f3c4358cb48cd2653759c40fd93a9489f384a89b9"),
    "mice-s-template": (("--template", "TEMPLATE"),
                        "17e6e06c3b8f532bbb4fba0bf73206434ec29c03ce57083338b9b9e9f3ac66b0"),
    "mice-scripted": (("--combiner", "mice", "--lm-mock", SCRIPTED),
                      "03016442cf85976de1989fe36be0e73f55789b02edcd856cbd49fd75ac15679a"),
}


class TestReplay:
    def make_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        assert run(resolve_args("--seed", "1", "--manifest", str(manifest))) == 0
        return manifest

    def test_replay_reproduces_report(self, tmp_path, capsys):
        manifest = self.make_manifest(tmp_path)
        capsys.readouterr()
        report_path = tmp_path / "replayed.json"
        assert run(
            ["replay", "--manifest", str(manifest), "--report", str(report_path)]
        ) == 0
        assert json.loads(capsys.readouterr().out)["f1"] == 1.0
        assert json.loads(report_path.read_text())["f1"] == 1.0

    @pytest.mark.parametrize("extra, sha256", GOLDEN_MANIFESTS.values(),
                             ids=GOLDEN_MANIFESTS.keys())
    def test_manifest_bytes_are_pinned(self, tmp_path, capsys, extra, sha256):
        template = tmp_path / "template.json"
        template.write_text(json.dumps({"separator": ";"}), encoding="utf-8")
        manifest = tmp_path / "manifest.jsonl"
        argv = resolve_args("--seed", "1", "--manifest", str(manifest),
                            *(str(template) if a == "TEMPLATE" else a for a in extra))
        assert run(argv) == 0
        assert hashlib.sha256(manifest.read_bytes()).hexdigest() == sha256
        replayed, _ = replay_manifest(manifest)
        assert replayed.report.to_json() + "\n" == capsys.readouterr().out

    def test_replay_matches_resolve_under_template(self, tmp_path, capsys):
        template = tmp_path / "template.json"
        template.write_text(json.dumps({"separator": ";"}), encoding="utf-8")
        manifest = tmp_path / "manifest.jsonl"
        assert run(resolve_args(
            "--seed", "1", "--template", str(template), "--manifest", str(manifest)
        )) == 0
        resolved = capsys.readouterr().out
        assert run(["replay", "--manifest", str(manifest)]) == 0
        assert capsys.readouterr().out == resolved
        assert json.loads(resolved)["f1"] == 1.0

    def test_missing_manifest_is_exit_one(self, capsys):
        assert run(["replay", "--manifest", "/nonexistent/m.jsonl"]) == 1

    def test_headerless_manifest_is_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"record": "entry", "key": "x"}\n', encoding="utf-8")
        assert run(["replay", "--manifest", str(path)]) == 1
        assert "no header" in capsys.readouterr().err

    @staticmethod
    def drop_key(line):
        entry = json.loads(line)
        del entry["key"]
        return json.dumps(entry)

    @staticmethod
    def drop_generation_text(line):
        entry = json.loads(line)
        del entry["generations"][0]["text"]
        return json.dumps(entry)

    @pytest.mark.parametrize(
        "corrupt, detail",
        [
            (drop_key, "missing field 'key'"),
            (drop_generation_text, "missing field 'text'"),
            (lambda line: line[: len(line) // 2], "line 1 column"),
        ],
        ids=["entry-without-key", "generation-without-text", "truncated-line"],
    )
    def test_malformed_entry_names_file_and_line(self, tmp_path, capsys, corrupt, detail):
        manifest = self.make_manifest(tmp_path)
        lines = manifest.read_text(encoding="utf-8").splitlines()
        lines[1] = corrupt(lines[1])
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["replay", "--manifest", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest {manifest} line 2: ")
        assert detail in err

    @staticmethod
    def edit_entry(edit):
        """A corruption of the manifest's lines that applies ``edit`` to the first entry."""
        def corrupt(lines):
            entry = json.loads(lines[1])
            edit(entry)
            return [lines[0], json.dumps(entry), *lines[2:]]
        return corrupt

    @staticmethod
    def rekey_a_gate_weight(entry):
        # The weights still sum to 1, but one prompt id has none.
        gating = entry["gating"]
        gating[str(max(entry["prompt_ids"]) + 1)] = gating.pop(str(entry["prompt_ids"][0]))

    @pytest.mark.parametrize(
        "corrupt, line",
        [
            (edit_entry(lambda entry: entry.update(gating=None)), 2),
            (edit_entry(rekey_a_gate_weight), 2),
            (edit_entry(lambda entry: entry["prompt_ids"].pop()), 2),
            (edit_entry(lambda entry: entry["generations"][0].update(text=5)), 2),
            (lambda lines: [lines[1], lines[0], *lines[2:]], 1),
            (edit_entry(lambda entry: entry.update(gold="water")), 2),
            (edit_entry(lambda entry: entry["generations"][0].update(tokens="abc")), 2),
        ],
        ids=["mice-s-gating-null", "gating-without-a-prompt-id", "prompt-ids-short",
             "generation-text-not-a-string", "entry-above-the-header", "gold-not-an-array",
             "generation-tokens-not-an-array"],
    )
    def test_unreplayable_entry_names_file_and_line(self, tmp_path, capsys, corrupt, line):
        # Each line still parses as JSON, but its entry cannot be replayed as stored.
        manifest = self.make_manifest(tmp_path)
        lines = corrupt(manifest.read_text(encoding="utf-8").splitlines())
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["replay", "--manifest", str(manifest)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: manifest {manifest} line {line}: "), err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "edit, detail",
        [
            (rekey_a_gate_weight, "gating has no weight for prompt id 0"),
            (lambda entry: entry["prompt_ids"].pop(), "15 prompt ids for 16 generations"),
            (lambda entry: entry["gating"].update({"0": math.nan}),
             "gating weights sum to nan, expected 1"),
        ],
        ids=["gating-without-a-prompt-id", "prompt-ids-short", "gating-weight-nan"],
    )
    def test_unreplayable_entry_says_what_is_wrong(self, tmp_path, capsys, edit, detail):
        manifest = self.make_manifest(tmp_path)
        lines = self.edit_entry(edit)(manifest.read_text(encoding="utf-8").splitlines())
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["replay", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: manifest {manifest} line 2: {detail}\n"

    @pytest.mark.parametrize(
        "edit",
        [lambda entry: entry.update(gold=[5]), lambda entry: entry.update(key=5)],
        ids=["gold-surface-not-a-string", "key-not-a-string"],
    )
    def test_an_entry_leaf_of_the_wrong_type_names_file_and_line(self, tmp_path, capsys, edit):
        manifest = self.make_manifest(tmp_path)
        lines = self.edit_entry(edit)(manifest.read_text(encoding="utf-8").splitlines())
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["replay", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr() == ("", f"error: manifest {manifest} line 2: "
                                           "expected a string, not 5\n")

    @staticmethod
    def replay_rewritten(manifest, lines, capsys):
        """The exit code and output of ``mice replay`` once ``manifest`` holds ``lines``."""
        manifest.write_text("".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
        capsys.readouterr()
        return run(["replay", "--manifest", str(manifest)]), capsys.readouterr()

    # The top-level keys of a manifest's header line and of its entry lines.
    HEADER_KEYS = ["record", "schema", "split", "k", "sample_seed", "config"]
    ENTRY_KEYS = ["record", "key", "gold", "prompt_ids", "gating", "generations",
                  "candidates", "final", "request_count", "error"]
    # A line's record kind and a header's schema are read before the line decodes.
    READ_FIRST = {"record", "schema"}
    KEY_EDITS = [(line, key, how) for line, keys in ((1, HEADER_KEYS), (2, ENTRY_KEYS))
                 for key in keys for how in ("drop", "rename")]

    @pytest.mark.parametrize("line, key, how", KEY_EDITS,
                             ids=[f"{['header', 'entry'][line - 1]}-{how}-{key}"
                                  for line, key, how in KEY_EDITS])
    def test_a_dropped_or_renamed_key_names_its_line(self, tmp_path, capsys, line, key, how):
        manifest = self.make_manifest(tmp_path)
        lines = json_lines(manifest)
        assert [sorted(lines[0]), sorted(lines[1])] == [sorted(self.HEADER_KEYS),
                                                        sorted(self.ENTRY_KEYS)]
        value = lines[line - 1].pop(key)
        if how == "rename":
            lines[line - 1][key + "_"] = value
        what = "header" if line == 1 else "entry"
        detail = (f"unknown {what} fields: ['{key}_']" if how == "rename" and
                  key not in self.READ_FIRST else f"missing field '{key}'")
        assert self.replay_rewritten(manifest, lines, capsys) == (
            1, ("", f"error: manifest {manifest} line {line}: {detail}\n"))

    @pytest.mark.parametrize("line, key, value, detail", [
        (2, "record", "entyr", "unknown record kind 'entyr'"),
        (1, "k", "x", "expected an integer, not 'x'"),
    ], ids=["entry-record-entyr", "header-k-string"])
    def test_a_misspelled_kind_or_mistyped_header_names_its_line(self, tmp_path, capsys, line,
                                                                  key, value, detail):
        manifest = self.make_manifest(tmp_path)
        lines = json_lines(manifest)
        lines[line - 1][key] = value
        assert self.replay_rewritten(manifest, lines, capsys) == (
            1, ("", f"error: manifest {manifest} line {line}: {detail}\n"))

    @pytest.mark.parametrize("schema", ["mice-manifest/1", MANIFEST_SCHEMA])
    def test_a_header_config_that_is_not_an_object_names_its_line(self, tmp_path, capsys,
                                                                   schema):
        manifest = self.make_manifest(tmp_path)
        lines = json_lines(manifest)
        lines[0].update(schema=schema, config=[1])
        assert self.replay_rewritten(manifest, lines, capsys) == (
            1, ("", f"error: manifest {manifest} line 1: expected a JSON object, not [1]\n"))

    def test_a_multi_token_separator_in_a_header_names_its_line(self, tmp_path, capsys):
        manifest = self.make_manifest(tmp_path)
        lines = json_lines(manifest)
        lines[0]["config"]["template"]["separator"] = "||"
        assert self.replay_rewritten(manifest, lines, capsys) == (
            1, ("", f"error: manifest {manifest} line 1: separator '||' is not a single token\n"))

    @pytest.mark.parametrize("combiner, gating, detail", [
        ("mice-s", None, "gating null under combiner mice-s"),
        ("kate", None, "gating null under combiner kate"),
        ("product", {"0": 1.0}, "gating weights under combiner product"),
    ], ids=["mice-s-null", "kate-null", "product-weights"])
    def test_a_gating_that_does_not_fit_the_combiner_names_its_line(self, tmp_path, capsys,
                                                                     combiner, gating, detail):
        manifest = tmp_path / "manifest.jsonl"
        argv = resolve_args("--seed", "1", "--manifest", str(manifest), "--combiner", combiner)
        assert run(argv) == 0
        lines = json_lines(manifest)
        lines[1]["gating"] = gating
        assert self.replay_rewritten(manifest, lines, capsys) == (
            1, ("", f"error: manifest {manifest} line 2: {detail}\n"))


@pytest.mark.parametrize(
    "field, value",
    [("suffix", 5), ("contains", [5]), ("answer", 5), ("slot_completions", {"water": 5}),
     ("default_answer", 5)],
    ids=["suffix", "contains", "answer", "slot-completion", "default-answer"],
)
def test_a_scripted_entry_leaf_of_the_wrong_type_names_the_fixture(tmp_path, capsys,
                                                                   field, value):
    fixture = json.loads(Path(SCRIPTED).read_text(encoding="utf-8"))
    (fixture if field == "default_answer" else fixture["entries"][0])[field] = value
    path = tmp_path / "mock.json"
    path.write_text(json.dumps(fixture), encoding="utf-8")
    argv = ["resolve", "--corpus", CLI_TEST, "--train", TRAIN, "--k", "4", "--seed", "1",
            "--lm-mock", str(path)]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: mock fixture {path}: expected a string, not 5\n")


class TestDistill:
    def distill_args(self, tmp_path, *extra):
        return [
            "distill", "--unlabeled", UNLABELED, "--count", "3",
            "--out", str(tmp_path / "records.jsonl"),
            "--train", TRAIN, "--k", "4", "--seed", "1",
            "--lm-mock", SCRIPTED, *extra,
        ]

    def test_exports_records(self, tmp_path, capsys):
        drops = tmp_path / "drops.json"
        code = run(self.distill_args(tmp_path, "--drops", str(drops)))
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == 3
        records = load_records(tmp_path / "records.jsonl")
        assert len(records) == 3
        assert [r.doc_id for r in records] == ["prot-001", "prot-002", "prot-003"]
        # The scripted mock falls back to "water"; prot-003 has no water
        # occurrence, so that surface is dropped and logged.
        dropped = json.loads(drops.read_text())
        assert any(d["doc_id"] == "prot-003" for d in dropped)

    def test_conll_output(self, tmp_path):
        out = tmp_path / "records.conll"
        code = run(
            ["distill", "--unlabeled", UNLABELED, "--count", "1", "--out", str(out),
             "--train", TRAIN, "--k", "4", "--lm-mock", SCRIPTED,
             "--format", "conll"]
        )
        assert code == 0
        first_line = out.read_text(encoding="utf-8").splitlines()[0]
        token, tag = first_line.split("\t")
        assert tag in ("B", "I", "O")

    def test_count_beyond_detected_is_exit_one(self, tmp_path, capsys):
        code = run(
            ["distill", "--unlabeled", UNLABELED, "--count", "99",
             "--out", str(tmp_path / "x.jsonl"), "--train", TRAIN, "--k", "4",
             "--lm-mock", SCRIPTED]
        )
        assert code == 1
        assert "anaphors detected" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_nonpositive_count_is_exit_one(self, tmp_path, capsys, count):
        args = self.distill_args(tmp_path)
        args[args.index("--count") + 1] = count
        assert run(args) == 1
        assert "at least 1" in capsys.readouterr().err
        assert not (tmp_path / "records.jsonl").exists()

    def test_same_files_at_any_parallelism(self, tmp_path):
        # Digests of the Quickstart's distill files: neither the number of
        # workers nor the loop that resolves the anaphors may change a byte.
        expected = {
            "records.jsonl": "2bc055c67389811e1c952f975739a2561e2957224a223bdae7c5e06e351ee980",
            "records.conll": "ea0c537b0766bd07fce803690de0b4a56a9acd26cf8378e3601f601a7dab4317",
            "drops.json": "22bfdcef84d2058d8880ef01d45c990d57c7a10229134da0f4ef6fc953d2d10a",
        }
        for parallelism in ("1", "8"):
            out = tmp_path / parallelism
            out.mkdir()
            for fmt in ("jsonl", "conll"):
                assert run([
                    "distill", "--unlabeled", UNLABELED, "--count", "3",
                    "--train", TRAIN, "--k", "4", "--seed", "1", "--lm-mock", SCRIPTED,
                    "--format", fmt, "--out", str(out / f"records.{fmt}"),
                    "--drops", str(out / "drops.json"), "--parallelism", parallelism,
                ]) == 0
            digests = {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expected
            }
            assert digests == expected, parallelism

    def test_backend_failure_is_exit_two(self, tmp_path, capsys, monkeypatch):
        slept = []
        monkeypatch.setattr(
            "mice.cli.HTTPBackend", functools.partial(HTTPBackend, sleep=slept.append)
        )
        code = run(
            ["distill", "--unlabeled", UNLABELED, "--count", "1",
             "--out", str(tmp_path / "x.jsonl"), "--train", TRAIN, "--k", "4",
             "--lm-endpoint", "http://127.0.0.1:1", "--parallelism", "1"]
        )
        assert code == 2
        assert "backend error" in capsys.readouterr().err
        assert slept == [0.5, 1.0]


@pytest.mark.parametrize("command", ["detect", "distill"])
def test_invalid_rule_pattern_is_exit_one(tmp_path, capsys, command):
    rules = tmp_path / "rules.txt"
    rules.write_text("the mixture\n(unclosed\n", encoding="utf-8")
    argv = {
        "detect": ["detect", "--docs", UNLABELED, "--rules", str(rules)],
        "distill": TestDistill().distill_args(tmp_path, "--rules", str(rules)),
    }[command]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: rules {rules} line 2: rule '(unclosed' is not a valid pattern")
    assert "Traceback" not in err


@pytest.mark.parametrize("pattern, error", [
    ("a{4294967296}", "the repetition number is too large"),
    ("(" * 3000 + "a" + ")" * 3000, "maximum recursion depth exceeded"),
], ids=["repeat-overflows", "nested-too-deep"])
def test_a_rule_re_cannot_compile_names_its_line(tmp_path, capsys, pattern, error):
    # re raises OverflowError and RecursionError for these, not re.error.
    rules = tmp_path / "rules.txt"
    rules.write_text(f"the mixture\n{pattern}\n", encoding="utf-8")
    assert run(["detect", "--docs", UNLABELED, "--rules", str(rules)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: rules {rules} line 2: {error}"), err
    assert len(err.splitlines()) == 1


def test_rules_without_a_pattern_name_the_file(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("# only a comment\n\n", encoding="utf-8")
    assert run(["detect", "--docs", UNLABELED, "--rules", str(rules)]) == 1
    assert capsys.readouterr().err == (
        f"error: rules {rules}: rule set must contain at least one pattern\n")


def test_a_rules_byte_that_is_not_utf8_names_the_file_and_line(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_bytes(b"\xff\xfe")
    assert run(["detect", "--docs", UNLABELED, "--rules", str(rules)]) == 1
    assert capsys.readouterr() == ("", f"error: rules {rules} line 1: 'utf-8' codec can't decode "
                                       "byte 0xff in position 0: invalid start byte\n")


@pytest.mark.parametrize("lines", [1, 401])
def test_a_jsonl_byte_that_is_not_utf8_names_its_line(tmp_path, capsys, lines):
    first = Path(UNLABELED).read_bytes().splitlines()[0]
    docs = tmp_path / "docs.jsonl"
    docs.write_bytes(b"".join([first + b"\n"] * (lines - 1)) + b'{"doc_id": "\xff"}\n')
    assert run(["detect", "--docs", str(docs)]) == 1
    assert capsys.readouterr() == ("", f"error: unlabeled docs {docs} line {lines}: 'utf-8' "
                                       "codec can't decode byte 0xff in position 12: invalid "
                                       "start byte\n")


def test_a_crlf_jsonl_file_reads_as_its_lf_twin(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_bytes(Path(UNLABELED).read_bytes().replace(b"\n", b"\r\n"))
    assert run(["detect", "--docs", UNLABELED]) == 0
    expected = capsys.readouterr()
    assert run(["detect", "--docs", str(docs)]) == 0
    assert capsys.readouterr() == expected


def test_an_oracle_echo_key_with_a_blank_span_names_both_files(tmp_path, capsys):
    key = tmp_path / "key.jsonl"
    key.write_text(WRONG_SHAPES["corpus"]["blank-antecedent"] + "\n", encoding="utf-8")
    fixture = tmp_path / "echo.json"
    fixture.write_text(json.dumps({"mode": "oracle-echo", "answer_key": key.name}),
                       encoding="utf-8")
    argv = ["resolve", "--corpus", CLI_TEST, "--train", TRAIN, "--k", "4", "--seed", "1",
            "--lm-mock", str(fixture)]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: mock fixture {fixture}: corpus {key} line 1: "
                                       "span [3, 4) holds only whitespace\n")


@pytest.mark.parametrize("command, flag, error", [
    ("sample", "--seed", "argument --seed: expected a non-negative integer, not '-1'"),
    ("resolve", "--seed", "argument --seed: expected a non-negative integer, not '-1'"),
    ("resolve", "--seeds",
     "bad --seeds value '2,-1': expected a non-negative integer, not '-1'"),
    ("distill", "--seed", "argument --seed: expected a non-negative integer, not '-1'"),
], ids=["sample", "resolve", "resolve-seeds", "distill"])
def test_a_negative_seed_names_its_flag(tmp_path, capsys, command, flag, error):
    # numpy refuses a negative seed too, but only after the corpus is read.
    argv = {
        "sample": ["sample", "--train", TRAIN, "--k", "4"],
        "resolve": resolve_args(),
        "distill": TestDistill().distill_args(tmp_path),  # the last --seed given is the one
    }[command] + [flag, "2,-1" if flag == "--seeds" else "-1"]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("command", ["sample", "resolve", "distill"])
def test_a_train_corpus_smaller_than_k_is_named(tmp_path, capsys, command):
    train = tmp_path / "train.jsonl"
    train.write_text(Path(TRAIN).read_text(encoding="utf-8").splitlines()[0] + "\n",
                     encoding="utf-8")
    argv = {
        "sample": ["sample", "--train", str(train), "--k", "2", "--seed", "1"],
        "resolve": ["resolve", "--corpus", CLI_TEST, "--train", str(train), "--k", "2",
                    "--seed", "1", "--lm-mock", ECHO],
        "distill": TestDistill().distill_args(tmp_path, "--train", str(train), "--k", "2"),
    }[command]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: k=2 exceeds dataset size 1 (--train {train})\n")


def corpus_argv(command, corpus, tmp_path):
    """A run of ``command`` that reads ``corpus`` as its corpus, test split or training set."""
    predictions = tmp_path / "predictions.json"
    predictions.write_text("{}", encoding="utf-8")
    return {
        "resolve --corpus": ["resolve", "--corpus", corpus, "--train", TRAIN, "--k", "4",
                             "--seed", "1", "--lm-mock", ECHO],
        "resolve --train": ["resolve", "--corpus", CLI_TEST, "--train", corpus, "--k", "4",
                            "--seed", "1", "--lm-mock", ECHO],
        "eval --corpus": ["eval", "--predictions", str(predictions), "--corpus", corpus],
        "detect --corpus": ["detect", "--corpus", corpus],
        "sample --train": ["sample", "--train", corpus, "--k", "1", "--seed", "1"],
    }[command]


@pytest.mark.parametrize("command", ["resolve --corpus", "eval --corpus", "resolve --train"])
def test_a_corpus_is_labeled_throughout_or_not_at_all(tmp_path, capsys, command):
    # A misspelt "antecedents" on one line would read that example as unlabeled.
    source = TRAIN if command.endswith("--train") else str(FIXTURES / "synthetic_test.jsonl")
    lines = Path(source).read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace('"antecedents"', '"antecedent"')
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(corpus_argv(command, str(corpus), tmp_path)) == 1
    assert capsys.readouterr() == ("", f"error: corpus {corpus} line 2: example has no "
                                       "antecedents, unlike the file's first example\n")


def test_a_labeled_line_in_an_unlabeled_corpus_is_named(tmp_path, capsys):
    first, second = Path(CLI_TEST).read_text(encoding="utf-8").splitlines()[:2]
    record = json.loads(first)
    del record["antecedents"]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(f"{json.dumps(record)}\n\n{second}\n", encoding="utf-8")
    assert run(["detect", "--corpus", str(corpus)]) == 1
    assert capsys.readouterr() == ("", f"error: corpus {corpus} line 3: example has "
                                       "antecedents, unlike the file's first example\n")


@pytest.mark.parametrize(
    "command", ["resolve --corpus", "eval --corpus", "detect --corpus", "sample --train"])
def test_an_empty_corpus_is_refused(tmp_path, capsys, command):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n", encoding="utf-8")
    assert run(corpus_argv(command, str(corpus), tmp_path)) == 1
    assert capsys.readouterr() == ("", f"error: corpus {corpus}: holds no examples\n")


def test_unlabeled_docs_with_too_few_anaphors_are_named(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"doc_id": "d", "text": "Add water."}\n', encoding="utf-8")
    argv = TestDistill().distill_args(tmp_path)
    argv[argv.index("--unlabeled") + 1] = str(docs)
    assert run(argv) == 1
    assert capsys.readouterr() == ("", "error: requested 3 records but only 0 anaphors "
                                       f"detected (--unlabeled {docs})\n")


def test_repeated_anaphor_key_names_file_and_line(tmp_path, capsys):
    first = Path(CLI_TEST).read_text(encoding="utf-8").splitlines()[0]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(f"{first}\n\n{first}\n", encoding="utf-8")
    key = load_corpus(CLI_TEST)[0].key
    assert run(["detect", "--corpus", str(corpus)]) == 1
    assert capsys.readouterr().err == (
        f"error: corpus {corpus} line 3: duplicate anaphor key {key}\n")


@pytest.mark.parametrize(
    "argv",
    [
        lambda out: resolve_args("--seed", "1", "--manifest", out),
        lambda out: resolve_args("--seed", "1", "--report", out),
        lambda out: resolve_args("--seed", "1", "--predictions", out),
        lambda out: ["sample", "--train", TRAIN, "--k", "1", "--seed", "1", "--out", out],
        lambda out: ["detect", "--docs", UNLABELED, "--out", out],
    ],
    ids=["resolve-manifest", "resolve-report", "resolve-predictions", "sample-out",
         "detect-out"],
)
def test_output_path_that_is_a_directory_is_exit_one(tmp_path, capsys, argv):
    out = tmp_path / "out"
    out.mkdir()
    assert run(argv(str(out))) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(out) in err
    assert "Traceback" not in err


# Per case: the argv, given a scratch directory, and the output path it
# cannot write there ("out" is made a directory, "missing/" does not exist).
UNWRITABLE_OUTPUTS = {
    "resolve-manifest": (lambda d: resolve_args("--seed", "1", "--manifest", f"{d}/out"),
                         "out"),
    "resolve-report": (lambda d: resolve_args("--seed", "1", "--report", f"{d}/out"), "out"),
    "resolve-predictions": (lambda d: resolve_args(
        "--seed", "1", "--predictions", f"{d}/missing/p.json"), "missing/p.json"),
    "resolve-seeds": (lambda d: resolve_args("--seeds", "1,2", "--manifest", f"{d}/out.jsonl"),
                      "out.seed2.jsonl"),
    "distill-out": (lambda d: TestDistill().distill_args(d) + ["--out", f"{d}/out"], "out"),
    "distill-drops": (lambda d: TestDistill().distill_args(
        d, "--drops", f"{d}/missing/drops.json"), "missing/drops.json"),
    "distill-checkpoint": (lambda d: TestDistill().distill_args(
        d, "--checkpoint", f"{d}/out"), "out"),
    "replay-report": (lambda d: ["replay", "--manifest", library_manifest(d),
                                 "--report", f"{d}/out"], "out"),
    "eval-report": (lambda d: ["eval", "--predictions", written(
        d / "p.json", json.dumps(TestEval().gold_predictions())),
        "--corpus", CLI_TEST, "--report", f"{d}/out"], "out"),
    "sample-out": (lambda d: ["sample", "--train", TRAIN, "--k", "1", "--seed", "1",
                              "--out", f"{d}/out"], "out"),
    "detect-out": (lambda d: ["detect", "--docs", UNLABELED, "--out", f"{d}/missing/d.jsonl"],
                   "missing/d.jsonl"),
}


def written(path, text):
    """``path``, once ``text`` is written to it."""
    path.write_text(text, encoding="utf-8")
    return str(path)


def library_manifest(directory):
    """A mice-s manifest on cli_test.jsonl, written without the CLI, so that
    neither its output nor its backend counts in the run under test."""
    sample = sample_kshot(load_corpus(TRAIN), 4, 1)
    resolver = Resolver(RunConfig(), sample, MockBackend.from_fixture(ECHO, Template()))
    result = resolver.resolve_split(load_corpus(CLI_TEST))
    write_manifest(result, resolver.config, sample, directory / "manifest.jsonl")
    return str(directory / "manifest.jsonl")


@pytest.mark.parametrize("case", UNWRITABLE_OUTPUTS)
def test_unwritable_output_is_refused_before_any_request(tmp_path, capsys, monkeypatch, case):
    argv, bad = UNWRITABLE_OUTPUTS[case]
    (tmp_path / "out").mkdir()
    (tmp_path / "out.seed2.jsonl").mkdir()
    prompts = []
    build_backend = cli._build_backend

    class CountingBackend:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, prompt, params):
            prompts.append(prompt)
            return self.inner.complete(prompt, params)

    monkeypatch.setattr(cli, "_build_backend", lambda *a: CountingBackend(build_backend(*a)))
    assert run(argv(tmp_path)) == 1
    out, err = capsys.readouterr()
    assert (len(prompts), out) == (0, "")
    assert err.startswith("error: output path ") and err.rstrip().endswith(str(tmp_path / bad))


# Each input flag: what its errors call the file, whether it is JSONL, and
# a command that reads it.
INPUT_FLAGS = {
    "corpus": ("corpus", True, lambda path: ["detect", "--corpus", path]),
    "train": ("corpus", True,
              lambda path: ["sample", "--train", path, "--k", "1", "--seed", "1"]),
    "template": ("template", False,
                 lambda path: resolve_args("--seed", "1", "--template", path)),
    "lm-mock": ("mock fixture", False,
                lambda path: ["resolve", "--corpus", CLI_TEST, "--train", TRAIN, "--k", "4",
                              "--seed", "1", "--lm-mock", path]),
    "docs": ("unlabeled docs", True, lambda path: ["detect", "--docs", path]),
    "unlabeled": ("unlabeled docs", True,
                  lambda path: ["distill", "--unlabeled", path, "--count", "1",
                                "--out", path + ".out", "--train", TRAIN, "--k", "4",
                                "--lm-mock", SCRIPTED]),
    "predictions": ("predictions", False,
                    lambda path: ["eval", "--predictions", path, "--corpus", CLI_TEST]),
    "manifest": ("manifest", True, lambda path: ["replay", "--manifest", path]),
}
NOT_JSON = "{oops"
# A record whose text holds an antecedent, "water" [4, 9), and an
# anaphor, "the mixture" [16, 27).
TEXT = "Add water. Then the mixture was stirred."
SPANS = '"anaphor": {"start": 16, "end": 27}, "antecedents": [{"start": 4, "end": 9}]'
# Per flag: a value of the wrong top-level type, then a record with a
# missing field (or, where every field is optional, a mistyped one), then
# any input that was once read without an error.
WRONG_SHAPES = {
    "corpus": {"wrong-type": "[1]", "bad-field": '{"doc_id": "a"}',
               "text-array": f'{{"doc_id": "a", "text": {json.dumps(list(TEXT))}, {SPANS}}}',
               "antecedents-object": f'{{"doc_id": "a", "text": "{TEXT}", '
                                     '"anaphor": {"start": 16, "end": 27}, "antecedents": {}}',
               # The antecedent [3, 4) is the space after "Add".
               "blank-antecedent": f'{{"doc_id": "a", "text": "{TEXT}", '
                                   '"anaphor": {"start": 16, "end": 27}, '
                                   '"antecedents": [{"start": 3, "end": 4}]}'},
    "train": {"wrong-type": "[1]", "bad-field": '{"doc_id": "a"}',
              "doc-id-number": f'{{"doc_id": 7, "text": "{TEXT}", {SPANS}}}'},
    "template": {"wrong-type": "5", "bad-field": '{"separator": 1}'},
    "lm-mock": {"wrong-type": "[1]", "bad-field": '{"entries": [{"suffix": "x"}]}',
                "unknown-entry-key": '{"entries": [{"sufix": "x", "answer": "water"}]}',
                "unknown-top-level-key": '{"entires": []}'},
    "docs": {"wrong-type": "[1]", "bad-field": '{"doc_id": "a"}'},
    "unlabeled": {"wrong-type": "[1]", "bad-field": '{"doc_id": "a", "text": 5}',
                  "doc-id-number": f'{{"doc_id": 5, "text": "{TEXT}"}}'},
    "predictions": {"wrong-type": '["water"]', "bad-field": '{"doc:0:1": "water | brine"}'},
    "manifest": {"wrong-type": "[1]", "bad-field": '{"record": "entry"}',
                 "unknown-config-key": json.dumps({
                     "record": "header", "schema": MANIFEST_SCHEMA, "config": {
                         **to_json(RunConfig()),
                         "filters": {**to_json(RunConfig().filters), "combined_treshold": 0.9}}})},
}
MALFORMED = [(flag, case) for flag, shapes in WRONG_SHAPES.items()
             for case in ("not-json", *shapes, "directory")]


@pytest.mark.parametrize("flag, case", MALFORMED,
                         ids=[f"{case}-{flag}" for flag, case in MALFORMED])
def test_malformed_input_file_is_exit_one(tmp_path, capsys, flag, case):
    what, jsonl, argv = INPUT_FLAGS[flag]
    path = tmp_path / f"input.{flag}"
    if case == "directory":
        path.mkdir()
    else:
        content = {"not-json": NOT_JSON, **WRONG_SHAPES[flag]}[case]
        # A leading blank line: JSONL line numbers count it.
        path.write_text("\n" + content + "\n" if jsonl else content, encoding="utf-8")
    assert run(argv(str(path))) == 1
    err = capsys.readouterr().err
    where = " line 2" if jsonl and case != "directory" else ""
    assert err.startswith(f"error: {what} {path}{where}: "), err
    assert "Traceback" not in err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("flag", list(WRONG_SHAPES))
def test_a_value_that_is_not_a_json_object_reads_alike(tmp_path, capsys, flag):
    what, jsonl, argv = INPUT_FLAGS[flag]
    content = WRONG_SHAPES[flag]["wrong-type"]
    path = written(tmp_path / f"input.{flag}", content + "\n")
    assert run(argv(path)) == 1
    where = " line 1" if jsonl else ""
    assert capsys.readouterr().err == (
        f"error: {what} {path}{where}: expected a JSON object, not {json.loads(content)!r}\n")


def json_lines(path):
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()]


def test_a_stored_generation_with_an_undeclared_key_is_exit_one(tmp_path, capsys):
    header, entry, *rest = json_lines(library_manifest(tmp_path))
    entry["generations"][0]["top_prob"] = entry["generations"][0]["top_probs"]
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(json.dumps(line) + "\n" for line in [header, entry, *rest]),
                        encoding="utf-8")
    assert run(["replay", "--manifest", str(manifest)]) == 1
    assert capsys.readouterr().err == (
        f"error: manifest {manifest} line 2: unknown generation fields: ['top_prob']\n")


@pytest.mark.parametrize("command", ["sample", "resolve", "distill"])
def test_k_below_one_is_not_blamed_on_train(tmp_path, capsys, command):
    argv = {
        "sample": ["sample", "--seed", "1"],
        "resolve": ["resolve", "--corpus", CLI_TEST, "--seed", "1", "--lm-mock", ECHO],
        "distill": ["distill", "--unlabeled", UNLABELED, "--count", "1", "--lm-mock", SCRIPTED,
                    "--out", str(tmp_path / "records.jsonl")],
    }[command]
    assert run([*argv, "--train", TRAIN, "--k", "0"]) == 1
    assert capsys.readouterr().err == (
        "error: k-shot sample needs at least one example, got k=0\n")


@pytest.mark.parametrize("command", ["resolve", "distill"])
@pytest.mark.parametrize("record, detail", [
    # "antecedent" for "antecedents": the record loads as unlabeled.
    ({"doc_id": "a", "text": TEXT, "anaphor": {"start": 16, "end": 27},
      "antecedent": [{"start": 4, "end": 9}]}, "example a:16:27 is unlabeled"),
    ({"doc_id": "a", "text": "Add oil|water. Then the mixture was stirred.",
      "anaphor": {"start": 20, "end": 31}, "antecedents": [{"start": 4, "end": 13}]},
     "antecedent 'oil|water' in a:20:31 contains the separator '|'"),
], ids=["unlabeled", "separator"])
def test_a_demonstration_that_cannot_serve_names_train(tmp_path, capsys, command, record,
                                                       detail):
    train = tmp_path / "train.jsonl"
    train.write_text(json.dumps(record) + "\n", encoding="utf-8")
    argv = {
        "resolve": ["resolve", "--corpus", CLI_TEST, "--seed", "1"],
        "distill": ["distill", "--unlabeled", UNLABELED, "--count", "1",
                    "--out", str(tmp_path / "records.jsonl")],
    }[command]
    assert run([*argv, "--train", str(train), "--k", "1", "--lm-mock", ECHO]) == 1
    assert capsys.readouterr().err == f"error: {detail} (--train {train})\n"


@functools.cache
def valid_inputs():
    """Per input flag and ``--rules``: how its file is written ("json", "jsonl",
    or "lines" of text) and its valid contents, as a JSON value or, for the
    line formats, as the list of its lines."""
    with tempfile.TemporaryDirectory() as directory:
        manifest = json_lines(library_manifest(Path(directory)))
    rules = (Path(mice.__file__).parent / "data" / "default_rules.txt").read_text(encoding="utf-8")
    return {
        "corpus": ("jsonl", json_lines(CLI_TEST)),
        "train": ("jsonl", json_lines(TRAIN)),
        "template": ("json", to_json(Template())),
        "lm-mock": ("json", json.loads(Path(SCRIPTED).read_text(encoding="utf-8"))),
        "docs": ("jsonl", json_lines(UNLABELED)),
        "unlabeled": ("jsonl", json_lines(UNLABELED)),
        "predictions": ("json", TestEval().gold_predictions()),
        "manifest": ("jsonl", manifest),
        "rules": ("lines", rules.splitlines()),
    }


def value_paths(value, path=()):
    """The path of ``value`` and of every value inside it."""
    yield path
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from value_paths(item, path + (key,))


DROP = "<drop>"
# Each mutation puts one of these in place of a value, or drops it: a
# stand-in of each JSON type, NaN and a huge integer.
REPLACEMENTS = [DROP, math.nan, 10**400, 5, 1.5, "5", True, None, [], {}]
MUTATED_FLAGS = {**INPUT_FLAGS, "rules": ("rules", False, lambda path: [
    "detect", "--docs", UNLABELED, "--rules", path])}


def mutated(contents, path, new):
    """``contents`` with the value at ``path`` replaced by ``new``, or dropped."""
    if not path:
        return new
    contents = copy.deepcopy(contents)
    *parents, last = path
    holder = functools.reduce(operator.getitem, parents, contents)
    if new is DROP:
        del holder[last]
    else:
        holder[last] = new
    return contents


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_no_single_value_mutation_of_an_input_escapes_as_a_traceback(tmp_path, capsys, data):
    flag = data.draw(st.sampled_from(list(MUTATED_FLAGS)), label="flag")
    form, contents = valid_inputs()[flag]
    # A line file's list of lines is not itself a value of the file.
    path = data.draw(st.sampled_from([p for p in value_paths(contents) if p or form == "json"]),
                     label="path")
    old = functools.reduce(operator.getitem, path, contents)
    new = data.draw(st.sampled_from([r for r in REPLACEMENTS if type(r) is not type(old)
                                     and (path or r is not DROP)]), label="replacement")
    values = mutated(contents, path, new)
    if form == "json":
        text = json.dumps(values)
    else:  # A rules file keeps its unmutated lines as text.
        text = "".join((value if form == "lines" and isinstance(value, str)
                        else json.dumps(value)) + "\n" for value in values)
    file = tmp_path / f"input.{flag}"
    file.write_text(text, encoding="utf-8")
    what, _, argv = MUTATED_FLAGS[flag]
    capsys.readouterr()
    code = run(argv(str(file)))
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    if code == 1:
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and errors[0].startswith(f"error: {what} {file}"), err


@pytest.mark.parametrize("command", ["resolve", "distill"])
def test_http_clients_are_closed_when_the_command_ends(serve, tmp_path, command):
    lm = serve(lambda call: 200, {"choices": [{"text": "water | salt"}]})
    embed = serve(lambda call: Reply(payload={
        "vectors": [[1.0, len(text) % 7] for text in call["json"]["texts"]]}))
    args = {
        "resolve": ["resolve", "--corpus", CLI_TEST, "--seed", "1"],
        "distill": ["distill", "--unlabeled", UNLABELED, "--count", "1", "--seed", "1",
                    "--out", str(tmp_path / "records.jsonl")],
    }[command] + ["--train", TRAIN, "--k", "4", "--parallelism", "2",
                  "--lm-endpoint", lm.url, "--embed-endpoint", embed.url]
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(args)
        gc.collect()
    assert code == 0
    assert lm.connections >= 1 and embed.connections >= 1
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def checkout_env():
    """Child-process environment that imports this checkout's `mice` package.

    `PYTHONPATH` starts with an absolute path, so the child neither picks up
    another installed copy nor depends on its working directory.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
    )
    return env


def write_console_script(bin_dir, name, target):
    """Write the wrapper that installing a `name = "module:attr"` script makes."""
    module, _, attr = target.partition(":")
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        f"sys.exit({attr}())\n",
        encoding="utf-8",
    )
    script.chmod(0o755)
    return script


def test_console_entry_point_installed(tmp_path):
    """The `mice` script declared in pyproject.toml runs the CLI and passes
    its exit code to the shell. The script is built from the declaration, as
    installation would build it, so the check does not need an install."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["mice"]
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = write_console_script(bin_dir, "mice", target)
    env = checkout_env()
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", os.defpath)])
    assert shutil.which("mice", path=env["PATH"]) == str(script)

    proc = subprocess.run(
        ["mice", "--help"], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: mice" in proc.stdout

    proc = subprocess.run(
        ["mice"], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 1, proc.stderr
    assert "error:" in proc.stderr


@pytest.mark.skipif(shutil.which("mice") is None, reason="mice is not installed on PATH")
def test_installed_console_script_runs():
    proc = subprocess.run(["mice", "--help"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: mice" in proc.stdout


def test_module_invocation_matches(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mice.cli", "detect", "--corpus", DETECTOR_EVAL],
        capture_output=True, text=True, timeout=120, env=checkout_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["true_positives"] == 48


def quickstart_commands():
    """The argument lists of the `mice` lines in the README's Quickstart block."""
    section = README.read_text(encoding="utf-8").split("## Quickstart", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("mice ")]


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "fixtures").symlink_to(FIXTURES)
    monkeypatch.chdir(tmp_path)
    commands = quickstart_commands()
    assert [argv[0] for argv in commands] == [
        "resolve", "replay", "detect", "detect", "distill",
    ]
    for argv in commands:
        assert run(argv) == 0, (argv, capsys.readouterr().err)
