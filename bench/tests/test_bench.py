"""Tests of the benchmark itself: stub wire format, baseline counts, gates.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import requests  # noqa: E402

import run  # noqa: E402
from mice.corpus import load_corpus, sample_kshot  # noqa: E402
from mice.gateway import (  # noqa: E402
    BackendError,
    DecodeParams,
    HTTPBackend,
    WordTokenizer,
    build_request,
    parse_response,
)
from mice.prompts import Template  # noqa: E402
from workloads import WORKLOADS, derive_seeds  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"


@pytest.fixture(scope="module")
def stub():
    stub = run.Stub(noise_seed=derive_seeds(1).noise, delay_ms=0.0)
    try:
        yield stub
    finally:
        stub.close()


@pytest.fixture(scope="module")
def corpora():
    return load_corpus(FIXTURES / "synthetic_train.jsonl"), load_corpus(
        FIXTURES / "synthetic_test.jsonl"
    )


def test_stub_round_trips_through_the_wire_schema(stub, corpora):
    train, test = corpora
    example = test[0]
    prompt = Template().render_prompt([train[0], train[1]], example)
    params = DecodeParams.greedy(logprob_depth=5)
    before = stub.attempts()
    resp = requests.post(stub.endpoint, json=build_request(prompt, params), timeout=10)
    assert resp.status_code == 200
    payload = resp.json()
    golden = json.loads((FIXTURES / "golden_response.json").read_text())
    assert payload.keys() == golden.keys()
    assert payload["choices"][0].keys() == golden["choices"][0].keys()
    assert payload["choices"][0]["logprobs"].keys() == golden["choices"][0]["logprobs"].keys()

    gen = parse_response(payload)
    decoys = json.loads((FIXTURES / "synthetic_decoys.json").read_text())[example.key]
    surfaces = [s.strip() for s in gen.text.split("|")]
    assert surfaces == example.gold_surfaces() or surfaces in [list(p) for p in decoys]
    assert list(gen.tokens) == WordTokenizer().tokenize(gen.text)
    assert all(dist == {tok: 1.0} for tok, dist in zip(gen.tokens, gen.top_probs))
    assert stub.attempts() == before + 1

    backend = HTTPBackend(stub.endpoint, max_in_flight=1)
    assert backend.complete(prompt, params) == gen


def test_stub_answers_depend_on_the_decode_seed_and_nothing_else(stub, corpora):
    train, test = corpora
    backend = HTTPBackend(stub.endpoint, max_in_flight=1)
    texts = {}
    for example in test.examples[:8]:
        prompt = Template().render_prompt([train[2]], example)
        for seed in range(6):
            params = DecodeParams.nucleus(seed=seed)
            first = backend.complete(prompt, params)
            assert backend.complete(prompt, params) == first
            texts.setdefault(example.key, set()).add(first.text)
    assert any(len(seen) > 1 for seen in texts.values())


def test_stub_rejects_an_unknown_prompt(stub):
    backend = HTTPBackend(stub.endpoint, max_in_flight=1)
    with pytest.raises(BackendError) as info:
        backend.complete("not a prompt the stub knows", DecodeParams.greedy())
    assert info.value.status == 400


@pytest.fixture(scope="module")
def inproc_seed1_passes():
    with run.open_bench("inproc-mice-d2", 1) as bench:
        untraced = bench.run_pass(0, traced=False)
        traced = bench.run_pass(1, traced=True)
    return untraced, traced, bench.spans[1]


def test_inproc_seed1_makes_the_roadmap_baseline_requests(inproc_seed1_passes):
    _, traced, _ = inproc_seed1_passes
    assert traced.requests == 16_384
    assert traced.layers["gateway.requests"] == 16_384
    assert traced.layers["gateway.unique_requests"] == 9_014
    assert traced.layers["gateway.http_attempts"] == 0
    assert traced.layers["pipeline.resolve_one_calls"] == 64


def test_token_counts_are_charged_to_the_layer_that_makes_them(inproc_seed1_passes):
    *_, recorder = inproc_seed1_passes
    parents = {s.span_id: s.name for s in recorder.spans}
    callers = {}
    for s in recorder.spans:
        if s.name.endswith(".token_count"):
            callers.setdefault(s.name, set()).add(parents.get(s.parent_id))
    assert callers["postfilter.token_count"] == {"postfilter.filter"}
    assert "postfilter.filter" not in callers["prompts.token_count"]


def test_traced_and_untraced_passes_give_identical_outputs(inproc_seed1_passes):
    untraced, traced, _ = inproc_seed1_passes
    assert untraced.layers is None and traced.layers is not None
    assert traced.digest == untraced.digest
    assert traced.manifest_sha == untraced.manifest_sha
    assert traced.replay_error is None and untraced.replay_error is None


def test_recorded_outputs_match_and_mismatches_are_refused(inproc_seed1_passes):
    untraced, traced, _ = inproc_seed1_passes
    expected = json.loads(run.EXPECTED.read_text())
    bench = run.Bench(WORKLOADS["inproc-mice-d2"], 1, derive_seeds(1), None, ROOT)
    bench.passes = [untraced, traced]
    run.check_outputs(bench, expected)

    wrong = json.loads(json.dumps(expected))
    wrong["inproc-mice-d2"]["1"]["digest"] = "0" * 64
    with pytest.raises(run.OutputMismatch):
        run.check_outputs(bench, wrong)
    bench.passes = [untraced, dataclasses.replace(traced, manifest_sha="x")]
    with pytest.raises(run.OutputMismatch):
        run.check_outputs(bench, expected)


def test_a_different_seed_gives_a_different_kshot_sample(corpora):
    train, _ = corpora
    one, two = derive_seeds(1), derive_seeds(2)
    assert one.sample != two.sample and one.noise != two.noise
    keys = [[ex.key for ex in sample_kshot(train, 16, s.sample)] for s in (one, two)]
    assert keys[0] != keys[1]
    assert derive_seeds(1) == derive_seeds(1)


def test_the_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "inproc-mice-d2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_traced_pass_fails_when_the_program_lacks_a_hook(monkeypatch):
    import mice.pipeline
    from tracing import MissingHook, Recorder, instrument

    monkeypatch.delattr(mice.pipeline, "gate")
    with pytest.raises(MissingHook, match="mice.pipeline.gate"):
        with instrument(Recorder()):
            pass
    assert not hasattr(mice.pipeline.complete_many, "__wrapped__")
