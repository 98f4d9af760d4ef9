"""Benchmark of mice's resolve path: one command, three workloads.

    python3 bench/run.py --workload http-mice-s-d3 --seed 1 --seconds 60 --trace 0

Each timed pass is cold, as one ``mice resolve --manifest`` invocation is:
it loads the corpora, draws the k-shot sample, builds a fresh backend and
``Resolver``, resolves the 64-example ``synthetic_test`` split and writes
the manifest; ``replay_manifest`` then re-scores that manifest for the
gate. Passes repeat until ``--seconds`` is spent (at least two), and every
timing of a pass is reported as the median over passes. Set-up is timed
many times between the passes, and ``setup_s`` is the fastest of those.

The run checks its outputs: the predictions digest and F1 must equal the
values recorded in ``bench/expected.json`` for the seed's scenario, replay
must reproduce the report and every final set, every pass must write the
same manifest bytes, and no example may fail. On any mismatch it prints
``"correct": false`` with no metrics and exits 1.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` passes alternate untraced and traced, the last
line holds the per-layer metrics of the traced passes, and the spans go to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from tracing import MissingHook

if TYPE_CHECKING:
    from workloads import Seeds, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIXTURES = ROOT / "tests" / "fixtures"
OUT_DIR = ROOT / ".bench_out"
EXPECTED = BENCH_DIR / "expected.json"
SPEC = ROOT / "BENCHMARK.json"
MIN_PASSES = 2
SETUP_REPEATS = 10
SETUP_SECONDS = 0.25
# Set-up is timed for at least this share of the wall time of the pass
# before it, so that its samples cover the run about as evenly as the passes.
SETUP_SHARE = 0.1


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


class OutputMismatch(BenchError):
    """The program's outputs are wrong."""


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; fail if it is missing."""
    if not (ROOT / "src" / "mice").is_dir() or not FIXTURES.is_dir():
        raise BenchError(f"no mice sources or fixtures under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))


class Stub:
    """The loopback LM stub, run as a child process for the length of a run."""

    def __init__(self, noise_seed: int, delay_ms: float):
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--fixtures", str(FIXTURES),
             "--noise-seed", str(noise_seed), "--delay-ms", str(delay_ms)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self._proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise BenchError(f"stub failed to start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"
        self.endpoint = self.base + "/v1/completions"

    def attempts(self) -> int:
        with urllib.request.urlopen(self.base + "/stats", timeout=10) as resp:
            return json.load(resp)["attempts"]

    def close(self) -> None:
        with contextlib.suppress(BrokenPipeError):
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    requests: int
    examples: int
    failed: int
    f1: float
    digest: str
    manifest_sha: str
    replay_s: float = 0.0
    replay_error: Optional[str] = None
    layers: Optional[dict] = None


@dataclass
class Bench:
    """Everything one run shares across passes."""

    workload: Workload
    seed: int
    seeds: Seeds
    stub: Optional[Stub]
    workdir: Path
    passes: list = field(default_factory=list)
    spans: Optional[tuple] = None

    def setup(self, recorder=None):
        """Corpus load, k-shot sample, backend and ``Resolver`` construction."""
        from mice.corpus import load_corpus, sample_kshot
        from mice.gateway import HTTPBackend, MockBackend, WordTokenizer
        from mice.gating import HashingEmbedder
        from mice.pipeline import Resolver
        from tracing import MeteredBackend, TracedEmbedder, TracedTokenizer

        w = self.workload
        span = recorder.span if recorder else _untraced
        with span("corpus.load"):
            train = load_corpus(FIXTURES / "synthetic_train.jsonl")
            test = load_corpus(FIXTURES / "synthetic_test.jsonl")
        with span("corpus.sample"):
            sample = sample_kshot(train, w.k, self.seeds.sample)
        config = w.run_config(self.seeds)
        if self.stub is not None:
            inner = HTTPBackend(self.stub.endpoint, max_in_flight=config.parallelism)
        else:
            inner = MockBackend.from_fixture(FIXTURES / "oracle_echo.json")
        backend = MeteredBackend(inner, recorder)
        embedder = HashingEmbedder(config.embed_dim)
        extra = {}
        if recorder is not None:
            embedder = TracedEmbedder(embedder, recorder)
            extra["tokenizer"] = TracedTokenizer(WordTokenizer(), recorder)
        resolver = Resolver(config, sample, backend, embedder=embedder, **extra)
        return config, sample, test, backend, resolver

    def run_pass(self, index: int, traced: bool) -> PassResult:
        from mice.pipeline import replay_manifest, write_manifest
        from tracing import Recorder, instrument, layer_metrics

        gc.collect()
        recorder = Recorder() if traced else None
        span = recorder.span if traced else _untraced
        manifest = self.workdir / f"pass{index}.jsonl"
        attempts_before = self.stub.attempts() if (traced and self.stub) else 0
        with instrument(recorder) if traced else contextlib.nullcontext():
            with span("bench.setup"):
                config, sample, test, backend, resolver = self.setup(recorder)
            start, cpu_start = time.perf_counter(), time.process_time()
            with span("pipeline.resolve_split"):
                result = resolver.resolve_split(test)
            with span("pipeline.write_manifest"):
                write_manifest(result, config, sample, manifest, split_name=test.split_name)
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
            out = PassResult(
                wall_s=wall,
                cpu_s=cpu,
                requests=backend.requests,
                examples=len(result.results),
                failed=sum(1 for r in result.results if r.error is not None),
                f1=result.report.f1,
                digest=predictions_digest(result.predictions),
                manifest_sha=hashlib.sha256(manifest.read_bytes()).hexdigest(),
            )
            start = time.perf_counter()
            with span("pipeline.replay"):
                replayed, _ = replay_manifest(manifest)
            out.replay_s = time.perf_counter() - start
            out.replay_error = replay_mismatch(result, replayed)
        if traced:
            recorder.add(manifest_bytes=manifest.stat().st_size)
            attempts = self.stub.attempts() - attempts_before if self.stub else 0
            out.layers = layer_metrics(recorder, attempts, out.failed, out.examples)
            if self.spans is None:
                self.spans = (index, recorder)
        manifest.unlink()
        return out

    def write_spans(self) -> None:
        """Spans of the first traced pass, one JSON object per line."""
        if self.spans is not None:
            index, recorder = self.spans
            recorder.write_jsonl(self.spans_path, index)

    @property
    def spans_path(self) -> Path:
        return OUT_DIR / f"spans-{self.workload.name}-seed{self.seed}.jsonl"


def _untraced(name: str):
    """Stand-in for ``Recorder.span`` when a pass is not traced."""
    return contextlib.nullcontext()


def predictions_digest(predictions: dict) -> str:
    payload = json.dumps(predictions, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def replay_mismatch(result, replayed) -> Optional[str]:
    """What replay failed to reproduce of the resolve's outcome, or None."""
    if replayed.report != result.report:
        return "replay_manifest did not reproduce the score report"
    if [(r.key, r.final) for r in replayed.results] != [(r.key, r.final) for r in result.results]:
        return "replay_manifest changed a final set"
    return None


def check_outputs(bench: Bench, expected: dict) -> None:
    first = bench.passes[0]
    for p in bench.passes:
        if p.failed:
            raise OutputMismatch(f"{p.failed} of {p.examples} examples failed")
        if p.replay_error:
            raise OutputMismatch(p.replay_error)
        if p.manifest_sha != first.manifest_sha:
            raise OutputMismatch("passes within one run wrote different manifests")
    want = expected.get(bench.workload.name, {}).get(str(bench.seeds.sample))
    if want is None:
        raise BenchError(f"no recorded outputs for scenario {bench.seeds.sample}")
    if first.digest != want["digest"] or first.f1 != want["f1"]:
        raise OutputMismatch(
            f"predictions digest {first.digest[:12]} / F1 {first.f1!r} differ from "
            f"the recorded {want['digest'][:12]} / {want['f1']!r}"
        )


def time_setups(bench: Bench, seconds: float) -> list[float]:
    """Set-up times for at least ``seconds`` of wall time and ``SETUP_REPEATS`` set-ups."""
    times: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(times) < SETUP_REPEATS or time.perf_counter() < deadline:
        gc.collect()
        start = time.perf_counter()
        bench.setup()
        times.append(time.perf_counter() - start)
    return times


def run_passes(bench: Bench, seconds: float, trace: bool) -> list[float]:
    """Passes until ``seconds`` would be exceeded, never fewer than two.

    A traced run alternates untraced and traced passes. Set-up is timed
    before every pass and after the last, so that its samples span the run
    as the passes do; the machine's speed drifts over seconds. Returns the
    set-up times.
    """
    setups = time_setups(bench, SETUP_SECONDS)
    start = time.perf_counter()
    while True:
        index = len(bench.passes)
        bench.passes.append(bench.run_pass(index, traced=trace and index % 2 == 1))
        setups += time_setups(bench, max(SETUP_SECONDS, SETUP_SHARE * bench.passes[-1].wall_s))
        elapsed = time.perf_counter() - start
        if len(bench.passes) >= MIN_PASSES and elapsed * (index + 2) / (index + 1) > seconds:
            return setups


def end_to_end(bench: Bench, setup_s: float) -> dict:
    passes = bench.passes
    med = statistics.median
    return {
        "examples_per_s": med(p.examples / p.wall_s for p in passes),
        "cpu_ms_per_example": med(1000.0 * p.cpu_s / p.examples for p in passes),
        "backend_requests_per_example": med(p.requests / p.examples for p in passes),
        "f1": passes[0].f1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(bench: Bench) -> dict:
    traced = [p for p in bench.passes if p.layers is not None]
    untraced = [p for p in bench.passes if p.layers is None]
    metrics = {
        name: statistics.median(p.layers[name] for p in traced) for name in traced[0].layers
    }
    eps_traced = statistics.median(p.examples / p.wall_s for p in traced)
    eps_untraced = statistics.median(p.examples / p.wall_s for p in untraced)
    metrics["pipeline.replay_examples_per_s"] = statistics.median(
        p.examples / p.replay_s for p in untraced
    )
    metrics["trace.examples_per_s_traced"] = eps_traced
    metrics["trace.examples_per_s_untraced"] = eps_untraced
    metrics["trace.overhead_ratio"] = eps_untraced / eps_traced
    return metrics


@contextlib.contextmanager
def open_bench(workload_name: str, seed: int, stub_delay_ms: Optional[float] = None):
    """A ``Bench`` for one run, with the stub started when the workload needs it."""
    import_program()
    from workloads import STUB_DELAY_MS, WORKLOADS, derive_seeds

    if workload_name not in WORKLOADS:
        raise BenchError(f"unknown workload {workload_name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[workload_name]
    seeds = derive_seeds(seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    stub = None
    try:
        if workload.http:
            stub = Stub(seeds.noise, STUB_DELAY_MS if stub_delay_ms is None else stub_delay_ms)
        yield Bench(workload, seed, seeds, stub, workdir)
    finally:
        if stub is not None:
            stub.close()
        shutil.rmtree(workdir, ignore_errors=True)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[Bench, dict]:
    """One benchmark run; returns the bench state and its metrics."""
    with open_bench(workload_name, seed) as bench:
        # The fastest set-up. The machine's slow spells last tens of seconds;
        # the median or lower quartile of the samples moved with them by a
        # third from run to run, the minimum by under a tenth.
        setup_s = min(run_passes(bench, seconds, trace))
    if trace:
        bench.write_spans()
    metrics = per_layer(bench) if trace else end_to_end(bench, setup_s)
    return bench, metrics


def declared_units(trace: bool) -> dict[str, str]:
    """Unit of every metric the run reports, as ``BENCHMARK.json`` declares it."""
    if not SPEC.is_file():
        raise BenchError(f"no {SPEC.name} under {ROOT}")
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="mice resolve-path benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        units = declared_units(bool(args.trace))
        bench, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
        if metrics.keys() != units.keys():
            raise BenchError(f"metrics differ from {SPEC.name}: "
                             f"{sorted(metrics.keys() ^ units.keys())}")
    except (BenchError, MissingHook) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(p.examples for p in bench.passes)
    failed = sum(p.failed for p in bench.passes)
    try:
        check_outputs(bench, json.loads(EXPECTED.read_text(encoding="utf-8")))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
