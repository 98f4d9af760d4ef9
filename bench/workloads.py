"""The benchmark's workloads: run configuration, sample size and backend.

Every seed of a run derives from the workload seed. The seed is first folded
onto one of ``SCENARIOS`` scenarios, whose outputs are recorded; the k-shot
sample seed (and the prompt seed, as ``mice resolve --seed`` sets it) is the
scenario number itself, while the stub's noise seed and the nucleus base
seed come from a ``SeedSequence`` over it. The program only ever sees the
generated inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mice.gateway import DecodeParams
from mice.pipeline import Combiner, RunConfig
from mice.prompts import Ordering, PromptSetConfig, Selection

# One worker process per workload on a 2-vCPU box: at most two worker
# threads and two HTTP connections.
PARALLELISM = 2
# Fixed per-request latency of the loopback stub.
STUB_DELAY_MS = 10.0
# Seeds are folded onto this many scenarios, whose predictions digest and F1
# are recorded in bench/expected.json.
SCENARIOS = 64


@dataclass(frozen=True)
class Seeds:
    sample: int
    noise: int
    nucleus: int


def derive_seeds(workload_seed: int) -> Seeds:
    scenario = workload_seed % SCENARIOS
    noise, nucleus = np.random.SeedSequence([scenario, 0x6D696365]).generate_state(2)
    return Seeds(sample=scenario, noise=int(noise), nucleus=int(nucleus))


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    http: bool
    combiner: Combiner
    demos_per_prompt: int
    max_prompts: int = 256
    nucleus: bool = False
    kate_plus_samples: int = 256

    def run_config(self, seeds: Seeds) -> RunConfig:
        decode = (
            DecodeParams.nucleus(seed=seeds.nucleus) if self.nucleus else DecodeParams.greedy()
        )
        return RunConfig(
            combiner=self.combiner,
            prompt=PromptSetConfig(
                demos_per_prompt=self.demos_per_prompt,
                max_prompts=self.max_prompts,
                ordering=Ordering.ASCEND,
                selection=Selection.TOP_GATED,
                seed=seeds.sample,
            ),
            decode=decode,
            parallelism=PARALLELISM,
            kate_plus_samples=self.kate_plus_samples,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Pure CPU: the whole 256-tuple universe against the in-process
        # oracle-echo mock. Rendering, budget token counts, the mock's linear
        # scan and extraction dominate; 45% of requests repeat.
        Workload("inproc-mice-d2", k=16, http=False, combiner=Combiner.MICE,
                 demos_per_prompt=2, max_prompts=256),
        # Waiting dominates: 2,048 requests to the 10 ms stub, 73% of them
        # repeats; ranking the 29,760-tuple universe costs real CPU, and the
        # decoys give combine and postfilter several candidates per example.
        Workload("http-mice-s-d3", k=32, http=True, combiner=Combiner.MICE_S,
                 demos_per_prompt=3, max_prompts=32),
        # One prompt per example sampled 32 times with distinct seeds: no
        # request repeats, and the fan-out runs in combine_kate_plus.
        Workload("http-kateplus", k=16, http=True, combiner=Combiner.KATE_PLUS,
                 demos_per_prompt=2, nucleus=True, kate_plus_samples=32),
    )
}
