"""Command-line interface binding the modules into user workflows.

Exit codes: 0 success, 1 validation/usage error, 2 backend failure.
Diagnostics go to standard error; machine-readable output goes to standard
output or to files named by flags.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from .corpus import (CorpusError, Dataset, KShotSample, from_json, load_corpus, read_json,
                     sample_kshot, save_corpus, to_json)
from .detector import default_rules, detect_anaphors, evaluate_rules, load_rules
from .distill import DropLog, export_records, generate_pseudo_labels, load_unlabeled_docs
from .gateway import (
    Backend,
    BackendError,
    DecodeMode,
    DecodeParams,
    HTTPBackend,
    MockBackend,
    RemoteEmbedder,
)
from .gating import Embedder
from .metrics import micro_f1
from .pipeline import (
    Combiner,
    Resolver,
    RunConfig,
    SplitResult,
    replay_manifest,
    write_manifest,
)
from .postfilter import FilterConfig
from .prompts import Ordering, PromptSetConfig, Selection, Template

logger = logging.getLogger(__name__)

ENV_LM_ENDPOINT = "MICE_LM_ENDPOINT"
ENV_LM_TOKEN = "MICE_LM_TOKEN"
ENV_EMBED_ENDPOINT = "MICE_EMBED_ENDPOINT"


class UsageError(ValueError):
    """Bad flags or inconsistent options; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract reserves 2
    # for backend failures, so raise instead and let main() map it to 1.
    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(message)


def _seed(text: str) -> int:
    """A seed flag's value; numpy seeds its generators from non-negative integers alone."""
    with contextlib.suppress(ValueError):
        if (seed := int(text)) >= 0:
            return seed
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, not {text!r}")


def _resolver_flags() -> argparse.ArgumentParser:
    """The flags that build a ``Resolver``, shared by resolve and distill."""
    run = RunConfig()  # every default below is the config dataclasses' own
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--train", required=True, help="training corpus JSONL")
    parent.add_argument("--k", type=int, required=True, help="k-shot sample size")
    parent.add_argument("--combiner", choices=[c.value for c in Combiner],
                        default=run.combiner.value)
    parent.add_argument("--gate-combine", choices=["sum", "product"], default=run.gate_combine,
                        help="similarity aggregation inside the gate")

    group = parent.add_argument_group("prompt construction")
    group.add_argument("--demos-per-prompt", type=int, default=run.prompt.demos_per_prompt,
                       help="demonstrations per prompt (default %(default)s)")
    group.add_argument("--max-prompts", type=int, default=run.prompt.max_prompts,
                       help="cap on prompts per test input (default %(default)s)")
    group.add_argument("--ordering", choices=[o.value for o in Ordering],
                       default=run.prompt.ordering.value,
                       help="demonstration order inside a prompt (default %(default)s)")
    group.add_argument("--selection", choices=[s.value for s in Selection],
                       default=run.prompt.selection.value,
                       help="how prompts are chosen from the tuple universe")
    group.add_argument("--max-seq-len", type=int, default=run.prompt.max_sequence_length,
                       help="model context length in tokens (default %(default)s)")
    group.add_argument("--gen-reserve", type=int, default=run.prompt.generation_reserve,
                       help="tokens reserved for generation (default %(default)s)")
    group.add_argument("--template", metavar="JSON",
                       help="JSON file overriding template fields")

    group = parent.add_argument_group("postfilter")
    group.add_argument("--max-ante-tokens", type=int, default=run.filters.max_antecedent_tokens,
                       help="max antecedent length in tokens (default %(default)s)")
    group.add_argument("--per-prompt-min", type=float, default=run.filters.per_prompt_threshold,
                       help="min per-prompt probability (default %(default)s)")
    group.add_argument("--combined-min", type=float, default=run.filters.combined_threshold,
                       help="min combined probability (default %(default)s)")
    group.add_argument("--no-merge", action="store_true",
                       help="disable substring merging")

    group = parent.add_argument_group("decoding")
    group.add_argument("--decode", choices=[m.value for m in DecodeMode],
                       default=run.decode.mode.value, help="decoding mode (default %(default)s)")
    group.add_argument("--top-k", type=int, default=run.decode.top_k,
                       help="nucleus top-k (default %(default)s)")
    group.add_argument("--top-p", type=float, default=run.decode.top_p,
                       help="nucleus top-p (default %(default)s)")
    group.add_argument("--max-gen-tokens", type=int, default=run.decode.max_tokens,
                       help="max generated tokens (default %(default)s)")
    group.add_argument("--kp-samples", type=int, default=run.kate_plus_samples,
                       help="samples drawn by kate-plus (default %(default)s)")

    group = parent.add_argument_group("backend")
    group.add_argument("--lm-mock", metavar="FIXTURE",
                       help="scripted mock backend fixture (JSON)")
    group.add_argument("--lm-endpoint",
                       help=f"completion endpoint (or ${ENV_LM_ENDPOINT})")
    group.add_argument("--embed-endpoint",
                       help=f"embedding endpoint (or ${ENV_EMBED_ENDPOINT})")
    group.add_argument("--embed-dim", type=int, default=run.embed_dim,
                       help="hashing embedder dimension (default %(default)s)")
    group.add_argument("--parallelism", type=int, default=run.parallelism,
                       help="max in-flight completions (default %(default)s)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mice",
                     description="Ensemble in-context resolution of "
                                 "split-antecedent anaphora.")
    sub = parser.add_subparsers(dest="command", required=True)
    resolver_flags = _resolver_flags()

    p_detect = sub.add_parser("detect", help="find anaphors with the rule set")
    p_detect.add_argument("--docs", help="unlabeled docs JSONL to annotate")
    p_detect.add_argument("--corpus", help="labeled corpus JSONL to score against")
    p_detect.add_argument("--rules", help="rule file (default: built-in rules)")
    p_detect.add_argument("--out", help="write detections JSONL here (with --docs)")

    p_sample = sub.add_parser("sample", help="draw a seeded k-shot sample")
    p_sample.add_argument("--train", required=True, help="training corpus JSONL")
    p_sample.add_argument("--k", type=int, required=True)
    p_sample.add_argument("--seed", type=_seed, required=True)
    p_sample.add_argument("--out", help="write the sample as JSONL")

    p_resolve = sub.add_parser("resolve", help="resolve a test split", parents=[resolver_flags])
    p_resolve.add_argument("--corpus", required=True, help="test corpus JSONL")
    p_resolve.add_argument("--seed", type=_seed, help="single run seed")
    p_resolve.add_argument("--seeds", help="comma-separated seeds; reports mean/std")
    p_resolve.add_argument("--report", help="write the score report JSON here")
    p_resolve.add_argument("--predictions", help="write predictions JSON here")
    p_resolve.add_argument("--manifest", help="write the run manifest here")

    p_eval = sub.add_parser("eval", help="score stored predictions")
    p_eval.add_argument("--predictions", required=True,
                        help="JSON map of example key to surfaces")
    p_eval.add_argument("--corpus", required=True, help="gold corpus JSONL")
    p_eval.add_argument("--report", help="write the score report JSON here")

    p_distill = sub.add_parser("distill", help="export teacher pseudo-labels",
                               parents=[resolver_flags])
    p_distill.add_argument("--unlabeled", required=True, help="unlabeled docs JSONL")
    p_distill.add_argument("--count", type=int, required=True,
                           help="number of anaphors to pseudo-label (at least 1)")
    p_distill.add_argument("--out", required=True, help="output path")
    p_distill.add_argument("--format", choices=["jsonl", "conll"], default="jsonl")
    p_distill.add_argument("--rules", help="detection rule file")
    p_distill.add_argument("--drops", help="write drop log JSON here")
    p_distill.add_argument("--checkpoint",
                           help="write completed records here if an anaphor fails on "
                                "a backend error or on the prompt budget")
    p_distill.add_argument("--seed", type=_seed, default=0)

    p_replay = sub.add_parser("replay", help="recompute a run from its manifest")
    p_replay.add_argument("--manifest", required=True)
    p_replay.add_argument("--report", help="write the recomputed report JSON here")
    return parser


def _decode_template(payload: dict) -> Template:
    return from_json(Template, {**to_json(Template()), **payload})


def _build_backend(args: argparse.Namespace, template: Template,
                   clients: contextlib.ExitStack) -> Backend:
    """The mock or the HTTP backend; ``clients`` closes the HTTP backend when it exits."""
    if args.lm_mock:
        return MockBackend.from_fixture(args.lm_mock, template)
    endpoint = args.lm_endpoint or os.environ.get(ENV_LM_ENDPOINT)
    if not endpoint:
        raise UsageError(
            f"no backend: pass --lm-mock or --lm-endpoint (or set ${ENV_LM_ENDPOINT})"
        )
    return clients.enter_context(contextlib.closing(HTTPBackend(
        endpoint,
        token=os.environ.get(ENV_LM_TOKEN),
        max_in_flight=args.parallelism,
    )))


def _build_embedder(args: argparse.Namespace,
                    clients: contextlib.ExitStack) -> Optional[Embedder]:
    """The remote embedder, if an endpoint is set, closed when ``clients`` exits.

    Without an endpoint it is ``None``, and ``Resolver`` picks its default.
    """
    endpoint = args.embed_endpoint or os.environ.get(ENV_EMBED_ENDPOINT)
    if not endpoint:
        return None
    return clients.enter_context(contextlib.closing(RemoteEmbedder(endpoint)))


def _run_config(args: argparse.Namespace, seed: int, template: Template) -> RunConfig:
    decode_mode = DecodeMode(args.decode)
    decode = DecodeParams(
        mode=decode_mode,
        max_tokens=args.max_gen_tokens,
        top_k=args.top_k,
        top_p=args.top_p,
        seed=seed if decode_mode is DecodeMode.NUCLEUS else None,
    )
    return RunConfig(
        combiner=Combiner(args.combiner),
        prompt=PromptSetConfig(
            demos_per_prompt=args.demos_per_prompt,
            max_prompts=args.max_prompts,
            ordering=Ordering(args.ordering),
            selection=Selection(args.selection),
            seed=seed,
            max_sequence_length=args.max_seq_len,
            generation_reserve=args.gen_reserve,
        ),
        template=template,
        decode=decode,
        filters=FilterConfig(
            max_antecedent_tokens=args.max_ante_tokens,
            per_prompt_threshold=args.per_prompt_min,
            combined_threshold=args.combined_min,
            merge_substrings=not args.no_merge,
        ),
        gate_combine=args.gate_combine,
        parallelism=args.parallelism,
        kate_plus_samples=args.kp_samples,
        embed_dim=args.embed_dim,
    )


def _seed_list(args: argparse.Namespace) -> list[int]:
    if args.seeds is not None and args.seed is not None:
        raise UsageError("--seed and --seeds are mutually exclusive")
    if args.seeds is not None:
        try:
            seeds = [_seed(s) for s in args.seeds.split(",") if s.strip()]
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"bad --seeds value {args.seeds!r}: {exc}") from exc
        if not seeds or len(set(seeds)) != len(seeds):
            raise UsageError(f"--seeds must name one or more distinct seeds: {args.seeds!r}")
        return seeds
    if args.seed is not None:
        return [args.seed]
    raise UsageError("pass --seed or --seeds")


def _seeded_path(path: str, seed: int, multi: bool) -> Path:
    p = Path(path)
    return p.with_name(f"{p.stem}.seed{seed}{p.suffix}") if multi else p


def _check_outputs(*paths: Optional[str | Path]) -> None:
    """Refuse, before any work is paid for, an output path that cannot be written."""
    for path in map(Path, filter(None, paths)):
        if path.is_dir() or not path.parent.is_dir():
            problem = "is a directory" if path.is_dir() else "has no parent directory"
            raise UsageError(f"output path {problem}: {path}")


def _cmd_detect(args: argparse.Namespace) -> int:
    _check_outputs(args.out)
    rules = load_rules(args.rules) if args.rules else default_rules()
    if bool(args.docs) == bool(args.corpus):
        raise UsageError("pass exactly one of --docs or --corpus")
    if args.corpus:
        report = evaluate_rules(load_corpus(args.corpus), rules)
        print(_pretty(to_json(report, omit=("per_example",))))
        return 0
    docs = load_unlabeled_docs(args.docs)
    lines = []
    for doc_id, text in docs:
        for span in detect_anaphors(text, rules):
            lines.append(
                json.dumps(
                    {
                        "doc_id": doc_id,
                        "anaphor": {"start": span.start, "end": span.end},
                        "surface": span.surface,
                    },
                    sort_keys=True,
                    ensure_ascii=False,
                )
            )
    body = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        Path(args.out).write_text(body, encoding="utf-8")
    else:
        sys.stdout.write(body)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    _check_outputs(args.out)
    sample = _kshot(args, load_corpus(args.train), args.seed)
    if args.out:
        save_corpus(Dataset(examples=sample.examples, split_name="sample"), args.out)
    else:
        for ex in sample:
            print(ex.key)
    return 0


def _kshot(args: argparse.Namespace, train: Dataset, seed: int) -> KShotSample:
    """The seed's ``--k`` examples of ``--train``; a file too small for them is named."""
    try:
        return sample_kshot(train, args.k, seed)
    except CorpusError as exc:
        raise UsageError(f"{exc} (--train {args.train})") from exc


def _resolvers(args: argparse.Namespace, seeds: Sequence[int],
               clients: contextlib.ExitStack) -> Iterator[Resolver]:
    """Each seed's ``Resolver`` over its k-shot sample of ``--train``, in turn,
    all on one backend and embedder that ``clients`` closes."""
    train = load_corpus(args.train)
    template = (read_json(args.template, "template", _decode_template)
                if args.template else Template())
    configs = [_run_config(args, seed, template) for seed in seeds]
    backend = _build_backend(args, template, clients)
    embedder = _build_embedder(args, clients)
    for seed, config in zip(seeds, configs):
        sample = _kshot(args, train, seed)
        try:
            resolver = Resolver(config, sample, backend, embedder=embedder)
        except CorpusError as exc:  # a sampled demonstration is unlabeled or holds the separator
            raise UsageError(f"{exc} (--train {args.train})") from exc
        yield resolver


def _cmd_resolve(args: argparse.Namespace) -> int:
    seeds = _seed_list(args)
    multi = len(seeds) > 1
    _check_outputs(args.report, *(_seeded_path(path, seed, multi) for seed in seeds
                                  for path in (args.manifest, args.predictions) if path))
    test = load_corpus(args.corpus)
    rows, failures = [], []
    with contextlib.ExitStack() as clients:
        for resolver in _resolvers(args, seeds, clients):
            seed, result = resolver.sample.seed, resolver.resolve_split(test)
            logger.info("seed %d: %d prompts", seed, result.request_count)
            if args.manifest:
                write_manifest(result, resolver.config, resolver.sample,
                               _seeded_path(args.manifest, seed, multi), split_name=test.split_name)
            if args.predictions:
                _seeded_path(args.predictions, seed, multi).write_text(
                    _pretty(result.predictions) + "\n", encoding="utf-8")
            if (rep := result.report) is not None:
                rows.append({"seed": seed, "f1": rep.f1, "precision": rep.precision,
                             "recall": rep.recall})
            if result.results and result.backend_failures == len(result.results):
                failures.append(f"all {len(result.results)} examples failed with seed {seed}, "
                                f"the first with: {result.results[0].error}")
            output = "" if multi else _split_output(result)
            del result, rep  # one seed's split at a time: drop it before the next resolves
    if multi:
        payload: dict = {"seeds": seeds, "runs": rows}
        if rows:
            f1s = np.array([row["f1"] for row in rows])
            payload["mean_f1"] = float(f1s.mean())
            payload["std_f1"] = float(f1s.std())
        output = _pretty(payload)
    _emit(output, args.report)
    if failures:
        raise BackendError(failures[0])
    return 0


def _split_output(result: SplitResult) -> str:
    """The score report, or the predictions of an unlabeled split."""
    if result.report is not None:
        return result.report.to_json()
    return _pretty({"note": "unlabeled split; no scores", "predictions": result.predictions})


def _pretty(value: Any) -> str:
    """``value`` as JSON with sorted keys, indented two spaces, its text not escaped."""
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)


def _emit(out: str, report_path: Optional[str]) -> None:
    print(out)
    if report_path:
        Path(report_path).write_text(out + "\n", encoding="utf-8")


def _decode_predictions(payload: dict) -> dict[str, list[str]]:
    for key, surfaces in payload.items():
        if not isinstance(surfaces, list) or not all(isinstance(s, str) for s in surfaces):
            raise TypeError(f"predictions for {key!r} must be a list of strings")
    return payload


def _cmd_eval(args: argparse.Namespace) -> int:
    _check_outputs(args.report)
    gold = {ex.key: ex.gold_surfaces() for ex in load_corpus(args.corpus)}
    # Scored inside the reader, so a key set that differs from gold names the file.
    report = read_json(args.predictions, "predictions",
                       lambda payload: micro_f1(_decode_predictions(payload), gold))
    print(report.to_table())
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n", encoding="utf-8")
    return 0


def _cmd_distill(args: argparse.Namespace) -> int:
    _check_outputs(args.out, args.drops, args.checkpoint)
    rules = load_rules(args.rules) if args.rules else default_rules()
    docs = load_unlabeled_docs(args.unlabeled)
    drop_log = DropLog()
    with contextlib.ExitStack() as clients:
        (resolver,) = _resolvers(args, [args.seed], clients)
        try:
            records = generate_pseudo_labels(docs, resolver.iter_results, args.count, rules,
                                             drop_log=drop_log, checkpoint_path=args.checkpoint)
        except CorpusError as exc:  # too few anaphors, or one that covers no tokens
            raise UsageError(f"{exc} (--unlabeled {args.unlabeled})") from exc
    export_records(records, args.out, args.format)
    if args.drops:
        Path(args.drops).write_text(_pretty(drop_log.entries) + "\n", encoding="utf-8")
    print(json.dumps({"records": len(records), "dropped_surfaces": len(drop_log.entries),
                      "out": args.out}, sort_keys=True))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    _check_outputs(args.report)
    result, _config = replay_manifest(args.manifest)
    _emit(_split_output(result), args.report)
    return 0


_COMMANDS = {
    "detect": _cmd_detect,
    "sample": _cmd_sample,
    "resolve": _cmd_resolve,
    "eval": _cmd_eval,
    "distill": _cmd_distill,
    "replay": _cmd_replay,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # UsageError, CorpusError, PromptBudgetError too
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
