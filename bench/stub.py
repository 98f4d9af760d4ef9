"""Loopback completion server that stands in for a language model.

It speaks the wire schema of ``mice.gateway.build_request`` and
``parse_response`` (pinned by ``tests/fixtures/golden_request.json`` and
``golden_response.json``), including per-token ``top_logprobs``. Every
answer is deterministic and built from the bundled fixtures: the prompt's
last block names the test input, its other blocks name demonstrations, and
a hash of the prompt (plus the decode seed for sampled requests) picks
either the gold antecedents or a decoy pair from ``synthetic_decoys.json``.
The chance of gold rises with the demonstrations' similarity to the test
input, as in ``tests/support.py::NoisyOracleBackend``.

The server is one asyncio thread in one process. Each completion waits a
fixed delay with ``asyncio.sleep``, so the delay costs no CPU. It counts the
completion attempts it receives; ``GET /stats`` returns the count. It exits
when its standard input closes, so it never outlives the process that
started it.

Run it as ``python3 bench/stub.py --fixtures tests/fixtures --delay-ms 10
--noise-seed 7``; it prints ``PORT <n>`` on standard output once listening.
"""
from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np

COMPLETIONS_PATH = "/v1/completions"
STATS_PATH = "/stats"

# The answer format of mice's default Template, mirrored here so the stub
# does not depend on the program it serves.
QUESTION = "Question: What does {anaphor} contain?"
ANSWER_PREFIX = "Answer:"
SEPARATOR = "|"
JOINER = "\n\n"
_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]")
_WORD_RE = re.compile(r"[a-z0-9]+")
EMBED_DIM = 1024


def hash_uniform(seed: int, text: str) -> float:
    """Deterministic uniform draw in [0, 1) keyed by (seed, text)."""
    digest = hashlib.blake2b(f"{seed}\x1f{text}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def correctness_probability(mean_similarity: float) -> float:
    """Chance a prompt is answered with gold: affine in similarity, clipped."""
    return min(0.70, max(0.30, 0.25 + 0.6 * mean_similarity))


def _embed(text: str) -> np.ndarray:
    """Feature-hashed bag of words, L2-normalized."""
    vec = np.zeros(EMBED_DIM)
    tokens = _WORD_RE.findall(text.lower())
    if not tokens:
        vec[0] = 1.0
        return vec
    for tok in tokens:
        digest = hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest()
        vec[1 + int.from_bytes(digest, "big") % (EMBED_DIM - 1)] += 1.0
    return vec / np.linalg.norm(vec)


def _load(path: Path) -> list[dict]:
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            text = rec["text"]
            ana = rec["anaphor"]
            gold = [
                text[a["start"] : a["end"]]
                for a in sorted(rec["antecedents"], key=lambda a: a["start"])
            ]
            rec["key"] = f"{rec['doc_id']}:{ana['start']}:{ana['end']}"
            rec["query"] = (
                f"{text}\n{QUESTION.format(anaphor=text[ana['start']:ana['end']])}"
                f"\n{ANSWER_PREFIX}"
            )
            rec["gold"] = gold
            records.append(rec)
    return records


class Oracle:
    """Maps a prompt (and decode seed) to the surfaces the stub answers with."""

    def __init__(self, fixtures: Path, noise_seed: int):
        train = _load(fixtures / "synthetic_train.jsonl")
        test = _load(fixtures / "synthetic_test.jsonl")
        self._decoys = json.loads((fixtures / "synthetic_decoys.json").read_text())
        self._noise_seed = noise_seed
        self._tests = {rec["query"]: rec for rec in test}
        demo_vectors = {}
        self._demos = {}
        for rec in train:
            render = f"{rec['query']} {(' ' + SEPARATOR + ' ').join(rec['gold'])}"
            self._demos[render] = rec["key"]
            demo_vectors[rec["key"]] = _embed(rec["query"])
        self._sim = {}
        for t in test:
            test_vector = _embed(t["query"])
            for key, vec in demo_vectors.items():
                self._sim[(t["key"], key)] = float(np.dot(test_vector, vec))

    def answer(self, prompt: str, seed) -> list[str]:
        """Surfaces for one request; raises KeyError for an unknown prompt."""
        blocks = prompt.split(JOINER)
        test = self._tests[blocks[-1]]
        demos = [self._demos[b] for b in blocks[:-1]]
        mean_sim = (
            sum(self._sim[(test["key"], d)] for d in demos) / len(demos) if demos else 0.0
        )
        key = prompt if seed is None else f"{seed}\x1e{prompt}"
        if hash_uniform(self._noise_seed, key) <= correctness_probability(mean_sim):
            return test["gold"]
        pool = self._decoys[test["key"]]
        return list(pool[int(hash_uniform(self._noise_seed + 1, key) * len(pool))])


def completion_response(surfaces: list[str], request: dict) -> dict:
    """Wire-schema response; every token is certain (log-probability 0)."""
    text = f" {SEPARATOR} ".join(surfaces)
    choice: dict = {"text": text}
    if request.get("logprobs"):
        tokens = _TOKEN_RE.findall(text)
        choice["logprobs"] = {
            "tokens": tokens,
            "top_logprobs": [{tok: 0.0} for tok in tokens],
        }
    return {"choices": [choice]}


class StubServer:
    """Minimal HTTP/1.1 keep-alive server for completions and attempt counts."""

    def __init__(self, oracle: Oracle, delay_s: float):
        self.oracle = oracle
        self.delay_s = delay_s
        self.attempts = 0
        self.connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    async def _respond(self, writer, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}[status]
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body
        )
        await writer.drain()

    async def handle(self, reader, writer) -> None:
        task = asyncio.current_task()
        self.connections[task] = writer
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    return
                method, path, _ = request_line.decode("ascii").split(" ", 2)
                length = 0
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = header.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value)
                body = await reader.readexactly(length) if length else b""
                if method == "GET" and path == STATS_PATH:
                    await self._respond(writer, 200, {"attempts": self.attempts})
                elif method == "POST" and path == COMPLETIONS_PATH:
                    self.attempts += 1
                    await self._complete(writer, body)
                else:
                    await self._respond(writer, 404, {"error": path})
        except (ConnectionError, asyncio.IncompleteReadError):
            return
        finally:
            writer.close()
            self.connections.pop(task, None)

    async def close_connections(self) -> None:
        """Close every open connection; each handler then sees EOF and returns."""
        for writer in list(self.connections.values()):
            writer.close()
        await asyncio.gather(*self.connections, return_exceptions=True)

    async def _complete(self, writer, body: bytes) -> None:
        try:
            request = json.loads(body)
            surfaces = self.oracle.answer(request["prompt"], request.get("seed"))
        except (ValueError, KeyError) as exc:
            await self._respond(writer, 400, {"error": f"unanswerable request: {exc!r}"})
            return
        await asyncio.sleep(self.delay_s)
        await self._respond(writer, 200, completion_response(surfaces, request))


async def serve(oracle: Oracle, delay_s: float) -> None:
    stub = StubServer(oracle, delay_s)
    server = await asyncio.start_server(stub.handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    print(f"PORT {port}", flush=True)
    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
    async with server:
        await stdin.read()  # returns at EOF: the parent closed the pipe or exited
        server.close()
        await stub.close_connections()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fixtures", required=True, type=Path)
    parser.add_argument("--delay-ms", type=float, default=10.0)
    parser.add_argument("--noise-seed", type=int, required=True)
    args = parser.parse_args()
    asyncio.run(serve(Oracle(args.fixtures, args.noise_seed), args.delay_ms / 1000.0))


if __name__ == "__main__":
    main()
