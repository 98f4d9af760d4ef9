"""Shared test helpers: noise model, stub embedder, corpus builders, loopback server.

The noisy oracle backend simulates a language model whose per-prompt
accuracy rises with demonstration-to-test similarity: prompts built from
well-matched demos usually answer with the gold antecedents, poorly
matched ones emit decoys. All randomness is hash-derived from the prompt
text, so runs are reproducible without shared state.
"""
from __future__ import annotations

import hashlib
import json
import socket
import ssl
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from mice.corpus import Dataset, Example, Span
from mice.gateway import BackendError, DecodeParams, Generation, Tokenizer, WordTokenizer
from mice.gating import HashingEmbedder, cosine
from mice.prompts import Template

NOISE_SEED = 20260818
# A self-signed certificate for 127.0.0.1 and its key, for TLS loopback servers.
TLS_CERT = Path(__file__).parent / "fixtures" / "loopback_cert.pem"
TLS_KEY = Path(__file__).parent / "fixtures" / "loopback_key.pem"


def hash_uniform(seed: int, text: str) -> float:
    """Deterministic uniform draw in [0, 1) keyed by (seed, text)."""
    digest = hashlib.blake2b(
        f"{seed}\x1f{text}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def correctness_probability(mean_similarity: float) -> float:
    """Per-prompt accuracy: affine in similarity, clipped to [0.30, 0.70]."""
    return min(0.70, max(0.30, 0.25 + 0.6 * mean_similarity))


def make_example(
    doc_id: str,
    antecedents: Sequence[str],
    lead: str = "Charge the flask with",
    anaphor: str = "the mixture",
    tail: str = "was stirred for two hours.",
) -> Example:
    """Build a labeled example whose antecedents precede the anaphor."""
    body = " and ".join(antecedents)
    text = f"{lead} {body}. Then {anaphor} {tail}"
    spans = []
    cursor = 0
    for surface in antecedents:
        start = text.index(surface, cursor)
        spans.append(Span(start, start + len(surface), surface))
        cursor = start + len(surface)
    ana_start = text.index(anaphor, cursor)
    return Example(
        doc_id=doc_id,
        text=text,
        anaphor=Span(ana_start, ana_start + len(anaphor), anaphor),
        gold_antecedents=tuple(spans),
    )


def make_dataset(count: int, prefix: str = "doc", **kwargs) -> Dataset:
    examples = tuple(
        make_example(f"{prefix}{i}", [f"reagent A{i}", f"solvent B{i}"], **kwargs)
        for i in range(count)
    )
    return Dataset(examples=examples, split_name=prefix)


class StubEmbedder:
    """Maps exact texts to preassigned vectors; unknown texts fail loudly."""

    def __init__(self, vectors: Mapping[str, Sequence[float]]):
        self._vectors = {t: np.asarray(v, dtype=np.float64) for t, v in vectors.items()}

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        rows = []
        for text in texts:
            if text not in self._vectors:
                raise KeyError(f"no stub vector for {text[:60]!r}")
            rows.append(self._vectors[text])
        return np.stack(rows)


class NoisyOracleBackend:
    """Similarity-correlated scripted answers with decoy corruption.

    Each request is decomposed into its demonstrations and test input by
    exact string matching against the known corpus renders. The chance the
    answer is the gold set rises with the demos' mean similarity to the
    test input; otherwise a decoy surface pair (hash-chosen from the
    example's pool) is emitted. Deterministic: same prompt, same answer.
    """

    def __init__(
        self,
        train: Dataset,
        test: Dataset,
        decoys: Mapping[str, Sequence[Sequence[str]]],
        noise_seed: int = NOISE_SEED,
        template: Optional[Template] = None,
        tokenizer: Optional[Tokenizer] = None,
        embed_dim: int = 1024,
    ):
        self._template = template or Template()
        self._tokenizer = tokenizer or WordTokenizer()
        self._decoys = {k: [list(pair) for pair in pool] for k, pool in decoys.items()}
        self._noise_seed = noise_seed
        embedder = HashingEmbedder(embed_dim)

        self._test_by_render: dict[str, Example] = {}
        test_renders = []
        for ex in test:
            render = self._template.render_example(ex, include_answer=False)
            self._test_by_render[render] = ex
            test_renders.append(render)
        self._demo_by_render: dict[str, Example] = {}
        demo_renders = []
        for ex in train:
            render = self._template.render_example(ex, include_answer=True)
            self._demo_by_render[render] = ex
            demo_renders.append(self._template.render_example(ex, include_answer=False))

        test_vectors = embedder.embed(test_renders)
        demo_vectors = embedder.embed(demo_renders)
        self._sim: dict[tuple[str, str], float] = {}
        for ti, tex in enumerate(test):
            for di, dex in enumerate(train):
                self._sim[(tex.key, dex.key)] = cosine(
                    test_vectors[ti], demo_vectors[di]
                )
        self.request_count = 0

    def answer_for(self, prompt: str) -> list[str]:
        """The surfaces this backend will emit for a prompt."""
        joiner = self._template.demonstration_joiner
        segments = prompt.split(joiner)
        test_render = segments[-1]
        test = self._test_by_render.get(test_render)
        if test is None:
            raise AssertionError("prompt does not end with a known test input")
        demos = []
        for segment in segments[:-1]:
            demo = self._demo_by_render.get(segment)
            if demo is None:
                raise AssertionError("prompt contains an unknown demonstration")
            demos.append(demo)
        if demos:
            mean_sim = sum(self._sim[(test.key, d.key)] for d in demos) / len(demos)
        else:
            mean_sim = 0.0
        p = correctness_probability(mean_sim)
        if hash_uniform(self._noise_seed, prompt) <= p:
            return test.gold_surfaces()
        pool = self._decoys[test.key]
        idx = int(hash_uniform(self._noise_seed + 1, prompt) * len(pool))
        return list(pool[idx])

    def complete(self, prompt: str, params: DecodeParams) -> Generation:
        self.request_count += 1
        surfaces = self.answer_for(prompt)
        text = f" {self._template.separator} ".join(surfaces)
        spans = self._tokenizer.span_tokenize(text)
        tokens = tuple(text[a:b] for a, b in spans)
        return Generation(
            text=text,
            tokens=tokens,
            top_probs=tuple({tok: 1.0} for tok in tokens),
        )


DROP = "drop"  # scripted outcome: close the connection without replying


@dataclass
class Reply:
    """A scripted response: a dict or list payload is sent as JSON, bytes as is.

    ``hang_up`` closes the connection after the reply without announcing it,
    as a server whose keep-alive timeout expires does. ``raw``, when given,
    is written verbatim in place of the whole reply, status line and headers
    included, so a test can send framing no well-behaved server would.
    With ``pause``, ``raw`` goes out one line per write, each after a pause
    of that many seconds.
    """

    status: int = 200
    payload: object = None
    headers: Mapping[str, str] = field(default_factory=dict)
    hang_up: bool = False
    raw: Optional[bytes] = None
    pause: float = 0.0


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive unless a reply says otherwise
    disable_nagle_algorithm = True  # headers and body go out in separate writes

    def do_POST(self):  # noqa: N802 - http.server API
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            parsed = json.loads(body)
        except ValueError:
            parsed = None
        call = {"path": self.path, "headers": dict(self.headers), "body": body, "json": parsed}
        outcome = self.server.script.next_outcome(call)
        if outcome == DROP:
            self.close_connection = True
            return
        reply = outcome if isinstance(outcome, Reply) else Reply(outcome)
        if reply.raw is not None:
            for line in reply.raw.splitlines(keepends=True) if reply.pause else [reply.raw]:
                time.sleep(reply.pause)
                self.wfile.write(line)
            self.close_connection = reply.hang_up
            return
        payload = self.server.script.body if reply.payload is None else reply.payload
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(reply.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in reply.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)
        if reply.hang_up:
            self.close_connection = True

    def log_message(self, format, *args):  # noqa: A002 - http.server API
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, script):
        self.script = script
        super().__init__(("127.0.0.1", 0), _Handler)

    def process_request(self, request, client_address):
        self.script.opened(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.script.closed(request)


class LoopbackServer:
    """HTTP/1.1 keep-alive server on 127.0.0.1 that replays scripted outcomes.

    ``outcomes`` is a list consumed one per request, or a callable that
    takes the recorded request and returns the outcome. An outcome is an
    int status, answered with ``body``; a ``Reply``; or ``DROP``. Each
    request is recorded in ``calls`` as its path, headers, raw body and
    decoded JSON. ``connections`` counts the TCP connections accepted,
    ``open`` those not yet closed, and ``peak_open`` the most open at once.
    Clients made by ``client`` are closed with the server. With ``tls`` the
    server speaks HTTPS with the self-signed ``TLS_CERT``.
    """

    def __init__(self, outcomes, body=None, tls=False):
        self._outcomes = outcomes if callable(outcomes) else list(outcomes)
        self.body = {} if body is None else body
        self.calls = []
        self.connections = 0
        self.peak_open = 0
        self._sockets = set()
        self._clients = []
        self._lock = threading.Lock()
        self._server = _Server(self)
        if tls:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(TLS_CERT, TLS_KEY)
            self._server.socket = context.wrap_socket(self._server.socket, server_side=True)
        scheme = "https" if tls else "http"
        self.url = f"{scheme}://127.0.0.1:{self._server.server_address[1]}/v1/endpoint"
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True)
        self._thread.start()

    @property
    def open(self) -> int:
        with self._lock:
            return len(self._sockets)

    def next_outcome(self, call):
        with self._lock:
            self.calls.append(call)
            if not callable(self._outcomes):
                return self._outcomes.pop(0) if self._outcomes else Reply(418, b"out of script")
        return self._outcomes(call)

    def opened(self, sock):
        with self._lock:
            self.connections += 1
            self._sockets.add(sock)
            self.peak_open = max(self.peak_open, len(self._sockets))

    def closed(self, sock):
        with self._lock:
            self._sockets.discard(sock)

    def client(self, make, **kwargs):
        """``make(self.url, **kwargs)``, closed when the server closes."""
        client = make(self.url, **kwargs)
        self._clients.append(client)
        return client

    def wait_until_closed(self, timeout: float = 5.0) -> None:
        """Block until the server has closed every connection it accepted."""
        deadline = time.monotonic() + timeout
        while self.open:
            if time.monotonic() > deadline:
                raise TimeoutError(f"{self.open} connections still open")
            time.sleep(0.001)

    def close(self) -> None:
        for client in self._clients:
            client.close()
        self._server.shutdown()
        with self._lock:
            sockets = list(self._sockets)
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._server.server_close()
        self._thread.join(timeout=5)


class ConcurrencyProbe:
    """Wraps a backend and records the most ``complete`` calls running at once.

    Each call sleeps ``delay`` seconds first, so that calls that can overlap do.
    """

    def __init__(self, inner, delay: float = 0.002):
        self._inner = inner
        self._delay = delay
        self._lock = threading.Lock()
        self._running = 0
        self.peak = 0

    def complete(self, prompt: str, params: DecodeParams) -> Generation:
        with self._lock:
            self._running += 1
            self.peak = max(self.peak, self._running)
        try:
            time.sleep(self._delay)
            return self._inner.complete(prompt, params)
        finally:
            with self._lock:
                self._running -= 1


class HoldingBackend:
    """Holds the requests whose prompt contains ``hold`` until one containing ``until`` arrives.

    A held request then goes to ``inner``, or, with ``fail``, raises
    ``BackendError``. If no such request arrives within ``timeout`` seconds,
    the held request raises ``BackendError`` saying so.
    """

    def __init__(self, inner, hold: str, until: str, fail: bool = False,
                 timeout: float = 2.0):
        self._inner = inner
        self._hold = hold
        self._until = until
        self._fail = fail
        self._timeout = timeout
        self._seen = threading.Event()

    def complete(self, prompt: str, params: DecodeParams) -> Generation:
        if self._until in prompt:
            self._seen.set()
        elif self._hold in prompt:
            if not self._seen.wait(self._timeout):
                raise BackendError(f"no request for the next example within {self._timeout} s")
            if self._fail:
                raise BackendError("held request failed")
        return self._inner.complete(prompt, params)
