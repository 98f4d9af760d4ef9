"""Model access: tokenization, decoding controls, backends, and all network I/O.

Two backends share one interface: a scripted in-process mock for tests and
offline runs, and an HTTP client speaking a completion wire protocol. Both
return ``Generation`` objects carrying the generated text, its tokens, and
per-token top-probability maps so downstream combiners never need to call
the model again. Only the workers of a ``RequestPool`` call a backend: the
resolver shares one pool across a split, and ``complete_many`` sends one
batch through a pool of its own; both send exactly the requests they are
given. The HTTP completion client and the remote embedding client send
their requests through one transport with one retry policy; no other
module touches the network. The transport speaks HTTP/1.1 itself on
``socket`` and ``ssl``: each client keeps at most ``max_in_flight``
keep-alive connections to its endpoint, one per token of the queue that
caps its requests in flight, sends each request in one write, verifies
TLS with the default ``ssl`` context, follows no redirects, and reads no
proxy variables or ``~/.netrc``.
"""
from __future__ import annotations

import json
import logging
import math
import queue
import re
import select
import socket
import ssl
import threading
import time
import urllib.parse
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import BinaryIO, Callable, Mapping, Optional, Protocol, Sequence

import numpy as np

from .corpus import DECODE_ERRORS, from_json, to_json

logger = logging.getLogger(__name__)

# Words are runs of ASCII alphanumerics/underscore; anything else that is
# not whitespace is a single-character token. Whitespace never tokenizes.
_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]")

# Both HTTP clients make at most this many attempts per request, sleeping
# _BACKOFF seconds after the first failure and doubling after each next one.
_MAX_ATTEMPTS = 3
_BACKOFF = 0.5


class Tokenizer(Protocol):
    def tokenize(self, text: str) -> list[str]: ...

    def span_tokenize(self, text: str) -> list[tuple[int, int]]: ...

    def count(self, text: str) -> int: ...


class WordTokenizer:
    """Regex tokenizer: words are `[A-Za-z0-9_]+`, other non-space chars split one by one.

    Deterministic and dependency-free; used for every budget and length
    decision in the package so counts are self-consistent.
    """

    def tokenize(self, text: str) -> list[str]:
        return _TOKEN_RE.findall(text)

    def span_tokenize(self, text: str) -> list[tuple[int, int]]:
        return [m.span() for m in _TOKEN_RE.finditer(text)]

    def count(self, text: str) -> int:
        return len(_TOKEN_RE.findall(text))


class DecodeMode(str, Enum):
    GREEDY = "greedy"
    NUCLEUS = "nucleus"


@dataclass(frozen=True)
class DecodeParams:
    """Decoding controls passed to a backend for one request."""

    mode: DecodeMode = DecodeMode.GREEDY
    max_tokens: int = 256
    top_k: int = 50
    top_p: float = 0.95
    temperature: float = 0.0
    stop_sequences: tuple[str, ...] = ("\n",)
    logprob_depth: int = 20
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")
        if self.top_k < 1:
            raise ValueError("top_k must be positive")
        if not (0.0 < self.top_p <= 1.0):
            raise ValueError("top_p must be in (0, 1]")
        if not 0.0 <= self.temperature < math.inf:
            raise ValueError("temperature must be finite and non-negative")
        if self.logprob_depth < 0:
            raise ValueError("logprob_depth must be non-negative")
        if self.mode is DecodeMode.NUCLEUS and self.temperature == 0.0:
            object.__setattr__(self, "temperature", 1.0)

    @classmethod
    def greedy(cls, **overrides) -> "DecodeParams":
        return cls(mode=DecodeMode.GREEDY, **overrides)

    @classmethod
    def nucleus(cls, seed: Optional[int] = None, **overrides) -> "DecodeParams":
        return cls(mode=DecodeMode.NUCLEUS, seed=seed, **overrides)

    def with_seed(self, seed: int) -> "DecodeParams":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class Generation:
    """One completion: text, its tokens, and per-token top-probability maps.

    ``top_probs[i]`` is the model's probability distribution tail (up to
    logprob_depth entries) over what token i could have been. A generation
    with logprobs disabled carries empty maps.
    """

    text: str
    tokens: tuple[str, ...] = ()
    top_probs: tuple[Mapping[str, float], ...] = ()

    def __post_init__(self) -> None:
        for value in (self.text, *self.tokens):
            if not isinstance(value, str):
                raise TypeError(f"generation text and tokens must be strings, not {value!r}")
        if self.top_probs and len(self.top_probs) != len(self.tokens):
            raise ValueError(
                f"{len(self.top_probs)} probability maps for {len(self.tokens)} tokens"
            )
        for dist in self.top_probs:
            for tok, p in dist.items():
                if not (0.0 <= p <= 1.0 + 1e-9):
                    raise ValueError(f"probability of {tok!r} out of range: {p}")


def answer_slot_starts(tokens: Sequence[str], separator: str) -> list[int]:
    """Positions of the tokens that open an answer slot on the first line.

    The first token, and the first token after each separator token, opens
    a slot; the walk stops at the first token that contains a newline.
    """
    starts: list[int] = []
    expecting = True
    for i, token in enumerate(tokens):
        if "\n" in token:
            break
        if token.strip() == separator:
            expecting = True
        elif expecting:
            starts.append(i)
            expecting = False
    return starts


class Backend(Protocol):
    def complete(self, prompt: str, params: DecodeParams) -> Generation: ...


class BackendError(RuntimeError):
    """A backend failed to produce a completion."""

    def __init__(self, message: str, *, attempts: int = 1, status: Optional[int] = None):
        super().__init__(message)
        self.attempts = attempts
        self.status = status


def nucleus_filter(
    distribution: Mapping[str, float], top_k: int, top_p: float
) -> dict[str, float]:
    """Truncate a distribution to its nucleus and renormalize.

    Tokens are ranked by descending probability (ties broken by token text
    for determinism), capped at top_k, then cut at the smallest prefix whose
    cumulative mass reaches top_p. The survivors are renormalized to sum 1.
    """
    if not distribution:
        raise ValueError("cannot filter an empty distribution")
    ranked = sorted(distribution.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    kept: list[tuple[str, float]] = []
    cum = 0.0
    for tok, p in ranked:
        kept.append((tok, p))
        cum += p
        if cum >= top_p:
            break
    total = sum(p for _, p in kept)
    if total <= 0.0:
        raise ValueError("nucleus has zero mass")
    return {tok: p / total for tok, p in kept}


def nucleus_sample(
    distribution: Mapping[str, float],
    top_k: int,
    top_p: float,
    rng: np.random.Generator,
) -> str:
    """Draw one token from the nucleus-filtered distribution."""
    filtered = nucleus_filter(distribution, top_k, top_p)
    tokens = sorted(filtered)
    probs = np.array([filtered[t] for t in tokens], dtype=float)
    probs /= probs.sum()
    idx = int(rng.choice(len(tokens), p=probs))
    return tokens[idx]


def _truncate_generation(text: str, params: DecodeParams) -> tuple[str, tuple[str, ...]]:
    """Apply stop sequences then the max-token cap, preserving raw text. Returns the kept
    text and its tokens: a cut at a token's end leaves every earlier token whole."""
    cut = len(text)
    for stop in params.stop_sequences:
        pos = text.find(stop)
        if pos != -1:
            cut = min(cut, pos)
    spans = WordTokenizer().span_tokenize(text[:cut])
    if len(spans) > params.max_tokens:
        spans = spans[: params.max_tokens]
        cut = spans[-1][1]
    return text[:cut], tuple(text[a:b] for a, b in spans)


@dataclass(frozen=True)
class ScriptedEntry:
    """One mock rule: which prompts it matches and what they yield.

    ``slot_distributions`` gives the top-probability map for each answer
    slot in order; ``slot_completions`` optionally maps a sampled first
    token to the full surface emitted for that slot (defaults to the token
    itself).
    """

    answer: str
    suffix: Optional[str] = None
    contains: tuple[str, ...] = ()
    slot_distributions: tuple[Mapping[str, float], ...] = ()
    slot_completions: Mapping[str, str] = field(default_factory=dict)

    def matches(self, prompt: str) -> bool:
        if self.suffix is not None and not prompt.endswith(self.suffix):
            return False
        return all(needle in prompt for needle in self.contains)


@dataclass(frozen=True)
class _MockFixture:
    """The top level of a mock fixture file; ``MockBackend.from_fixture`` reads it."""

    mode: str = "scripted"
    entries: tuple[dict, ...] = ()
    default_answer: str = ""
    answer_key: Optional[str] = None


class MockBackend:
    """Deterministic in-process backend driven by scripted rules.

    Rules are tried in order; the first match wins. In greedy mode the
    scripted answer is returned verbatim. In nucleus mode the first token
    of each answer slot is re-sampled from that slot's scripted
    distribution (seeded by the request), and the slot's surface is looked
    up from ``slot_completions``.
    """

    def __init__(
        self,
        entries: Sequence[ScriptedEntry],
        separator: str = "|",
        default_answer: str = "",
    ):
        self._entries = list(entries)
        self._separator = separator
        self._default = default_answer
        self._lock = threading.Lock()
        self.request_count = 0

    def _find(self, prompt: str) -> Optional[ScriptedEntry]:
        for entry in self._entries:
            if entry.matches(prompt):
                return entry
        return None

    def _build_generation(
        self, answer: str, entry: Optional[ScriptedEntry], params: DecodeParams
    ) -> Generation:
        text, tokens = _truncate_generation(answer, params)
        # The first token of each answer slot carries the scripted
        # distribution; every other token is certain.
        dists: list[Mapping[str, float]] = [{tok: 1.0} for tok in tokens]
        scripted = entry.slot_distributions if entry is not None else ()
        depth = params.logprob_depth
        for i, full in zip(answer_slot_starts(tokens, self._separator), scripted):
            ranked = sorted(full.items(), key=lambda kv: (-kv[1], kv[0]))
            dists[i] = dict(ranked[:depth] if depth else [])
        return Generation(text=text, tokens=tokens, top_probs=tuple(dists))

    def _sampled_answer(
        self, entry: ScriptedEntry, params: DecodeParams
    ) -> str:
        rng = np.random.Generator(np.random.PCG64(params.seed or 0))
        greedy_slots = [s.strip() for s in entry.answer.split(self._separator)]
        pieces: list[str] = []
        for i, slot_text in enumerate(greedy_slots):
            if i < len(entry.slot_distributions):
                tok = nucleus_sample(
                    entry.slot_distributions[i], params.top_k, params.top_p, rng
                )
                pieces.append(entry.slot_completions.get(tok, tok))
            else:
                pieces.append(slot_text)
        return f" {self._separator} ".join(pieces)

    def complete(self, prompt: str, params: DecodeParams) -> Generation:
        with self._lock:
            self.request_count += 1
        entry = self._find(prompt)
        if entry is None:
            return self._build_generation(self._default, None, params)
        if params.mode is DecodeMode.NUCLEUS and entry.slot_distributions:
            answer = self._sampled_answer(entry, params)
        else:
            answer = entry.answer
        return self._build_generation(answer, entry, params)

    @classmethod
    def from_fixture(cls, path: str | Path, template=None) -> "MockBackend":
        """Build a mock from a JSON fixture that answers in ``template``'s format.

        Scripted form:
            {"mode": "scripted",
             "entries": [{"suffix": ..., "contains": [...], "answer": ...,
                          "slot_distributions": [{tok: p, ...}, ...],
                          "slot_completions": {tok: surface, ...}}, ...],
             "default_answer": ...}

        Scripted answers use the default separator; the mock swaps in
        ``template``'s, which defaults to ``Template()``'s.

        Oracle-echo form:
            {"mode": "oracle-echo", "answer_key": "relative/path.jsonl"}
        answers every prompt built from the keyed corpus with the gold
        antecedents, for loopback tests. A key that neither form declares,
        at the top level or in an entry, is refused.
        """
        from .corpus import load_corpus, read_json
        from .prompts import Template

        template = template or Template()
        swap = (Template().separator, template.separator)
        path = Path(path)
        entry_defaults = to_json(ScriptedEntry(""), omit=("answer",))

        def entry(e: dict) -> ScriptedEntry:
            scripted = from_json(ScriptedEntry, {**entry_defaults, **e})
            return replace(scripted, answer=scripted.answer.replace(*swap))

        def decode(payload: dict) -> "MockBackend":
            mode = payload.get("mode", _MockFixture.mode)
            # An oracle-echo fixture must name its answer key.
            omit = ("answer_key",) if mode == "oracle-echo" else ()
            fixture = from_json(_MockFixture, {**to_json(_MockFixture(), omit=omit), **payload})
            if mode == "oracle-echo":
                return cls.oracle_echo(load_corpus(path.parent / fixture.answer_key), template)
            if mode != "scripted":
                raise ValueError(f"unknown mock fixture mode: {mode}")
            entries = [entry(e) for e in fixture.entries]
            return cls(entries, separator=template.separator,
                       default_answer=fixture.default_answer.replace(*swap))

        return read_json(path, "mock fixture", decode)

    @classmethod
    def oracle_echo(cls, dataset, template) -> "MockBackend":
        """A mock that answers each known example's prompt with its gold antecedents."""
        tok = WordTokenizer()
        entries = []
        for ex in dataset:
            if not ex.is_labeled:
                continue
            suffix = template.render_example(ex, include_answer=False)
            answer = template.linearize(ex.gold_surfaces())
            first_tokens = [tok.tokenize(s)[0] for s in ex.gold_surfaces()]
            entries.append(
                ScriptedEntry(
                    answer=answer,
                    suffix=suffix,
                    slot_distributions=tuple({t: 1.0} for t in first_tokens),
                )
            )
        return cls(entries, separator=template.separator)


def build_request(prompt: str, params: DecodeParams) -> dict:
    """Serialize one completion request to the wire schema."""
    return {
        "prompt": prompt,
        "max_tokens": params.max_tokens,
        "temperature": 0.0 if params.mode is DecodeMode.GREEDY else params.temperature,
        "top_p": 1.0 if params.mode is DecodeMode.GREEDY else params.top_p,
        "top_k": 0 if params.mode is DecodeMode.GREEDY else params.top_k,
        "stop": list(params.stop_sequences),
        "logprobs": params.logprob_depth,
        "seed": params.seed,
    }


def parse_response(payload: dict) -> Generation:
    """Decode one completion response from the wire schema.

    Any payload that does not decode to a valid ``Generation`` raises
    ``BackendError``.
    """
    try:
        choice = payload["choices"][0]
        text = choice["text"]
        tokens: tuple[str, ...] = ()
        top_probs: tuple[Mapping[str, float], ...] = ()
        lp = choice.get("logprobs")
        if lp:
            # A JSON array; ``Generation`` checks that each token is a string.
            tokens = from_json(tuple, lp.get("tokens", []))
            raw = lp.get("top_logprobs") or [{} for _ in tokens]
            top_probs = tuple(
                {tok: math.exp(v) for tok, v in (entry or {}).items()} for entry in raw
            )
        return Generation(text=text, tokens=tokens, top_probs=top_probs)
    except DECODE_ERRORS as exc:
        raise BackendError(f"malformed completion response: {exc}") from exc


# As in ``http.client``: the longest line, and the most headers, a reply may have.
_MAX_LINE, _MAX_HEADERS = 65536, 100
# The longest reply body read: a 32 x 1,024 embedding batch is ~0.7 MB of JSON.
_MAX_BODY = 16 * 2**20
_STATUS_RE = re.compile(rb"(HTTP/\d\.\d) +([1-9]\d\d)(?:\s|$)")
# The digits of a body length in decimal (``Content-Length``) or hex (a chunk size), by base.
_DIGITS = {10: b"0123456789", 16: b"0123456789ABCDEFabcdef"}


class RemoteDisconnected(ConnectionResetError):
    """The server closed the connection without a reply; named as ``http.client`` names it."""


class ProtocolError(OSError):
    """A reply that breaks HTTP/1.1 framing; retried like any other transport error."""


def _line(reader: BinaryIO, what: str) -> bytes:
    text = reader.readline(_MAX_LINE + 1)
    if len(text) > _MAX_LINE:
        raise ProtocolError(f"{what} line longer than {_MAX_LINE} bytes")
    return text


def _body(reader: BinaryIO, length: bytes, base: int, room: int) -> bytes:
    """The next ``length`` bytes (digits in ``base``); a length over ``room`` reads nothing."""
    if not length or length.translate(None, _DIGITS[base]):
        raise ProtocolError(f"reply body length {length[:80]!r} is not a number")
    # Over 16 significant digits is over any ``room``, and ``int`` refuses over 4,300.
    digits = length.lstrip(b"0")
    if len(digits) > 16 or (size := int(digits or b"0", base)) > room:
        raise ProtocolError(f"reply body longer than {_MAX_BODY} bytes")
    if len(data := reader.read(size)) < size:
        raise ProtocolError(f"reply body does not match its length {length!r}")
    return data


def _read_reply(reader: BinaryIO) -> tuple[int, bool, bytes]:
    """One reply's status, whether its connection can carry another request, and its body."""
    status = 100
    while status < 200:  # a 1xx reply is interim
        if not (text := _line(reader, "status")):
            raise RemoteDisconnected("Remote end closed connection without response")
        if not (match := _STATUS_RE.match(text)):
            raise ProtocolError(f"bad status line {text[:80]!r}")
        status, fields = int(match[2]), []
        while (text := _line(reader, "header")).strip():
            if len(fields) == _MAX_HEADERS:
                raise ProtocolError(f"got more than {_MAX_HEADERS} headers")
            fields.append(text.partition(b":"))
    headers = {name.strip().lower(): value.strip().lower() for name, _, value in fields}
    connection = headers.get(b"connection", b"")
    keep_alive = b"close" not in connection and (
        match[1] != b"HTTP/1.0" or b"keep-alive" in connection)
    if status in (204, 304):
        return status, keep_alive, b""
    if headers.get(b"transfer-encoding") == b"chunked":
        chunks, room = [], _MAX_BODY
        # A chunk size may be followed by whitespace, then extensions after a ";".
        while chunk := _body(reader, _line(reader, "chunk size").partition(b";")[0].rstrip(),
                             16, room):
            chunks.append(chunk)
            room -= len(chunk)
            if reader.read(2) != b"\r\n":
                raise ProtocolError("chunk data not followed by CRLF")
        while _line(reader, "trailer").strip():  # the last-chunk's trailer, then a blank line
            pass
        return status, keep_alive, b"".join(chunks)
    if b"content-length" in headers:
        if len(headers) < len(fields) and len(  # only a repeated field name can repeat it
                {v.strip() for n, _, v in fields if n.strip().lower() == b"content-length"}) > 1:
            raise ProtocolError("reply has Content-Length fields that differ")
        return status, keep_alive, _body(reader, headers[b"content-length"], 10, _MAX_BODY)
    if len(data := reader.read(_MAX_BODY + 1)) > _MAX_BODY:
        raise ProtocolError(f"reply body longer than {_MAX_BODY} bytes")
    return status, False, data


# A pooled connection: its socket, the reader its replies are parsed from, its EOF poller.
_Connection = tuple[socket.socket, BinaryIO, "select.poll"]
# ``json.dumps`` with a non-default option builds an encoder per call.
_ENCODER = json.JSONEncoder(allow_nan=False)


def _close(conn: _Connection) -> None:
    conn[1].close()
    conn[0].close()


class _JSONTransport:
    """POSTs JSON to one endpoint over pooled keep-alive connections, with bounded retries.

    ``endpoint`` must be an ``http`` or ``https`` URL with a host, and a
    space or control character in its host or path, or a line break in
    ``token``, would break the request head; either raises ``ValueError`` at
    construction, as does a ``max_in_flight`` below 1 or a ``timeout`` that
    is not positive. Each request is one write. ``timeout`` bounds each
    socket operation (connect, send, one read), not the whole request, and
    no reply body may pass ``_MAX_BODY`` bytes.
    ``_read_reply`` skips 1xx replies and frames a body by chunked transfer
    coding, else ``Content-Length``, else the connection's end; 204 and 304
    have none. Transport errors, misframed replies and 5xx responses are
    retried up to ``_MAX_ATTEMPTS`` times with exponential backoff; a
    certificate that fails verification, any other non-2xx response
    (redirects are not followed), or a 2xx body that ``decode`` rejects,
    fails at once. A queue of ``max_in_flight`` tokens caps in-flight
    requests, and with them the open connections: a request takes a token,
    then an idle connection or, when none is left, opens one, and hands it
    back unless the reply said ``Connection: close``, was HTTP/1.0 without
    ``keep-alive``, or ran to the connection's end. An idle connection the
    server has closed is discarded before use, so it costs no attempt; the
    poller that checks it is built once, when the connection opens. Every
    failure is a ``BackendError`` whose message starts with ``label``,
    naming the endpoint.
    """

    def __init__(self, label: str, endpoint: str, token: Optional[str], timeout: float,
                 sleep: Callable[[float], None], max_in_flight: int = 8):
        if max_in_flight < 1 or not timeout > 0:
            raise ValueError(f"{label} needs max_in_flight >= 1 and a positive timeout, "
                             f"got {max_in_flight} and {timeout}")
        url = urllib.parse.urlsplit(endpoint.rstrip("/"))
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"{label} endpoint is not an http:// or https:// URL "
                             f"with a host: {endpoint!r}")
        default_port = 443 if url.scheme == "https" else 80
        self._address = (url.hostname, url.port or default_port)
        self._timeout = timeout
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        host = f"[{url.hostname}]" if ":" in url.hostname else url.hostname
        host += f":{url.port}" if url.port not in (None, default_port) else ""
        path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        if re.search(r"[\x00-\x20\x7f]", host + path) or re.search(r"[\r\n]", token or ""):
            raise ValueError(f"{label} endpoint or token holds a space or control character")
        auth = f"Authorization: Bearer {token}\r\n" if token else ""
        self._head = (f"POST {path} HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n"
                      f"Content-Type: application/json\r\n{auth}").encode("latin-1")
        self._label = label
        self._sleep = sleep
        # One token per request in flight; unlike a semaphore's, no Python code runs per take.
        self._tokens: queue.SimpleQueue = queue.SimpleQueue()
        for _ in range(max_in_flight):
            self._tokens.put(None)
        self._idle: list[_Connection] = []

    def post(self, body: dict, decode: Callable):
        """Send ``body``; return ``decode`` applied to the JSON reply."""
        payload = _ENCODER.encode(body).encode("utf-8")
        request = b"%sContent-Length: %d\r\n\r\n%s" % (self._head, len(payload), payload)
        last_error: Optional[str] = None
        last_status: Optional[int] = None
        for attempt in range(1, _MAX_ATTEMPTS + 1):
            try:
                status, data = self._round_trip(request)
            except ssl.SSLCertVerificationError as exc:
                # Retrying cannot make an untrusted certificate trusted.
                raise BackendError(f"{self._label} failed: {type(exc).__name__}: {exc}",
                                   attempts=attempt) from exc
            except OSError as exc:
                last_error = f"{type(exc).__name__}: {exc}"
            else:
                last_status = status
                if 200 <= status < 300:
                    try:
                        return decode(json.loads(data))
                    except (BackendError, *DECODE_ERRORS) as exc:
                        raise BackendError(
                            f"{self._label} returned HTTP {status} with unusable body: {exc}",
                            attempts=attempt, status=status,
                        ) from exc
                last_error = f"HTTP {status}"
                if status < 500:
                    raise BackendError(f"{self._label} rejected: {last_error}",
                                       attempts=attempt, status=status)
            logger.warning("%s attempt %d failed: %s", self._label, attempt, last_error)
            if attempt < _MAX_ATTEMPTS:
                self._sleep(_BACKOFF * (2 ** (attempt - 1)))
        raise BackendError(
            f"{self._label} failed after {_MAX_ATTEMPTS} attempts: {last_error}",
            attempts=_MAX_ATTEMPTS, status=last_status,
        )

    def _round_trip(self, request: bytes) -> tuple[int, bytes]:
        """Send ``request`` on a pooled connection under a token; return the status and body."""
        self._tokens.get()
        try:
            conn = self._checkout()
            try:
                conn[0].sendall(request)
                status, keep_alive, data = _read_reply(conn[1])
            except BaseException:
                _close(conn)
                raise
            if keep_alive:  # pooled before the token is back, so no request opens one too many
                self._idle.append(conn)
            else:
                _close(conn)
        finally:
            self._tokens.put(None)
        return status, data

    def _checkout(self) -> _Connection:
        """An idle connection the server has not closed, or else a new one."""
        while True:
            try:
                conn = self._idle.pop()
            except IndexError:
                break
            # An idle socket that polls readable holds either EOF or bytes no
            # request asked for; either way it cannot carry the next request.
            if not conn[2].poll(0):
                return conn
            _close(conn)
        sock = socket.create_connection(self._address, self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self._tls is not None:
            # A failed handshake closes the socket it wrapped.
            sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return sock, sock.makefile("rb"), poller

    def close(self) -> None:
        """Close the idle connections."""
        while self._idle:
            _close(self._idle.pop())


class HTTPBackend:
    """Completion client for an HTTP endpoint speaking the wire schema."""

    def __init__(
        self,
        endpoint: str,
        token: Optional[str] = None,
        max_in_flight: int = 8,
        timeout: float = 60.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._transport = _JSONTransport("completion", endpoint, token, timeout, sleep,
                                         max_in_flight)

    def complete(self, prompt: str, params: DecodeParams) -> Generation:
        return self._transport.post(build_request(prompt, params), parse_response)

    def close(self) -> None:
        """Close the idle keep-alive connections."""
        self._transport.close()


class RemoteEmbedder:
    """Client for an embedding endpoint: POST {"texts": [...]} -> {"vectors": [...]}."""

    def __init__(self, endpoint: str, token: Optional[str] = None, timeout: float = 60.0,
                 sleep: Callable[[float], None] = time.sleep):
        self._transport = _JSONTransport("embedding request", endpoint, token, timeout, sleep)

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text; any failure of the endpoint raises ``BackendError``."""

        def vectors(payload) -> np.ndarray:
            rows = np.asarray(payload["vectors"], dtype=np.float64)
            if rows.ndim != 2 or len(rows) != len(texts):
                raise ValueError(f"shape {rows.shape} for {len(texts)} texts")
            return rows

        return self._transport.post({"texts": list(texts)}, vectors)

    def close(self) -> None:
        """Close the idle keep-alive connections."""
        self._transport.close()


class _Batch:
    """One submitted batch, decided once its first ``stop`` slots are filled: all of
    them, or those up to its lowest failed one. ``decided`` is held until then."""

    PENDING = object()  # the slot of a request that has not finished

    def __init__(self, size: int):
        self.slots, self.filled, self.stop, self.error = [self.PENDING] * size, 0, size, None
        self.lock, self.decided = threading.Lock(), threading.Lock()
        if size:
            self.decided.acquire()

    def finish(self, index: int, generation, error: Optional[BaseException]) -> None:
        with self.lock:
            if index >= self.stop:
                return  # queued after the failure raised: it changes nothing
            self.slots[index] = generation
            if error is not None:
                self.stop, self.error = index + 1, error
            while self.filled < self.stop and self.slots[self.filled] is not self.PENDING:
                self.filled += 1
            if self.filled == self.stop:
                self.decided.release()

    def wait(self) -> list[Generation]:
        with self.decided:
            if self.error is not None:
                raise self.error
            return self.slots


class RequestPool:
    """``parallelism`` worker threads that send batches of requests to one backend.

    The workers take requests from one queue in submission order, and no
    more start than requests have been queued. Leaving the ``with`` block
    joins them once the queue is empty; if an exception is leaving it,
    requests not yet started are not sent, and their batches fail with it.
    """

    def __init__(self, backend: Backend, parallelism: int):
        self._backend = backend
        self._parallelism = parallelism
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._workers: list[threading.Thread] = []
        self._cancel: Optional[BaseException] = None

    def __enter__(self) -> "RequestPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._cancel = exc
        for _ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join()

    def _work(self) -> None:
        while (item := self._queue.get()) is not None:
            batch, index, prompt, params = item
            generation, error = None, self._cancel
            # After a failure the batch's unstarted requests are not sent, as
            # in a serial loop; one queued before the failure is no failure.
            if batch.error is None and error is None:
                try:
                    generation = self._backend.complete(prompt, params)
                except BaseException as exc:  # raised again by the wait step
                    error = exc
            batch.finish(index, generation, error)

    def submit(
        self, requests: Sequence[tuple[str, DecodeParams]]
    ) -> Callable[[], list[Generation]]:
        """Queue every request, duplicates included; return the step that waits.

        The wait step blocks once, until the batch is decided. It returns the
        generations by position, as ``complete_many`` does, or raises the
        first failure in queue order without waiting for the requests queued
        after it. Once a request has failed, the batch's unstarted requests
        are not sent.
        """
        batch = _Batch(len(requests))
        for index, (prompt, params) in enumerate(requests):
            self._queue.put((batch, index, prompt, params))
        for _ in range(min(self._parallelism - len(self._workers), len(requests))):
            self._workers.append(threading.Thread(target=self._work, daemon=True))
            self._workers[-1].start()
        return batch.wait


def complete_many(
    backend: Backend,
    requests: Sequence[tuple[str, DecodeParams]],
    parallelism: int = 8,
) -> list[Generation]:
    """Send every ``(prompt, params)`` request to the backend, preserving order.

    Requests are sent as given, duplicates included; merging requests that
    may share a generation is the caller's choice. The batch goes through
    a ``RequestPool`` of its own at every ``parallelism`` and size, so
    results come back by position regardless of completion order, the
    first failure in queue order is raised, and requests not yet started
    when a request fails are not sent.
    """
    with RequestPool(backend, parallelism) as pool:
        return pool.submit(requests)()
