"""Decode parameters, nucleus sampling, mock backend, HTTP clients and their transport.

The HTTP clients run against a scripted server on 127.0.0.1 (``serve``).
"""
import functools
import json
import math
import select
import socket
import sys
import threading
import time

import numpy as np
import pytest

from mice import gateway
from mice.corpus import CorpusError, load_corpus
from mice.gateway import (
    BackendError,
    DecodeMode,
    DecodeParams,
    Generation,
    HTTPBackend,
    MockBackend,
    RemoteEmbedder,
    RequestPool,
    ScriptedEntry,
    WordTokenizer,
    answer_slot_starts,
    build_request,
    complete_many,
    nucleus_filter,
    nucleus_sample,
    parse_response,
)
from mice.prompts import Template

from conftest import FIXTURES
from support import DROP, TLS_CERT, Reply


class TestDecodeParams:
    def test_greedy_defaults(self):
        params = DecodeParams.greedy()
        assert params.mode is DecodeMode.GREEDY
        assert params.temperature == 0.0
        assert params.stop_sequences == ("\n",)

    def test_nucleus_gets_unit_temperature(self):
        params = DecodeParams(mode=DecodeMode.NUCLEUS)
        assert params.temperature == 1.0

    def test_with_seed_copies(self):
        base = DecodeParams.nucleus()
        seeded = base.with_seed(41)
        assert seeded.seed == 41
        assert base.seed is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_tokens": 0},
            {"top_k": 0},
            {"top_p": 0.0},
            {"top_p": 1.5},
            {"temperature": -0.1},
            {"logprob_depth": -1},
            {"temperature": math.inf},
            {"temperature": math.nan},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DecodeParams(**kwargs)


class TestGeneration:
    def test_probability_maps_must_align_with_tokens(self):
        with pytest.raises(ValueError):
            Generation(text="a b", tokens=("a", "b"), top_probs=({"a": 1.0},))

    def test_probability_range_checked(self):
        with pytest.raises(ValueError):
            Generation(text="a", tokens=("a",), top_probs=({"a": 1.5},))

    @pytest.mark.parametrize(
        "tokens, starts",
        [
            (("water", "|", "DCM"), [0, 2]),
            (("ice", "water", " | ", "brine"), [0, 3]),
            (("|", "|", "a", "b", "|"), [2]),
            (("a", "\n", "|", "b"), [0]),
            ((), []),
        ],
    )
    def test_answer_slot_starts(self, tokens, starts):
        assert answer_slot_starts(tokens, "|") == starts


class TestNucleusFilter:
    def test_cuts_at_cumulative_top_p(self):
        dist = {"a": 0.6, "b": 0.3, "c": 0.1}
        kept = nucleus_filter(dist, top_k=50, top_p=0.8)
        assert set(kept) == {"a", "b"}
        assert kept["a"] == pytest.approx(0.6 / 0.9)
        assert kept["b"] == pytest.approx(0.3 / 0.9)

    def test_top_k_caps_before_top_p(self):
        dist = {"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1}
        kept = nucleus_filter(dist, top_k=2, top_p=1.0)
        assert set(kept) == {"a", "b"}
        assert sum(kept.values()) == pytest.approx(1.0)

    def test_ties_rank_by_token_text(self):
        dist = {"z": 0.5, "a": 0.5}
        kept = nucleus_filter(dist, top_k=1, top_p=1.0)
        assert set(kept) == {"a"}

    def test_boundary_inclusion(self):
        # The token that reaches the threshold is kept.
        dist = {"a": 0.5, "b": 0.45, "c": 0.05}
        kept = nucleus_filter(dist, top_k=50, top_p=0.95)
        assert set(kept) == {"a", "b"}

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError):
            nucleus_filter({}, top_k=50, top_p=0.95)

    def test_whole_distribution_survives_top_p_one(self):
        dist = {"a": 0.7, "b": 0.3}
        assert nucleus_filter(dist, top_k=50, top_p=1.0) == pytest.approx(dist)


class TestNucleusSample:
    def test_seeded_draws_are_reproducible(self):
        dist = {"a": 0.5, "b": 0.3, "c": 0.2}
        rng1 = np.random.Generator(np.random.PCG64(5))
        rng2 = np.random.Generator(np.random.PCG64(5))
        draws1 = [nucleus_sample(dist, 50, 0.95, rng1) for _ in range(50)]
        draws2 = [nucleus_sample(dist, 50, 0.95, rng2) for _ in range(50)]
        assert draws1 == draws2

    def test_excluded_tokens_never_appear(self):
        dist = {"a": 0.6, "b": 0.3, "c": 0.1}
        rng = np.random.Generator(np.random.PCG64(0))
        draws = {nucleus_sample(dist, 50, 0.8, rng) for _ in range(200)}
        assert "c" not in draws


class TestTokenizers:
    def test_word_tokenizer_splits_punctuation(self):
        assert WordTokenizer().tokenize("water, DCM (dry)") == [
            "water", ",", "DCM", "(", "dry", ")",
        ]



class TestMockBackend:
    def scripted(self):
        return MockBackend.from_fixture(FIXTURES / "scripted_mock.json")

    def test_scripted_greedy_answer(self):
        backend = self.scripted()
        prompt = "Context vessel 900.\nQuestion: What does the mixture contain?\nAnswer:"
        gen = backend.complete(prompt, DecodeParams.greedy())
        assert gen.text == "water | DCM"
        assert gen.tokens == ("water", "|", "DCM")

    def test_slot_positions_carry_scripted_distributions(self):
        backend = self.scripted()
        prompt = "Context vessel 900.\nQuestion: What does the mixture contain?\nAnswer:"
        gen = backend.complete(prompt, DecodeParams.greedy())
        assert gen.top_probs[0] == {"water": 0.8, "brine": 0.15, "ice": 0.05}
        assert gen.top_probs[1] == {"|": 1.0}
        assert gen.top_probs[2] == {"DCM": 0.7, "ether": 0.2, "hexane": 0.1}

    def test_logprob_depth_truncates_distributions(self):
        backend = self.scripted()
        prompt = "Context vessel 900.\nQuestion: What does the mixture contain?\nAnswer:"
        gen = backend.complete(prompt, DecodeParams.greedy(logprob_depth=1))
        assert gen.top_probs[0] == {"water": 0.8}

    def test_unmatched_prompt_gets_default_answer(self):
        backend = self.scripted()
        gen = backend.complete("unrelated", DecodeParams.greedy())
        assert gen.text == "water"

    def test_nucleus_mode_resamples_slots_deterministically(self):
        backend = self.scripted()
        prompt = "Context vessel 900.\nQuestion: What does the mixture contain?\nAnswer:"
        params = DecodeParams.nucleus(seed=123)
        first = backend.complete(prompt, params)
        second = backend.complete(prompt, params)
        assert first.text == second.text
        surfaces = [s.strip() for s in first.text.split("|")]
        assert surfaces[0] in {"water", "brine", "ice water"}
        assert surfaces[1] in {"DCM", "diethyl ether", "hexane"}

    def test_nucleus_seeds_change_the_draw(self):
        backend = self.scripted()
        prompt = "Context vessel 900.\nQuestion: What does the mixture contain?\nAnswer:"
        texts = {
            backend.complete(prompt, DecodeParams.nucleus(seed=s)).text
            for s in range(30)
        }
        assert len(texts) > 1

    def test_stop_sequence_truncates(self):
        backend = MockBackend(
            [ScriptedEntry(answer="water\njunk tail", contains=("q",))]
        )
        gen = backend.complete("q", DecodeParams.greedy())
        assert gen.text == "water"

    def test_max_tokens_truncates(self):
        backend = MockBackend(
            [ScriptedEntry(answer="one two three four", contains=("q",))],
        )
        gen = backend.complete("q", DecodeParams.greedy(max_tokens=2))
        assert gen.text == "one two"

    @pytest.mark.parametrize("max_tokens", [1, 2, 3, 5, 64])
    @pytest.mark.parametrize("answer", ["one two three", "a,b (c)  d\ne f", "  x_y | z9 ", ""])
    def test_truncated_tokens_are_the_kept_texts_tokens(self, answer, max_tokens):
        gen = MockBackend([], default_answer=answer).complete(
            "q", DecodeParams.greedy(max_tokens=max_tokens))
        assert list(gen.tokens) == WordTokenizer().tokenize(gen.text)
        assert len(gen.tokens) <= max_tokens

    def test_request_count_is_thread_safe(self):
        backend = MockBackend([], default_answer="x")
        threads = [
            threading.Thread(
                target=lambda: [
                    backend.complete("p", DecodeParams.greedy()) for _ in range(50)
                ]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert backend.request_count == 400

    def test_oracle_echo_answers_gold(self):
        corpus = load_corpus(FIXTURES / "oracle_corpus.jsonl")
        backend = MockBackend.oracle_echo(corpus, Template())
        template = Template()
        ex = corpus.examples[0]
        prompt = template.render_prompt([corpus.examples[1]], ex)
        gen = backend.complete(prompt, DecodeParams.greedy())
        assert gen.text == template.linearize(ex.gold_surfaces())

    def test_oracle_echo_fixture_loads(self):
        backend = MockBackend.from_fixture(FIXTURES / "oracle_echo.json")
        corpus = load_corpus(FIXTURES / "oracle_corpus.jsonl")
        template = Template()
        ex = corpus.examples[5]
        prompt = template.render_prompt([corpus.examples[0]], ex)
        gen = backend.complete(prompt, DecodeParams.greedy())
        assert gen.text == template.linearize(ex.gold_surfaces())

    @pytest.mark.parametrize("payload, detail", [
        ({"entires": []}, "unknown mock fixture fields: ['entires']"),
        ({"entries": [{"answer": "water", "sufix": "x"}]},
         "unknown scripted entry fields: ['sufix']"),
        ({"entries": [{"suffix": "x"}]}, "missing field 'answer'"),
        ({"mode": "oracle-echo"}, "missing field 'answer_key'"),
    ], ids=["top-level-key", "entry-key", "entry-answer", "answer-key"])
    def test_fixture_fields_are_checked(self, tmp_path, payload, detail):
        fixture = tmp_path / "mock.json"
        fixture.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CorpusError) as info:
            MockBackend.from_fixture(fixture)
        assert str(info.value) == f"mock fixture {fixture}: {detail}"


class TestWireSchema:
    def test_request_matches_golden(self):
        request = build_request(
            "Question: What does the mixture contain?\nAnswer:",
            DecodeParams.greedy(max_tokens=64, logprob_depth=5),
        )
        golden = json.loads((FIXTURES / "golden_request.json").read_text())
        assert request == golden

    def test_greedy_request_forces_exhaustive_decode(self):
        request = build_request("p", DecodeParams.greedy())
        assert request["temperature"] == 0.0
        assert request["top_p"] == 1.0
        assert request["top_k"] == 0

    def test_nucleus_request_carries_sampling_params(self):
        request = build_request("p", DecodeParams.nucleus(seed=7))
        assert request["temperature"] == 1.0
        assert request["top_p"] == 0.95
        assert request["top_k"] == 50
        assert request["seed"] == 7

    def test_parse_response_golden(self):
        payload = json.loads((FIXTURES / "golden_response.json").read_text())
        gen = parse_response(payload)
        assert gen.text == "water | DCM"
        assert gen.tokens == ("water", "|", "DCM")
        assert gen.top_probs[0]["water"] == pytest.approx(0.9)
        assert gen.top_probs[2]["ether"] == pytest.approx(0.3)

    def test_parse_response_without_logprobs(self):
        gen = parse_response({"choices": [{"text": "water"}]})
        assert gen.text == "water"
        assert gen.tokens == ()

    def test_parse_response_malformed(self):
        with pytest.raises(BackendError, match="malformed"):
            parse_response({"choices": []})


GOOD = {"choices": [{"text": "water"}]}
GOOD_BYTES = json.dumps(GOOD).encode("utf-8")


def http_backend(serve, outcomes, **kwargs):
    sleeps = []
    server = serve(outcomes, GOOD)
    backend = server.client(HTTPBackend, sleep=sleeps.append, **kwargs)
    return backend, server, sleeps


def both_clients(serve, outcomes, tls=False, **kwargs):
    """The completion and the embedding client, each against a server replaying ``outcomes``.

    An int in ``outcomes`` is a response with that status and the client's
    valid body. Yields ``(send, expected, server, sleeps)``: ``send()``
    makes one request and returns ``expected`` when it succeeds. With
    ``tls`` the servers speak HTTPS (see ``LoopbackServer``); ``kwargs`` go
    to both clients.
    """
    for make, send, body, expected in (
        (HTTPBackend, lambda c: c.complete("p", DecodeParams.greedy()).text, GOOD, "water"),
        (RemoteEmbedder, lambda c: c.embed(["p"]).tolist(), {"vectors": [[1.0]]}, [[1.0]]),
    ):
        sleeps = []
        server = serve(outcomes, body, tls)
        client = server.client(make, sleep=sleeps.append, **kwargs)
        yield functools.partial(send, client), expected, server, sleeps


def raw_reply(head: bytes, body: bytes = GOOD_BYTES, **kwargs) -> Reply:
    """A verbatim reply: the status line and headers in ``head``, then a blank line and ``body``."""
    return Reply(raw=head + b"\r\n\r\n" + body, **kwargs)


def sized(head: bytes = b"HTTP/1.1 200 OK") -> Reply:
    """A verbatim reply of ``GOOD`` after ``head``, framed by its ``Content-Length``."""
    return raw_reply(head + b"\r\nContent-Length: %d" % len(GOOD_BYTES))


class TestHTTPBackend:
    def test_success_parses_response(self, serve):
        backend, server, _ = http_backend(serve, [200])
        gen = backend.complete("p", DecodeParams.greedy())
        assert gen.text == "water"
        assert server.calls[0]["json"]["prompt"] == "p"

    def test_bearer_token_header(self, serve):
        backend, server, _ = http_backend(serve, [200], token="secret")
        backend.complete("p", DecodeParams.greedy())
        assert server.calls[0]["headers"]["Authorization"] == "Bearer secret"

    def test_transient_errors_retry_with_backoff(self, serve):
        for send, expected, server, sleeps in both_clients(serve, [DROP, 500, 200]):
            assert send() == expected
            assert len(server.calls) == 3
            assert sleeps == [0.5, 1.0]

    def test_exhausted_retries_raise(self, serve):
        for send, _, _, sleeps in both_clients(serve, [503, 503, 503]):
            with pytest.raises(BackendError) as info:
                send()
            assert info.value.attempts == 3
            assert info.value.status == 503
            assert sleeps == [0.5, 1.0]

    def test_client_errors_fail_immediately(self, serve):
        # A redirect is not followed: it fails like a 4xx.
        for status in (401, 302):
            for send, _, server, sleeps in both_clients(
                serve, [Reply(status, headers={"Location": "/elsewhere"})]
            ):
                with pytest.raises(BackendError) as info:
                    send()
                assert info.value.attempts == 1
                assert info.value.status == status
                assert len(server.calls) == 1
                assert sleeps == []

    def test_any_2xx_body_is_decoded(self, serve):
        for send, expected, server, sleeps in both_clients(serve, [201]):
            assert send() == expected
            assert len(server.calls) == 1
            assert sleeps == []

    @pytest.mark.parametrize(
        "payload",
        [
            b"<html>",
            {"choices": [{"text": "water | DCM", "logprobs": {
                "tokens": ["water", "|"], "top_logprobs": [{"water": -0.1}]}}]},
            {"choices": [{"text": "water", "logprobs": {
                "tokens": ["water"], "top_logprobs": [{"water": 0.5}]}}]},
            b"[" * 100_000,
        ],
        ids=["not-json", "fewer-maps-than-tokens", "positive-logprob", "nested-too-deep"],
    )
    def test_malformed_body_is_a_backend_error(self, serve, payload):
        # None of these bodies decodes for either client.
        for send, _, server, sleeps in both_clients(serve, [Reply(200, payload)]):
            with pytest.raises(BackendError, match="unusable body") as info:
                send()
            assert info.value.status == 200
            assert info.value.attempts == 1
            assert len(server.calls) == 1
            assert sleeps == []


class TestTransport:
    def test_sequential_requests_reuse_one_connection(self, serve):
        backend, server, sleeps = http_backend(serve, [200] * 5)
        for i in range(5):
            assert backend.complete(f"p{i}", DecodeParams.greedy()).text == "water"
        assert [call["json"]["prompt"] for call in server.calls] == [f"p{i}" for i in range(5)]
        assert server.connections == 1
        assert sleeps == []

    def test_idle_connection_closed_by_the_server_costs_no_attempt(self, serve):
        backend, server, sleeps = http_backend(serve, [Reply(hang_up=True), 200])
        backend.complete("p", DecodeParams.greedy())
        server.wait_until_closed()
        assert backend.complete("q", DecodeParams.greedy()).text == "water"
        assert len(server.calls) == 2
        assert server.connections == 2
        assert sleeps == []

    def test_connection_close_reply_is_not_reused(self, serve):
        backend, server, sleeps = http_backend(
            serve, lambda call: Reply(headers={"Connection": "close"})
        )
        for prompt in ("p", "q", "r"):
            assert backend.complete(prompt, DecodeParams.greedy()).text == "water"
        assert len(server.calls) == 3
        assert server.connections == 3
        assert sleeps == []

    def test_open_connections_never_exceed_max_in_flight(self, serve):
        def slow(call):
            time.sleep(0.02)
            return 200

        backend, server, _ = http_backend(serve, slow, max_in_flight=4)
        requests = [(f"p{i}", DecodeParams.greedy()) for i in range(24)]
        generations = complete_many(backend, requests, parallelism=8)
        assert [g.text for g in generations] == ["water"] * 24
        assert len(server.calls) == 24
        assert server.peak_open == 4

    def test_the_in_flight_token_comes_back_on_every_exit_path(self, serve, monkeypatch):
        # With one token, a request that kept it would block every later one.
        backend, server, _ = http_backend(
            serve, lambda call: DROP if call["json"]["prompt"] == "dropped" else 200,
            max_in_flight=1)
        dropped = outcome_within(lambda: backend.complete("dropped", DecodeParams.greedy()))
        assert isinstance(dropped, BackendError) and dropped.attempts == 3

        def interrupted(reader):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(gateway, "_read_reply", interrupted)
            stopped = outcome_within(lambda: backend.complete("stopped", DecodeParams.greedy()))
        assert isinstance(stopped, KeyboardInterrupt)
        good = outcome_within(lambda: backend.complete("good", DecodeParams.greedy()))
        assert good.text == "water"
        # "stopped" reaches the server too, on its own thread, so it may come in any order.
        prompts = [call["json"]["prompt"] for call in server.calls]
        assert [p for p in prompts if p != "stopped"] == ["dropped"] * 3 + ["good"]

    def test_each_pooled_connection_builds_one_poller(self, serve, monkeypatch):
        backend, server, _ = http_backend(serve, [200] * 5)
        pollers = []
        poll = select.poll
        monkeypatch.setattr(select, "poll", lambda: pollers.append(poll()) or pollers[-1])
        for i in range(5):
            assert backend.complete(f"p{i}", DecodeParams.greedy()).text == "water"
        assert server.connections == 1
        assert len(pollers) == 1

    def test_body_is_the_golden_request_as_json_bytes(self, serve):
        backend, server, _ = http_backend(serve, [200])
        prompt = "Question: What does the mixture contain?\nAnswer:"
        params = DecodeParams.greedy(max_tokens=64, logprob_depth=5)
        backend.complete(prompt, params)
        golden = json.loads((FIXTURES / "golden_request.json").read_text())
        wire_order = {key: golden[key] for key in build_request(prompt, params)}
        assert server.calls[0]["body"] == json.dumps(wire_order, allow_nan=False).encode("utf-8")
        assert server.calls[0]["headers"]["Content-Type"] == "application/json"
        assert server.calls[0]["path"] == "/v1/endpoint"

    def test_dropped_connection_message(self, serve):
        for (send, _, _, _), label in zip(
            both_clients(serve, [DROP] * 3), ("completion", "embedding request")
        ):
            with pytest.raises(BackendError) as info:
                send()
            assert str(info.value) == (
                f"{label} failed after 3 attempts: "
                "RemoteDisconnected: Remote end closed connection without response"
            )

    def test_each_request_is_one_write(self, serve, monkeypatch):
        me = threading.current_thread()
        writes = []
        sendall = socket.socket.sendall

        def recording(sock, data, *args):
            if threading.current_thread() is me:
                writes.append(bytes(data))
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", recording)
        backend, server, _ = http_backend(serve, [200] * 3)
        for prompt in ("p", "q", "r"):
            backend.complete(prompt, DecodeParams.greedy())
        assert len(writes) == 3
        for write, call in zip(writes, server.calls):
            assert write.startswith(b"POST /v1/endpoint HTTP/1.1\r\n")
            assert write.endswith(b"\r\n\r\n" + call["body"])

    @pytest.mark.parametrize("trailer", [b"", b"X-Trailer: t\r\n"], ids=["plain", "trailer"])
    def test_chunked_body_decodes(self, serve, trailer):
        chunked = b"%x;ext=1\r\n%s\r\n%x\r\n%s\r\n0\r\n%s\r\n" % (
            5, GOOD_BYTES[:5], len(GOOD_BYTES) - 5, GOOD_BYTES[5:], trailer)
        reply = Reply(raw=b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked)
        backend, server, sleeps = http_backend(serve, [reply, reply], timeout=5)
        started = time.monotonic()
        for prompt in ("p", "q"):
            assert backend.complete(prompt, DecodeParams.greedy()).text == "water"
        assert time.monotonic() - started < 1
        assert server.connections == 1
        assert sleeps == []

    @pytest.mark.parametrize(
        "reply, connections",
        [
            (sized(b"HTTP/1.0 200 OK"), 2),
            (raw_reply(b"HTTP/1.1 200 OK", hang_up=True), 2),
            (sized(b"HTTP/1.0 200 OK\r\nConnection: keep-alive"), 1),
        ],
        ids=["http-1.0", "ends-at-eof", "http-1.0-keep-alive"],
    )
    def test_reply_framing_decides_reuse(self, serve, reply, connections):
        backend, server, sleeps = http_backend(serve, [reply, reply])
        for prompt in ("p", "q"):
            assert backend.complete(prompt, DecodeParams.greedy()).text == "water"
        assert server.connections == connections
        assert sleeps == []

    @pytest.mark.parametrize("status, error", [(204, "unusable body"), (304, "rejected")])
    def test_bodiless_status_does_not_wait(self, serve, status, error):
        reply = Reply(raw=b"HTTP/1.1 %d Nothing\r\n\r\n" % status)
        backend, server, sleeps = http_backend(serve, [reply, 200], timeout=5)
        started = time.monotonic()
        with pytest.raises(BackendError, match=error):
            backend.complete("p", DecodeParams.greedy())
        assert time.monotonic() - started < 1
        assert backend.complete("q", DecodeParams.greedy()).text == "water"
        assert server.connections == 1
        assert sleeps == []

    def test_interim_continue_is_skipped(self, serve):
        reply = Reply(raw=b"HTTP/1.1 100 Continue\r\n\r\n" + sized().raw)
        backend, server, sleeps = http_backend(serve, [reply])
        assert backend.complete("p", DecodeParams.greedy()).text == "water"
        assert len(server.calls) == 1
        assert sleeps == []

    @pytest.mark.parametrize(
        "reply, error",
        [
            (Reply(raw=b"garbage\r\n\r\n"), "bad status line"),
            (raw_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 100", b"{}", hang_up=True),
             "does not match its length"),
            (raw_reply(b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536 + b"\r\nContent-Length: 2",
                       b"{}"), "header line longer than 65536 bytes"),
            (raw_reply(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked", b"2\r\n{}}\r\n0\r\n\r\n"),
             "chunk data not followed by CRLF"),
        ],
        ids=["garbage-status-line", "short-body", "long-header", "chunk-overrun"],
    )
    def test_misframed_reply_is_retried_then_fails(self, serve, reply, error):
        for send, _, server, sleeps in both_clients(serve, [reply] * 3, timeout=5):
            started = time.monotonic()
            with pytest.raises(BackendError, match=f"ProtocolError: .*{error}") as info:
                send()
            assert time.monotonic() - started < 2
            assert info.value.attempts == 3
            assert len(server.calls) == 3
            assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize(
        "reply, error",
        [
            (raw_reply(b"HTTP/1.1 200 OK\r\nContent-Length: +%d" % len(GOOD_BYTES)),
             "length b'\\+%d' is not a number" % len(GOOD_BYTES)),
            (raw_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 1_0", b'{"a": 123}'),
             "length b'1_0' is not a number"),
            (raw_reply(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked",
                       b"+%x\r\n%s\r\n0\r\n\r\n" % (len(GOOD_BYTES), GOOD_BYTES)),
             "is not a number"),
            (raw_reply(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked",
                       b" %x\r\n%s\r\n0\r\n\r\n" % (len(GOOD_BYTES), GOOD_BYTES)),
             "is not a number"),
            (raw_reply(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\nContent-Length: 2"
                       % len(GOOD_BYTES)), "Content-Length fields that differ"),
            (raw_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 1000000000000000", b""),
             "longer than 16777216 bytes"),
            (raw_reply(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked", b"1000001\r\n"),
             "longer than 16777216 bytes"),
        ],
        ids=["length-signed", "length-underscored", "chunk-size-signed", "chunk-size-spaced",
             "lengths-differ", "length-over-the-bound", "chunk-over-the-bound"],
    )
    def test_a_bad_body_length_is_a_protocol_error(self, serve, reply, error):
        for send, _, server, sleeps in both_clients(serve, [reply] * 3, timeout=5):
            started = time.monotonic()
            with pytest.raises(BackendError, match=f"ProtocolError: .*{error}") as info:
                send()
            assert time.monotonic() - started < 2
            assert info.value.attempts == 3
            assert sleeps == [0.5, 1.0]

    def test_chunks_over_the_bound_together_are_a_protocol_error(self, serve, monkeypatch):
        monkeypatch.setattr(gateway, "_MAX_BODY", len(GOOD_BYTES) - 1)
        reply = raw_reply(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked",
                          b"5\r\n%s\r\n%x\r\n%s\r\n0\r\n\r\n"
                          % (GOOD_BYTES[:5], len(GOOD_BYTES) - 5, GOOD_BYTES[5:]))
        backend, _, sleeps = http_backend(serve, [reply] * 3, timeout=5)
        with pytest.raises(BackendError, match="ProtocolError: reply body longer than"):
            backend.complete("p", DecodeParams.greedy())
        assert sleeps == [0.5, 1.0]

    def test_a_body_to_the_connections_end_is_read_up_to_the_bound(self, serve, monkeypatch):
        monkeypatch.setattr(gateway, "_MAX_BODY", len(GOOD_BYTES))
        fits = raw_reply(b"HTTP/1.1 200 OK", hang_up=True)
        over = raw_reply(b"HTTP/1.1 200 OK", GOOD_BYTES + b" ", hang_up=True)
        backend, _, sleeps = http_backend(serve, [fits] + [over] * 3, timeout=5)
        assert backend.complete("p", DecodeParams.greedy()).text == "water"
        with pytest.raises(BackendError, match="ProtocolError: reply body longer than"):
            backend.complete("q", DecodeParams.greedy())
        assert sleeps == [0.5, 1.0]

    def test_a_batch_of_32_embeddings_of_1024_fits_the_bound(self, serve):
        vectors = np.random.default_rng(0).random((32, 1024)).tolist()
        server = serve([Reply(payload={"vectors": vectors})])
        embedder = server.client(RemoteEmbedder, sleep=lambda s: None)
        assert embedder.embed(["p"] * 32).tolist() == vectors

    def test_timeout_bounds_each_read_not_the_whole_reply(self, serve):
        # Four writes 0.1 s apart: each read waits under the timeout, the reply over it.
        reply = Reply(raw=sized().raw, pause=0.1)
        backend, server, sleeps = http_backend(serve, [reply], timeout=0.25)
        started = time.monotonic()
        assert backend.complete("p", DecodeParams.greedy()).text == "water"
        assert 0.25 < time.monotonic() - started < 1
        assert len(server.calls) == 1
        assert sleeps == []

    def test_runs_without_the_requests_package(self, serve, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)
        backend, _, _ = http_backend(serve, [200])
        assert backend.complete("p", DecodeParams.greedy()).text == "water"

    @pytest.mark.parametrize(
        "endpoint", ["localhost:9/v1/completions", "ftp://127.0.0.1/v1", "http:///v1", ""]
    )
    def test_malformed_endpoint_is_rejected_at_construction(self, endpoint):
        for make in (HTTPBackend, RemoteEmbedder):
            with pytest.raises(ValueError, match="not an http"):
                make(endpoint)


    @pytest.mark.parametrize(
        "endpoint, token",
        [("http://127.0.0.1:9/v1 x", None), ("http://127.0.0.1:9/v1", "t\r\nX-Injected: 1")],
        ids=["space-in-path", "line-break-in-token"],
    )
    def test_request_head_breakers_are_rejected_at_construction(self, endpoint, token):
        for make in (HTTPBackend, RemoteEmbedder):
            with pytest.raises(ValueError, match="space or control character"):
                make(endpoint, token=token)

    @pytest.mark.parametrize(
        "make, label, kwargs",
        [(HTTPBackend, "completion", {"max_in_flight": 0}),
         (HTTPBackend, "completion", {"timeout": 0}),
         (HTTPBackend, "completion", {"timeout": -1}),
         (RemoteEmbedder, "embedding request", {"timeout": 0}),
         (RemoteEmbedder, "embedding request", {"timeout": -1})],
        ids=["completion-no-connections", "completion-zero-timeout",
             "completion-negative-timeout", "embedding-zero-timeout",
             "embedding-negative-timeout"],
    )
    def test_unusable_settings_are_rejected_at_construction(self, make, label, kwargs):
        # A zero cap would block the first request forever; a timeout that
        # is not positive fails at request time, or makes the socket
        # non-blocking.
        with pytest.raises(ValueError, match=f"^{label} needs max_in_flight >= 1"):
            make("http://127.0.0.1:9/v1", **kwargs)


class TestTLS:
    def test_untrusted_certificate_fails_at_once(self, serve, monkeypatch):
        for var in ("SSL_CERT_FILE", "SSL_CERT_DIR"):
            monkeypatch.delenv(var, raising=False)
        for send, _, server, sleeps in both_clients(serve, [200], tls=True):
            with pytest.raises(BackendError, match="SSLCertVerificationError") as info:
                send()
            assert info.value.attempts == 1
            assert sleeps == []
            assert server.calls == []

    def test_ssl_cert_file_trusts_another_ca(self, serve, monkeypatch):
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
        server = serve([200], GOOD, tls=True)
        backend = server.client(HTTPBackend)
        assert server.url.startswith("https://")
        assert backend.complete("p", DecodeParams.greedy()).text == "water"
        assert server.calls[0]["json"]["prompt"] == "p"


class TestCompleteMany:
    def test_preserves_prompt_order(self):
        backend = MockBackend(
            [
                ScriptedEntry(answer=f"answer {i}", contains=(f"prompt {i} ",))
                for i in range(20)
            ]
        )
        batch = [(f"prompt {i} end", DecodeParams.greedy()) for i in range(20)]
        generations = complete_many(backend, batch, parallelism=6)
        assert [g.text for g in generations] == [f"answer {i}" for i in range(20)]

    def test_each_request_carries_its_own_params(self):
        seen = []

        class Recording:
            def complete(self, prompt, params):
                seen.append((prompt, params.seed))
                return Generation(text=prompt)

        batch = [("p", DecodeParams.nucleus(seed=s)) for s in range(5)]
        generations = complete_many(Recording(), batch, parallelism=1)
        assert seen == [("p", s) for s in range(5)]
        assert [g.text for g in generations] == ["p"] * 5

    def test_empty_batch(self):
        assert complete_many(MockBackend([]), []) == []

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_every_request_is_sent_duplicates_included(self, parallelism):
        # Merging requests is the resolver's plan; the gateway sends what it is given.
        backend = MockBackend(
            [ScriptedEntry(answer=f"answer {i}", contains=(f"prompt {i} ",)) for i in range(3)],
            default_answer="x",
        )
        order = [0, 1, 0, 2, 1, 0]
        batch = [(f"prompt {i} end", DecodeParams.greedy()) for i in order]
        batch += [("p", DecodeParams.nucleus(seed=3))] * 2 + [("p", DecodeParams.nucleus())] * 2
        expected = [f"answer {i}" for i in order] + ["x"] * 4
        generations = complete_many(backend, batch, parallelism=parallelism)
        assert [g.text for g in generations] == expected
        assert backend.request_count == len(batch)
        with RequestPool(backend, parallelism) as pool:
            assert [g.text for g in pool.submit(batch)()] == expected
        assert backend.request_count == 2 * len(batch)

    def test_serial_path_matches_parallel(self):
        backend = MockBackend([], default_answer="x")
        batch = [("a", DecodeParams.greedy()), ("b", DecodeParams.greedy())]
        serial = complete_many(backend, batch, parallelism=1)
        parallel = complete_many(backend, batch, parallelism=4)
        assert [g.text for g in serial] == [g.text for g in parallel]


def outcome_within(step, timeout=5.0):
    """What ``step()`` returns or raises, run on a thread; fails the test if it hangs."""
    outcome = []

    def run():
        try:
            outcome.append(step())
        except BaseException as exc:  # noqa: B036 - the outcome under test
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"the wait step still blocks after {timeout} s"
    return outcome[0]


class TestRequestPool:
    def test_batches_come_back_by_position(self):
        backend = MockBackend(
            [ScriptedEntry(answer=f"answer {i}", contains=(f"prompt {i} ",)) for i in range(3)]
        )
        greedy = DecodeParams.greedy()
        with RequestPool(backend, 2) as pool:
            first = pool.submit([(f"prompt {i} end", greedy) for i in [0, 1, 0]])
            second = pool.submit([(f"prompt {i} end", greedy) for i in [2, 2]])
            assert [g.text for g in second()] == ["answer 2"] * 2
            assert [g.text for g in first()] == ["answer 0", "answer 1", "answer 0"]
        assert backend.request_count == 5

    def test_a_batch_stops_at_its_first_failure(self):
        calls = []

        class Failing:
            def complete(self, prompt, params):
                calls.append(prompt)
                if prompt.startswith("bad"):
                    raise BackendError(f"{prompt} failed")
                return Generation(text=prompt)

        greedy = DecodeParams.greedy()
        with RequestPool(Failing(), 1) as pool:
            failing = pool.submit([(p, greedy) for p in ["bad 1", "bad 2", "unsent"]])
            after = pool.submit([("next", greedy)])
            with pytest.raises(BackendError, match="bad 1 failed"):
                failing()
            assert [g.text for g in after()] == ["next"]
        assert calls == ["bad 1", "next"]


    def test_the_waiting_thread_blocks_once_per_batch(self):
        class OneMillisecond:
            def complete(self, prompt, params):
                time.sleep(0.001)
                return Generation(text=prompt)

        caller = threading.get_ident()
        waits = []
        allocate = threading.Lock

        class CountedLock:
            """A lock that records each time the calling thread finds it held and waits."""

            def __init__(self):
                self._lock = allocate()

            def acquire(self, blocking=True, timeout=-1):
                if self._lock.acquire(False):
                    return True
                if blocking and threading.get_ident() == caller:
                    waits.append(timeout)
                return self._lock.acquire(blocking, timeout)

            def release(self):
                self._lock.release()

            __enter__ = acquire

            def __exit__(self, *exc_info):
                self.release()

        batch = [(f"p{i}", DecodeParams.greedy()) for i in range(32)]
        with RequestPool(OneMillisecond(), 4) as pool:
            pool.submit(batch[:4])()  # every worker is started before the count
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(threading, "Lock", CountedLock)
                generations = pool.submit(batch)()
        assert [g.text for g in generations] == [f"p{i}" for i in range(32)]
        # Zero only if all 32 replies came before the wait began; a wait per
        # request would sleep and wake about once per reply.
        assert len(waits) <= 1

    def test_a_failure_does_not_wait_for_the_requests_in_flight(self):
        held_started, released = threading.Event(), threading.Event()
        outcomes = []

        class HoldsOne:
            def complete(self, prompt, params):
                if prompt == "held":
                    held_started.set()
                    outcomes.append("released" if released.wait(5) else "timed out")
                    return Generation(text=prompt)
                held_started.wait(5)
                raise BackendError(f"{prompt} failed")

        greedy = DecodeParams.greedy()
        with RequestPool(HoldsOne(), 2) as pool:
            finished = pool.submit([("bad", greedy), ("held", greedy)])
            with pytest.raises(BackendError, match="bad failed"):
                finished()
            released.set()
        assert outcomes == ["released"]

    def test_the_first_failure_in_queue_order_is_raised(self):
        second_failed = threading.Event()

        class LaterFailsFirst:
            def complete(self, prompt, params):
                if prompt == "second":
                    second_failed.set()
                else:
                    second_failed.wait(5)
                raise BackendError(f"{prompt} failed")

        greedy = DecodeParams.greedy()
        with RequestPool(LaterFailsFirst(), 2) as pool:
            finished = pool.submit([("first", greedy), ("second", greedy)])
            with pytest.raises(BackendError, match="first failed"):
                finished()
        assert second_failed.is_set()

    def test_a_request_left_unsent_is_not_the_failure_raised(self):
        # A worker can take a request and be descheduled before it looks at
        # the batch's failure flag; by then a request queued after it may
        # have failed. The request it leaves unsent must not be raised.
        class Fails:
            def complete(self, prompt, params):
                raise BackendError(f"{prompt} failed")

        greedy = DecodeParams.greedy()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with RequestPool(Fails(), 4) as pool:
                for _ in range(300):
                    with pytest.raises(BackendError, match=r"^r\d failed$"):
                        pool.submit([(f"r{i}", greedy) for i in range(8)])()
        finally:
            sys.setswitchinterval(interval)

    def test_leaving_on_an_exception_sends_no_unstarted_request(self, monkeypatch):
        both_sent, joining = threading.Event(), threading.Event()
        sent = []
        join = threading.Thread.join

        def joined(thread, timeout=None):
            joining.set()  # the pool is leaving: what has not started stays unsent
            join(thread, timeout)

        class HoldsUntilJoined:
            def complete(self, prompt, params):
                sent.append(prompt)
                if len(sent) == 2:
                    both_sent.set()
                joining.wait(5)
                return Generation(text=prompt)

        monkeypatch.setattr(threading.Thread, "join", joined)
        greedy = DecodeParams.greedy()
        threads = threading.active_count()
        with pytest.raises(KeyError, match="leaving"):
            with RequestPool(HoldsUntilJoined(), 2) as pool:
                first = pool.submit([(f"a{i}", greedy) for i in range(5)])
                second = pool.submit([("b", greedy)])
                assert both_sent.wait(5)
                raise KeyError("leaving")
        assert sorted(sent) == ["a0", "a1"]
        assert threading.active_count() == threads
        # The batches whose requests were cancelled fail with the exception
        # that left the block; their wait steps do not hang.
        assert [repr(outcome_within(step)) for step in (first, second)] == [
            "KeyError('leaving')"] * 2

    def test_an_interrupt_in_a_request_fails_only_its_batch(self):
        class Interrupts:
            def complete(self, prompt, params):
                if prompt == "stop":
                    raise KeyboardInterrupt
                return Generation(text=prompt)

        greedy = DecodeParams.greedy()
        threads = threading.active_count()
        with RequestPool(Interrupts(), 2) as pool:
            interrupted = pool.submit([("a", greedy), ("stop", greedy), ("b", greedy)])
            assert isinstance(outcome_within(interrupted), KeyboardInterrupt)
            later = pool.submit([("c", greedy), ("d", greedy), ("e", greedy)])
            assert [g.text for g in outcome_within(later)] == ["c", "d", "e"]
        assert threading.active_count() == threads

    def test_a_small_batch_starts_no_more_threads_than_requests(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        batch = [("a", DecodeParams.greedy()), ("b", DecodeParams.greedy())]
        generations = complete_many(MockBackend([], default_answer="x"), batch, parallelism=8)
        assert [g.text for g in generations] == ["x", "x"]
        assert 1 <= len(started) <= 2
        assert not any(thread.is_alive() for thread in started)
