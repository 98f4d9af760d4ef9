"""Module boundaries the package's design rests on."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mice"
NETWORK_MODULES = {"requests", "urllib", "http", "socket", "ssl"}


def imported_top_levels(path):
    """Top-level names of every module imported anywhere in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_the_gateway_does_network_io():
    network = {
        path.name: sorted(NETWORK_MODULES.intersection(imported_top_levels(path)))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert network.pop("gateway.py") == ["socket", "ssl", "urllib"]
    assert {name: mods for name, mods in network.items() if mods} == {}
    # The gateway speaks HTTP/1.1 on its own sockets; http.client would be a second path.
    assert [path.name for path in PACKAGE.rglob("*.py")
            if "http" in imported_top_levels(path)] == []


def _mentioned_name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.alias):
        return node.name.split(".")[-1]
    return None


def name_uses(path, names, calls_only=False):
    """(enclosing function, name) for each mention of one of ``names``.

    With ``calls_only``, only mentions that are called count.
    """
    uses = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if calls_only:
            name = _mentioned_name(node.func) if isinstance(node, ast.Call) else None
        else:
            name = _mentioned_name(node)
        if name in names:
            uses.add((scope, name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return uses


def uses_by_module(names, calls_only=False):
    found = {
        path.name: name_uses(path, names, calls_only) for path in sorted(PACKAGE.glob("*.py"))
    }
    return {name: uses for name, uses in found.items() if uses}


def test_one_seeded_shuffle():
    # k-shot sampling, seeded-random selection and mixed ordering all draw
    # from corpus.seeded_prefix; the mock backend seeds its nucleus draws.
    assert uses_by_module({"PCG64", "SeedSequence", "default_rng"}) == {
        "corpus.py": {("seeded_prefix", "PCG64"), ("seeded_prefix", "SeedSequence")},
        "gateway.py": {("_sampled_answer", "PCG64")},
    }


def test_one_canonical_form_per_surface():
    # A surface is canonicalised where a generation's answer is extracted and
    # where a surface is scored; eval's reader hands the scorer the raw ones.
    assert uses_by_module({"canonicalize"}, calls_only=True) == {
        "combine.py": {("extract_prediction", "canonicalize")},
        "metrics.py": {("_canonical_set", "canonicalize")},
    }


def test_leaf_types_are_checked_where_records_are_decoded():
    # The codec's leaf decoders are the one type check of a value read from a
    # file. Elsewhere isinstance sorts exceptions and results, and three leaf
    # checks stay for what they report: the example key of a prediction, the
    # value of a span offset, and a generation's text from the wire.
    assert uses_by_module({"isinstance"}, calls_only=True) == {
        "cli.py": {("_decode_predictions", "isinstance")},
        "corpus.py": {("read_json", "isinstance"), ("checked", "isinstance"),
                      ("_codec", "isinstance"), ("from_offsets", "isinstance")},
        "distill.py": {("generate_pseudo_labels", "isinstance")},
        "gateway.py": {("__post_init__", "isinstance")},
        "pipeline.py": {("resolve_split", "isinstance"), ("iter_results", "isinstance")},
    }


def test_one_demo_order():
    # Both prompt builders order their demos in prompts._order, the one place
    # a mixed order is drawn; seeded_prefix is otherwise called only to sample
    # the k shots and to select prompts at random.
    assert uses_by_module({"seeded_prefix"}, calls_only=True) == {
        "corpus.py": {("sample_kshot", "seeded_prefix")},
        "prompts.py": {("_select_universe_indices", "seeded_prefix"),
                       ("_order", "seeded_prefix")},
    }
    assert uses_by_module({"_order"}, calls_only=True) == {
        "prompts.py": {("enumerate_prompts", "_order"), ("select_kate_prompt", "_order")},
    }


def test_one_pooling_step_builds_candidates():
    # Every combine rule scores its candidates in combine._pool; only the
    # postfilter's substring merge builds new ones from them.
    assert uses_by_module({"CandidateAntecedent"}, calls_only=True) == {
        "combine.py": {("_pool", "CandidateAntecedent")},
        "postfilter.py": {("_merge_substrings", "CandidateAntecedent")},
    }


def test_one_thread_pool():
    # Backend calls fan out only through gateway.RequestPool, which starts
    # at most the run's parallelism in worker threads and so caps the calls
    # in flight; nothing else in the package starts a thread or an executor.
    assert uses_by_module(
        {"Thread", "Timer", "start_new_thread", "ThreadPoolExecutor", "ProcessPoolExecutor"},
        calls_only=True,
    ) == {
        "gateway.py": {("submit", "Thread")},
    }


def test_only_the_pool_calls_a_backend():
    # Every backend call, complete_many's at any parallelism too, is made on a
    # RequestPool worker, so the failure and cancel contract (results by
    # position, the first failure in queue order, unstarted requests not
    # sent) lives in one place.
    assert uses_by_module({"complete"}, calls_only=True) == {
        "gateway.py": {("_work", "complete")},
    }


def test_one_request_plan():
    # The resolver plans each example's requests, kate-plus's seeded draws
    # too, and sends them through the pool of its one streamed loop,
    # iter_results, which resolve_split and mice distill share, or, for one
    # example, complete_many; combine_kate_plus is the library form of the
    # same plan.
    assert uses_by_module(
        {"RequestPool", "complete_many", "combine_kate_plus"}, calls_only=True
    ) == {
        "combine.py": {("combine_kate_plus", "complete_many")},
        "gateway.py": {("complete_many", "RequestPool")},
        "pipeline.py": {("iter_results", "RequestPool"), ("resolve_one", "complete_many")},
    }


def test_one_reader():
    # Every JSON file mice reads goes through corpus.read_json, which names
    # the file and line of a malformed one; the transport decodes the wire.
    assert uses_by_module({"load", "loads"}, calls_only=True) == {
        "corpus.py": {("read_json", "loads")},
        "gateway.py": {("post", "loads")},
    }


def test_only_the_codec_memoizes():
    # corpus caches one compiled (encode, decode) pair per type for its
    # codec; a table cached anywhere else would live as long as the process,
    # not the run.
    assert uses_by_module({"lru_cache", "cache"}) == {
        "corpus.py": {("<module>", "lru_cache"), ("_codec", "lru_cache")},
    }


def test_only_the_codec_reads_type_hints():
    # The codec reads annotations once per type, when it compiles; nothing
    # else inspects types, so no value pays for it at run time.
    assert uses_by_module({"get_type_hints", "get_origin", "get_args"}, calls_only=True) == {
        "corpus.py": {("_codec", "get_type_hints"), ("_codec", "get_origin"),
                      ("_codec", "get_args")},
    }


def test_only_the_codec_reads_a_dataclasses_fields():
    # The codec decodes every dataclass from one list of its init fields, so
    # a record's field set, and the refusal of a key it does not declare,
    # is written once.
    assert uses_by_module({"fields"}, calls_only=True) == {
        "corpus.py": {("_codec", "fields")},
    }


def test_no_python_level_thread_synchronization():
    # A semaphore, condition, event or barrier runs Python code (its
    # Condition's wait and notify) to acquire and release, on the pool's
    # workers for every request. The transport caps requests in flight with
    # a queue.SimpleQueue of tokens, and a batch waits on a plain lock.
    assert uses_by_module(
        {"Semaphore", "BoundedSemaphore", "Condition", "Event", "Barrier"}, calls_only=True
    ) == {}


def test_one_resolver_front_end():
    # mice resolve and mice distill take their resolver flags from one parent
    # parser and get their Resolvers, on one backend and embedder, from
    # cli._resolvers alone.
    assert name_uses(PACKAGE / "cli.py", {"Resolver"}, calls_only=True) == {
        ("_resolvers", "Resolver"),
    }


def caught(names):
    """(module, enclosing function, name) for each of ``names`` an ``except`` clause names."""
    found = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            found.update((module, scope, name.id) for name in ast.walk(node.type)
                         if isinstance(name, ast.Name) and name.id in names)
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "<module>")
    return found


def test_one_definition_of_a_malformed_value():
    # Every decoder catches corpus.DECODE_ERRORS, so no two can disagree on
    # what a malformed value raises. _checkout's IndexError is the pop of an
    # empty connection pool, not a decode.
    malformed = {"KeyError", "TypeError", "IndexError", "AttributeError", "OverflowError",
                 "RecursionError"}
    assert caught({"DECODE_ERRORS", *malformed}) == {
        ("corpus.py", "read_json", "DECODE_ERRORS"),
        ("detector.py", "load_rules", "DECODE_ERRORS"),
        ("gateway.py", "parse_response", "DECODE_ERRORS"),
        ("gateway.py", "post", "DECODE_ERRORS"),
        ("prompts.py", "__post_init__", "DECODE_ERRORS"),
        ("gateway.py", "_checkout", "IndexError"),
    }
