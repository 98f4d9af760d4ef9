"""Data model and ingestion for anaphora-annotated protocol corpora.

A corpus is a JSONL file with one object per anaphor example:

    {"doc_id": "...", "text": "...",
     "anaphor": {"start": int, "end": int},
     "antecedents": [{"start": int, "end": int}, ...]}

Offsets are 0-based character offsets counting Unicode scalar values,
``start`` inclusive and ``end`` exclusive. ``antecedents`` may be absent
for unlabeled data.
"""
from __future__ import annotations

import json
import re
import types
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from functools import lru_cache, partial
from pathlib import Path
from typing import (
    Any, Collection, Iterator, Optional, Union, get_args, get_origin, get_type_hints,
)

import numpy as np

# What decoding a malformed JSON value raises; every decoder turns these into its own error.
DECODE_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError, OverflowError,
                 RecursionError)


class CorpusError(ValueError):
    """An input file mice reads, or a record in it, violates its data contract."""


def read_json(path: str | Path, what: str, decode: Callable[[Any], Any],
              lines: bool = False) -> Any:
    """``decode`` applied to the JSON document at ``path``.

    With ``lines``, the file is JSONL: each non-blank line is decoded in
    turn and the list of values returned. Any failure to read, parse or
    decode raises ``CorpusError("<what> <path>[ line <n>]: <detail>")``,
    where a ``KeyError``'s detail reads ``missing field '<name>'``. Each JSONL
    line is decoded from UTF-8 on its own, so a byte that is not UTF-8 names its line.
    """
    line_no = 0
    try:
        with open(path, "rb") as fh:
            if not lines:
                return decode(json.loads(fh.read().decode("utf-8")))
            values = []
            for line_no, line in enumerate(fh, start=1):
                if (text := line.decode("utf-8")).strip():
                    values.append(decode(json.loads(text)))
            return values
    except (OSError, *DECODE_ERRORS) as exc:
        where = f" line {line_no}" if line_no else ""
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise CorpusError(f"{what} {path}{where}: {detail}") from exc


def to_json(obj: Any, omit: Collection[str] = ()) -> Any:
    """JSON-ready form of a value built from dataclasses.

    A dataclass becomes a dict of its init fields (minus ``omit``, top
    level only), an enum its value, a tuple or list a list, and a mapping
    a dict with string keys. A dataclass object met more than once in one
    call is encoded once and its dict reused. Serialize with
    ``sort_keys=True`` for stable bytes.
    """
    encode = _codec(type(obj))[0]
    return encode(obj, {}, omit) if omit else encode(obj, {})


def from_json(tp: Any, value: Any) -> Any:
    """Inverse of ``to_json`` for a value annotated with type ``tp``.

    Every init field of a dataclass must be present, and a key it does not
    declare raises ``ValueError``; mapping keys are converted back to the
    annotated key type. A ``str``, ``int``, ``float`` or ``bool`` leaf must
    hold that JSON type (a ``bool`` is not an ``int``; a ``float`` takes any
    number), and ``None`` fits only an ``Optional``; anything else raises
    ``TypeError``.
    """
    return _codec(tp)[1](value)


def _same(value: Any, memo: Optional[dict] = None) -> Any:
    return value


def _only(kind: type, decode: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """``decode`` for a JSON array (``kind`` list) or object (dict) alone."""
    def checked(value: Any) -> Any:
        if isinstance(value, kind):
            return decode(value)
        name = "array" if kind is list else "object"
        raise TypeError(f"expected a JSON {name}, not {value!r:.80}")
    return checked


# Each leaf type's JSON name and the exact types of its decoded values.
_LEAVES = {str: ("a string", (str,)), int: ("an integer", (int,)),
           float: ("a number", (int, float)), bool: ("a boolean", (bool,))}


def _leaf(tp: type) -> Callable[[Any], Any]:
    """The decoder of a JSON value of leaf type ``tp``, which it checks and returns as is."""
    name, kinds = _LEAVES[tp]

    def checked(value: Any) -> Any:
        if type(value) in kinds:
            return value
        raise TypeError(f"expected {name}, not {value!r:.80}")
    return checked


@lru_cache(maxsize=None)
def _codec(tp: Any) -> tuple[Callable[..., Any], Callable[[Any], Any]]:
    """``(encode, decode)`` for values annotated ``tp``, compiled once from its
    type hints, so no value's type is inspected at run time.

    ``encode(value, memo)`` returns the dict that ``memo`` (``id`` to dict,
    one per ``to_json`` call) holds for a dataclass object already encoded.
    Only an unparameterized container encodes its items by runtime type.
    """
    origin, args = get_origin(tp) or tp, get_args(tp)
    if origin in (Union, types.UnionType):
        ((enc, dec),) = (_codec(a) for a in args if a is not type(None))
        return (enc if enc is _same else lambda v, memo: v if v is None else enc(v, memo),
                lambda v: v if v is None else dec(v))
    if origin in (tuple, list):
        enc, dec = _codec(args[0] if args else Any)
        return ((lambda v, memo: list(v)) if enc is _same else
                (lambda v, memo: [enc(x, memo) for x in v]),
                _only(list, origin if dec is _same else lambda v: origin(map(dec, v))))
    if origin in (dict, Mapping):
        key, value = args or (str, Any)
        enc, dec = _codec(value)
        return ((lambda m, memo: dict(m)) if key is str and enc is _same else
                (lambda m, memo: {str(k): v for k, v in m.items()}) if enc is _same else
                (lambda m, memo: {str(k): enc(v, memo) for k, v in m.items()}),
                _only(dict, lambda m: {key(k): dec(v) for k, v in m.items()}))
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        named = [(f.name, *_codec(hints[f.name])) for f in fields(tp) if f.init]
        declared = {name for name, _, _ in named}
        what = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", tp.__name__.lstrip("_")).lower()

        def encode(obj: Any, memo: dict, omit: Collection[str] = ()) -> dict:
            done = memo.get(id(obj))
            if done is None:
                done = memo[id(obj)] = {name: enc(getattr(obj, name), memo)
                                        for name, enc, _ in named if name not in omit}
            return done

        def decode(v: dict) -> Any:
            if unknown := v.keys() - declared:
                raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
            return tp(**{name: dec(v[name]) for name, _, dec in named})
        return encode, _only(dict, decode)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return (lambda v, memo: v.value), tp
    if tp is Any:  # an item of an unparameterized container
        return (lambda v, memo: _codec(type(v))[0](v, memo)), _same
    return _same, _leaf(tp)


@dataclass(frozen=True)
class Span:
    """A character span with its cached surface string."""

    start: int
    end: int
    surface: str

    @classmethod
    def from_offsets(cls, text: str, start: int, end: int) -> "Span":
        for offset in (start, end):
            if isinstance(offset, bool) or not isinstance(offset, int):
                raise CorpusError(f"span offset {offset!r} is not an integer")
        if not (0 <= start < end <= len(text)):
            raise CorpusError(f"invalid span [{start}, {end}) for text of length {len(text)}")
        return cls(start=start, end=end, surface=text[start:end])

    def offsets(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass(frozen=True)
class Example:
    """One document with a query anaphor and, if labeled, its gold antecedents."""

    doc_id: str
    text: str
    anaphor: Span
    gold_antecedents: Optional[tuple[Span, ...]] = None

    @property
    def key(self) -> str:
        """Unique identifier within a dataset: doc id plus anaphor offsets."""
        return f"{self.doc_id}:{self.anaphor.start}:{self.anaphor.end}"

    @property
    def is_labeled(self) -> bool:
        return self.gold_antecedents is not None

    def gold_surfaces(self) -> list[str]:
        """Antecedent surfaces in document order."""
        if self.gold_antecedents is None:
            raise CorpusError(f"example {self.key} is unlabeled")
        return [s.surface for s in sorted(self.gold_antecedents, key=lambda s: s.start)]

    def validate(self) -> None:
        """Antecedents precede the anaphor and none repeats; ``Span.from_offsets``
        has checked each span's bounds and sliced its surface from ``text``."""
        seen: set[tuple[int, int]] = set()
        for a in self.gold_antecedents or ():
            if a.end > self.anaphor.start:
                raise CorpusError("antecedent follows anaphor")
            if a.offsets() in seen:
                raise CorpusError(f"duplicate antecedent: [{a.start}, {a.end})")
            seen.add(a.offsets())


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of examples from one split."""

    examples: tuple[Example, ...]
    split_name: str = ""

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for ex in self.examples:
            if ex.key in seen:
                raise CorpusError(f"duplicate anaphor key {ex.key}")
            seen.add(ex.key)

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self) -> Iterator[Example]:
        return iter(self.examples)

    def __getitem__(self, i: int) -> Example:
        return self.examples[i]


@dataclass(frozen=True)
class KShotSample:
    """A seeded draw of k training examples, without replacement."""

    seed: int
    examples: tuple[Example, ...]

    @property
    def k(self) -> int:
        return len(self.examples)

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self) -> Iterator[Example]:
        return iter(self.examples)


# The leaves of a corpus record that are read by hand.
_text, _spans = _codec(str)[1], _codec(Optional[list])[1]


def _example_from_record(keys: set[str], record: dict) -> Example:
    text, antecedents = _text(record["text"]), _spans(record.get("antecedents"))

    def span(offsets: dict) -> Span:
        s = Span.from_offsets(text, offsets["start"], offsets["end"])
        if not s.surface.strip():
            raise CorpusError(f"span [{s.start}, {s.end}) holds only whitespace")
        return s

    example = Example(_text(record["doc_id"]), text, span(record["anaphor"]),
                      None if antecedents is None else tuple(map(span, antecedents)))
    example.validate()
    if (key := example.key) in keys:
        raise CorpusError(f"duplicate anaphor key {key}")
    keys.add(key)
    return example


def load_corpus(path: str | Path, split_name: Optional[str] = None) -> Dataset:
    """Load and validate a corpus JSONL file, preserving line order."""
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"corpus file not found: {path}")
    examples = read_json(path, "corpus", partial(_example_from_record, set()), lines=True)
    return Dataset(examples=tuple(examples), split_name=split_name or path.stem)


def example_to_record(example: Example) -> dict:
    record: dict = {
        "doc_id": example.doc_id,
        "text": example.text,
        "anaphor": {"start": example.anaphor.start, "end": example.anaphor.end},
    }
    if example.gold_antecedents is not None:
        record["antecedents"] = [
            {"start": a.start, "end": a.end} for a in example.gold_antecedents
        ]
    return record


def save_corpus(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset back to JSONL; load_corpus(save_corpus(d)) round-trips."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for ex in dataset:
            fh.write(json.dumps(example_to_record(ex), ensure_ascii=False) + "\n")


def seeded_prefix(n: int, m: int, entropy: Sequence[int]) -> list[int]:
    """The first ``m`` slots of a seeded partial Fisher-Yates shuffle of ``range(n)``.

    For i in 0..m-1, slot i swaps with slot
    ``PCG64(SeedSequence(entropy)).integers(i, n)``. Only the moved slots
    are stored, so memory is O(m) whatever ``n`` is. This is the one
    shuffle in the package: k-shot sampling, seeded-random prompt
    selection and mixed demonstration order all draw from it.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    moved: dict[int, int] = {}
    prefix = []
    for i in range(m):
        j = int(rng.integers(i, n))
        prefix.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return prefix


def sample_kshot(dataset: Dataset, k: int, seed: int) -> KShotSample:
    """Draw k examples uniformly without replacement, reproducibly.

    The draw is ``seeded_prefix(len(dataset), k, [seed])``: for i in
    0..k-1 swap position i with position ``PCG64(seed).integers(i, n)``,
    then take the first k slots. The algorithm is documented so other
    implementations can match it.
    """
    n = len(dataset)
    if k < 1:
        raise ValueError(f"k-shot sample needs at least one example, got k={k}")
    if k > n:
        raise CorpusError(f"k={k} exceeds dataset size {n}")
    chosen = tuple(dataset.examples[i] for i in seeded_prefix(n, k, [seed]))
    return KShotSample(seed=seed, examples=chosen)
