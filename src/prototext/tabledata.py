"""Data model for tables, examples, and sentence corpora, plus JSONL I/O.

File formats (one JSON object per line, UTF-8):

* tables file:  ``{"id": int, "pairs": [[attr, value], ...], "reference": str}``
* corpus file:  ``{"id": int, "text": str}``
* model files:  one sorted-key JSON object,
  ``{"format": "prototext-<kind>", "version": MODEL_VERSION, ...}``, in
  which every parameter array is ``{"shape": [int, ...], "f64le": str}``:
  the base64 (RFC 4648, standard alphabet, padded) of the array's
  float64 values as little-endian bytes in C order, so the bits
  round-trip exactly at about 10.7 bytes per value

A table carries its linearization (``Table.tokens``) and a sentence its
tokens (``Sentence.tokens``), each computed once when it is built, so
retrieval, the selector and the generator never tokenize them again.

:func:`read_jsonl` and :func:`write_jsonl` read and write every JSONL
format of the package; :func:`read_model_file` and :func:`write_model_file`
read and write both model files, which hold only their format's keys
(:func:`known_keys`) and whose parameters pass one array rule
(:func:`encode_array` and :func:`decode_array`).

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from .errors import MALFORMED, DuplicateId, InvalidTable, ParseError, UnknownDocument
from .tokenization import ATTR_DELIM, PAIR_DELIM, tokenize

T = TypeVar("T")

MODEL_VERSION = 3


@dataclass(frozen=True)
class AttributeValuePair:
    """One attribute-value cell of a table."""

    attribute: str
    value: str

    def __post_init__(self):
        if not self.attribute.strip():
            raise InvalidTable("attribute must be non-empty")
        if not self.value.strip():
            raise InvalidTable(f"value for attribute {self.attribute!r} must be non-empty")


@dataclass(frozen=True)
class Table:
    """An ordered sequence of attribute-value pairs, with its linearization
    computed once at construction (not part of equality, hash or repr)."""

    pairs: tuple[AttributeValuePair, ...]
    tokens: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if len(self.pairs) == 0:
            raise InvalidTable("a table needs at least one attribute-value pair")
        object.__setattr__(self, "tokens", tuple(linearize_table(self)))

    @classmethod
    def from_pairs(cls, raw: Iterable[tuple[str, str]]) -> "Table":
        return cls(tuple(AttributeValuePair(a, v) for a, v in raw))


@dataclass(frozen=True)
class Example:
    """A labelled table: the structured input plus its gold sentence."""

    id: int
    table: Table
    reference: str


@dataclass(frozen=True)
class Sentence:
    """A corpus sentence with its token sequence cached at load time."""

    id: int
    text: str
    tokens: tuple[str, ...]

    @classmethod
    def from_text(cls, sid: int, text: str) -> "Sentence":
        return cls(sid, text, tuple(tokenize(text)))


class Corpus:
    """An id-addressable pool of sentences, kept in file order."""

    def __init__(self, sentences: Iterable[Sentence]):
        self._by_id: dict[int, Sentence] = {}
        for s in sentences:
            if s.id in self._by_id:
                raise DuplicateId(s.id)
            self._by_id[s.id] = s
        self.sentences: tuple[Sentence, ...] = tuple(self._by_id.values())

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)

    def get(self, sid: int) -> Sentence:
        try:
            return self._by_id[sid]
        except KeyError:
            raise UnknownDocument(f"no sentence with id {sid} in corpus") from None


def linearize_table(table: Table) -> list[str]:
    """Serialize a table into the token layout ``attr : value | attr : value``.

    Attribute and value strings go through the shared tokenizer; the
    delimiters are reserved tokens, so segment boundaries stay
    recoverable no matter what the cell text contains. Every table
    holds its own as ``Table.tokens``.
    """
    tokens: list[str] = []
    for i, pair in enumerate(table.pairs):
        if i:
            tokens.append(PAIR_DELIM)
        tokens.extend(tokenize(pair.attribute))
        tokens.append(ATTR_DELIM)
        tokens.extend(tokenize(pair.value))
    return tokens


def read_jsonl(path: str | Path, parse: Callable[[dict], T]) -> Iterator[T]:
    """Stream ``parse(record)`` over the JSON object lines of a file, skipping blank lines.

    A line that is not UTF-8, JSON or an object, and one that ``parse``
    rejects with a :data:`~prototext.errors.MALFORMED` error or a
    :class:`ParseError` (raised without path or line), is a ParseError
    with path and line; so is JSON nested too deeply for the parser. Other
    data errors and ``OSError`` pass through.
    """
    spath = str(path)
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                try:
                    record = json.loads(line.decode("utf-8"))
                except RecursionError:
                    raise ParseError("record nests JSON too deeply") from None
                if not isinstance(record, dict):
                    raise ParseError("record is not a JSON object")
                value = parse(record)
            except MALFORMED as exc:
                message = f"malformed record ({type(exc).__name__}: {exc})"
                raise ParseError(message, line_no, spath) from None
            except ParseError as exc:
                exc.line_no, exc.path = line_no, spath
                raise
            yield value


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write one sorted-key JSON object per line; the one JSONL writer."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_model_file(path: str | Path, kind: str, payload: dict) -> None:
    """Write a model as one sorted-key JSON object, tagged with its format and version;
    its arrays go in by :func:`encode_array`."""
    envelope = {"format": f"prototext-{kind}", "version": MODEL_VERSION, **payload}
    with open(path, "w", encoding="utf-8") as fh:
        # streamed: the document is a few long strings, never held whole
        json.dump(envelope, fh, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_model_file(
    path: str | Path, kind: str, keys: Iterable[str], build: Callable[[dict], T]
) -> T:
    """``build(payload)`` of a file :func:`write_model_file` wrote for ``kind`` with the
    payload ``keys``; another format or version, another key, or content that ``build``
    fails on as MALFORMED or with a ParseError, is a ParseError with the path; so is
    JSON nested too deeply for the parser."""
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except RecursionError:
                raise ParseError(f"{kind} model file nests JSON too deeply") from None
        if payload.get("format") != f"prototext-{kind}" or payload.get("version") != MODEL_VERSION:
            raise ParseError(f"not a recognized {kind} model file")
        known_keys(payload, ("format", "version", *keys), f"{kind} model file")
        return build(payload)
    except MALFORMED as exc:
        raise ParseError(f"malformed {kind} model file: {exc}", path=str(path)) from exc
    except ParseError as exc:
        exc.path = str(path)
        raise


def known_keys(obj: dict, keys: Iterable[str], where: str) -> None:
    """A ParseError naming the first key of ``obj`` that is not one of ``keys``."""
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ParseError(f"unknown key {unknown[0]!r} in {where}")


def encode_array(values) -> dict:
    """``values`` by the one array rule of model files: its shape, and the base64 of
    its float64 values as little-endian bytes in C order."""
    array = np.asarray(values, dtype="<f8")
    return {"shape": list(array.shape), "f64le": base64.b64encode(array.tobytes()).decode("ascii")}


def decode_array(value, name: str, ndim: int) -> np.ndarray:
    """The float64 array that :func:`encode_array` wrote as ``value``, with ``ndim``
    dimensions. Anything else is a ParseError naming ``name``: another key, a shape that
    is not ``ndim`` non-negative integers or disagrees with the byte count, base64 that
    is not valid (RFC 4648, padded, nothing after the padding), or a value that is not
    finite."""
    if not isinstance(value, dict) or set(value) != {"shape", "f64le"}:
        raise ParseError(f"{name} must be an object with the keys 'shape' and 'f64le' alone")
    shape = value["shape"]
    if type(shape) is not list or len(shape) != ndim:
        raise ParseError(f"{name} shape must be a list of {ndim} integers")
    shape = [json_int(n, f"{name} shape") for n in shape]
    text = value["f64le"]
    if not isinstance(text, str):
        raise ParseError(f"{name} f64le must be a string")
    try:
        raw = binascii.a2b_base64(text)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ParseError(f"{name} f64le is not base64: {exc}") from None
    # The decoder skips characters outside the alphabet, a stray '=' and whatever
    # follows the padding; a text holds none of them exactly when it is as long as
    # the padded encoding of its bytes. (Its strict mode needs Python 3.11.)
    if len(text) != 4 * -(-len(raw) // 3):
        raise ParseError(f"{name} f64le is not base64: {len(text)} characters for {len(raw)} bytes")
    size = 8 * math.prod(shape)
    if len(raw) != size:
        raise ParseError(f"{name} holds {len(raw)} bytes, shape {shape} needs {size}")
    array = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(array).all():
        raise ParseError(f"{name} holds a value that is not finite")
    return array


def json_int(value, name: str) -> int:
    """``value``, by the one rule for every integer of a JSONL file: a non-negative
    int that is not a bool; anything else is a ParseError naming ``name``."""
    if type(value) is not int or value < 0:  # a JSON true or false is a bool, not an int
        raise ParseError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def unique_id(value, name: str, seen: set[int]) -> int:
    """:func:`json_int` of ``value``, added to ``seen``; one already there is a DuplicateId."""
    if json_int(value, name) in seen:
        raise DuplicateId(value, name)
    seen.add(value)
    return value


def parse_tables_file(path: str | Path) -> list[Example]:
    """Read a tables file; ids are validated unique, order is preserved."""
    seen: set[int] = set()

    def parse(record: dict) -> Example:
        rid = unique_id(record.get("id"), "id", seen)
        pairs = record.get("pairs")
        if not isinstance(pairs, list):
            raise ParseError("'pairs' must be an array")
        for p in pairs:
            if not isinstance(p, list) or len(p) != 2 or not all(isinstance(x, str) for x in p):
                raise ParseError("each pair must be a [attribute, value] string pair")
        reference = record.get("reference")
        if not isinstance(reference, str):
            raise ParseError("'reference' must be a string")
        try:
            table = Table.from_pairs(pairs)
        except InvalidTable as exc:
            raise ParseError(str(exc)) from None
        return Example(rid, table, reference)

    return list(read_jsonl(path, parse))


def load_corpus(path: str | Path) -> Corpus:
    """Read a corpus file; tokens are precomputed once per sentence."""
    seen: set[int] = set()

    def parse(record: dict) -> Sentence:
        rid = unique_id(record.get("id"), "id", seen)
        text = record.get("text")
        if not isinstance(text, str):
            raise ParseError("'text' must be a string")
        return Sentence.from_text(rid, text)

    return Corpus(read_jsonl(path, parse))


def write_tables_file(path: str | Path, examples: Iterable[Example]) -> None:
    write_jsonl(
        path,
        (
            {
                "id": ex.id,
                "pairs": [[p.attribute, p.value] for p in ex.table.pairs],
                "reference": ex.reference,
            }
            for ex in examples
        ),
    )


def write_corpus(path: str | Path, sentences: Iterable[Sentence]) -> None:
    write_jsonl(path, ({"id": s.id, "text": s.text} for s in sentences))
