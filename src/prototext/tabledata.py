"""Data model for tables, examples, and sentence corpora, plus JSONL I/O.

File formats (one JSON object per line, UTF-8):

* tables file:  ``{"id": int, "pairs": [[attr, value], ...], "reference": str}``
* corpus file:  ``{"id": int, "text": str}``

A table carries its linearization (``Table.tokens``) and a sentence its
tokens (``Sentence.tokens``), each computed once when it is built, so
retrieval, the selector and the generator never tokenize them again.

:func:`read_jsonl` and :func:`write_jsonl` read and write every JSONL
format of the package; :func:`read_model_file` and :func:`write_model_file`
read and write both model files, whose parameters pass one number rule
(:func:`json_numbers`).

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from .errors import MALFORMED, DuplicateId, InvalidTable, ParseError, UnknownDocument
from .tokenization import ATTR_DELIM, PAIR_DELIM, tokenize

T = TypeVar("T")

MODEL_VERSION = 1


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

    @classmethod
    def _from_unique(cls, by_id: dict[int, Sentence]) -> "Corpus":
        """The corpus of ``by_id``'s sentences in insertion order, ids already checked."""
        corpus = cls.__new__(cls)
        corpus._by_id, corpus.sentences = by_id, tuple(by_id.values())
        return corpus

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
    with path and line. Other data errors and ``OSError`` pass through.
    """
    spath = str(path)
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
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
    """Write a model as one sorted-key JSON object, tagged with its format and version."""
    envelope = {"format": f"prototext-{kind}", "version": MODEL_VERSION, **payload}
    with open(path, "w", encoding="utf-8") as fh:
        # one dumps, one write: json.dump's chunked writes take about three times as long
        fh.write(json.dumps(envelope, sort_keys=True, allow_nan=False))
        fh.write("\n")


def read_model_file(path: str | Path, kind: str, build: Callable[[dict], T]) -> T:
    """``build(payload)`` of a file :func:`write_model_file` wrote for ``kind``; another
    format or version, or content that ``build`` fails on as MALFORMED or with a
    ParseError, is a ParseError with the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("format") != f"prototext-{kind}" or payload.get("version") != MODEL_VERSION:
            raise ParseError(f"not a recognized {kind} model file")
        return build(payload)
    except MALFORMED as exc:
        raise ParseError(f"malformed {kind} model file: {exc}", path=str(path)) from exc
    except ParseError as exc:
        exc.path = str(path)
        raise


def json_numbers(value, name: str, ndim: int) -> np.ndarray:
    """``value`` as a float64 array, by the one number rule for every parameter of a
    model file: ``ndim`` levels of regular lists (none for a scalar) holding JSON numbers
    alone; a bool, a string or a ragged list is a ParseError naming ``name``."""
    cells = np.array(value, dtype=object)
    if cells.ndim != ndim or not set(map(type, cells.flat)) <= {int, float}:
        raise ParseError(f"{name} must be {ndim}-dimensional JSON numbers")
    return cells.astype(np.float64)


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
        if not isinstance(pairs, list) or not pairs:
            raise ParseError("'pairs' must be a non-empty array")
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

    return Corpus._from_unique({s.id: s for s in read_jsonl(path, parse)})


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
