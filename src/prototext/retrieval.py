"""Lexical retrieval: inverted index, Okapi BM25, top-m candidates.

Scoring uses the standard Okapi form with ``k1 = 1.2``, ``b = 0.75`` and
the never-negative idf variant ``ln((N - df + 0.5) / (df + 0.5) + 1)``.
Queries are built from the unique tokens of a linearized table, minus
the reserved layout tokens; documents with zero overlap are never
returned.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import ParseError, UnknownDocument, check_int
from .tabledata import (
    Corpus,
    Example,
    Table,
    json_int,
    read_jsonl,
    unique_id,
    write_jsonl,
)
from .tokenization import RESERVED_TOKENS, tokenize

K1 = 1.2
B = 0.75

INDEX_FORMAT = "prototext-index"
INDEX_VERSION = 1


class Posting(NamedTuple):
    """One term's posting list: ``ids[i]`` holds the term ``tfs[i]`` times."""

    ids: tuple[int, ...]  # strictly increasing sentence ids
    tfs: tuple[int, ...]  # term frequencies, each >= 1


@dataclass(frozen=True)
class InvertedIndex:
    """Immutable term -> postings map with the global BM25 statistics.

    In memory each term's postings are one :class:`Posting`, two
    parallel tuples of ints rather than a tuple per posting, so an index
    holds two tuples per term; a term's df is ``len(posting.ids)``. The
    file that :func:`save_index` writes keeps ``[id, tf]`` pairs.
    """

    postings: dict[str, Posting]
    doc_lengths: dict[int, int]
    doc_count: int
    avgdl: float


@dataclass(frozen=True)
class CandidateSet:
    """A ranked set of sentences for one table: ids with scores, best first.

    Entries are ordered by descending score, ties broken by ascending
    sentence id. Retrieval's sets hold BM25 scores, which are strictly
    positive; :func:`prototext.selector.select_top_n` returns one holding
    selector scores, which may have any sign.
    """

    table_id: int
    entries: tuple[tuple[int, float], ...]

    def ids(self) -> list[int]:
        return [sid for sid, _ in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def build_index(corpus: Corpus) -> InvertedIndex:
    """Index a corpus. An empty corpus yields a valid zero-document index.

    Sentences are visited in id order and append to per-term id and tf
    lists, so each list comes out sorted without a per-term map.
    """
    raw: dict[str, tuple[list[int], list[int]]] = {}
    for sentence in sorted(corpus, key=attrgetter("id")):
        for tok, tf in Counter(sentence.tokens).items():
            lists = raw.get(tok)
            if lists is None:
                lists = raw[tok] = ([], [])
            lists[0].append(sentence.id)
            lists[1].append(tf)
    postings = {term: Posting(*map(tuple, raw.pop(term))) for term in sorted(raw)}
    doc_lengths = {sentence.id: len(sentence.tokens) for sentence in corpus}
    n = len(doc_lengths)
    avgdl = sum(doc_lengths.values()) / n if n else 0.0
    return InvertedIndex(postings=postings, doc_lengths=doc_lengths, doc_count=n, avgdl=avgdl)


def _idf(index: InvertedIndex, df: int) -> float:
    return math.log((index.doc_count - df + 0.5) / (df + 0.5) + 1.0)


def _tf_in_posting(posting: Posting, doc_id: int) -> int:
    pos = bisect_left(posting.ids, doc_id)
    if pos < len(posting.ids) and posting.ids[pos] == doc_id:
        return posting.tfs[pos]
    return 0


def bm25_score(index: InvertedIndex, query: Sequence[str], doc_id: int) -> float:
    """Okapi BM25 score of one document for a query.

    Duplicate query terms are collapsed before scoring, keeping first
    occurrence order so the floating-point sum is reproducible.
    """
    if doc_id not in index.doc_lengths:
        raise UnknownDocument(f"document {doc_id} is not indexed")
    dl = index.doc_lengths[doc_id]
    norm = K1 * (1.0 - B + B * dl / index.avgdl) if index.avgdl > 0 else K1
    score = 0.0
    for term in dict.fromkeys(query):
        posting = index.postings.get(term)
        if posting is None:
            continue
        tf = _tf_in_posting(posting, doc_id)
        if tf == 0:
            continue
        score += _idf(index, len(posting.ids)) * tf * (K1 + 1.0) / (tf + norm)
    return score


def table_query(table: Table) -> list[str]:
    """Unique linearization tokens of a table, reserved tokens removed."""
    return [t for t in dict.fromkeys(table.tokens) if t not in RESERVED_TOKENS]


def retrieve(index: InvertedIndex, table: Table, m: int, *, table_id: int = 0) -> CandidateSet:
    """Return up to ``m`` positive-scoring documents for a table.

    Term-at-a-time accumulation in query order; per-document sums are
    therefore bit-identical to :func:`bm25_score` on the same query.
    """
    check_int(m, "m", 1)
    acc: dict[int, float] = {}
    for term in table_query(table):
        posting = index.postings.get(term)
        if posting is None:
            continue
        idf = _idf(index, len(posting.ids))
        for doc_id, tf in zip(posting.ids, posting.tfs):
            dl = index.doc_lengths[doc_id]
            norm = K1 * (1.0 - B + B * dl / index.avgdl)
            acc[doc_id] = acc.get(doc_id, 0.0) + idf * tf * (K1 + 1.0) / (tf + norm)
    ranked = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))[:m]
    return CandidateSet(table_id=table_id, entries=tuple(ranked))


def filter_leakage(candidates: CandidateSet, corpus: Corpus, reference: str) -> CandidateSet:
    """Drop candidates whose token sequence equals the reference's.

    Token-level equality makes the filter robust to case and whitespace
    variants of the same sentence. Idempotent.
    """
    ref_tokens = tuple(tokenize(reference))
    kept = tuple(
        (sid, score)
        for sid, score in candidates.entries
        if corpus.get(sid).tokens != ref_tokens
    )
    return CandidateSet(table_id=candidates.table_id, entries=kept)


def retrieve_candidates(
    index: InvertedIndex, examples: Sequence[Example], m: int, corpus: Corpus
) -> dict[int, CandidateSet]:
    """Each example's top-m candidates by table id, in example order, leakage-filtered
    against the example's reference."""
    check_int(m, "m", 1)
    return {
        ex.id: filter_leakage(retrieve(index, ex.table, m, table_id=ex.id), corpus, ex.reference)
        for ex in examples
    }


def write_candidate_sets(path: str | Path, candidate_sets: Sequence[CandidateSet]) -> None:
    """One JSON record per table: ``{"table_id", "candidates": [[id, score]]}``."""
    records = (
        {"table_id": c.table_id, "candidates": [list(e) for e in c.entries]} for c in candidate_sets
    )
    write_jsonl(path, records)


def read_candidate_sets(path: str | Path) -> list[CandidateSet]:
    """Read a candidates file; a repeated ``table_id``, or a sentence id repeated
    within one set, is a ParseError."""
    seen: set[int] = set()

    def parse(record: dict) -> CandidateSet:
        table_id = unique_id(record.get("table_id"), "table_id", seen)
        sids: set[int] = set()
        entries = []
        for sid, score in record["candidates"]:
            if type(score) not in (int, float) or not math.isfinite(score):
                raise ParseError(f"candidate score must be a finite number, got {score!r}")
            entries.append((unique_id(sid, "sentence id", sids), float(score)))
        return CandidateSet(table_id=table_id, entries=tuple(entries))

    return list(read_jsonl(path, parse))


def save_index(path: str | Path, index: InvertedIndex) -> None:
    """Persist an index as versioned JSONL; reload is bit-exact."""
    header = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "doc_count": index.doc_count,
        "avgdl": index.avgdl,
    }
    lengths = {"doc_lengths": sorted(index.doc_lengths.items())}
    terms = (
        {"term": term, "postings": [list(p) for p in zip(*index.postings[term])]}
        for term in sorted(index.postings)
    )
    write_jsonl(path, chain((header, lengths), terms))


def load_index(path: str | Path) -> InvertedIndex:
    """Read an index; one that contradicts itself is a ParseError at the line that shows it."""
    header: dict = {}
    doc_lengths: dict[int, int] = {}
    doc_ids: dict[int, int] = {}
    postings: dict[str, Posting] = {}

    def parse_header(record: dict) -> None:
        if record.get("format") != INDEX_FORMAT or record.get("version") != INDEX_VERSION:
            raise ParseError("not a recognized index file")
        doc_count = json_int(record["doc_count"], "doc_count")
        avgdl = record["avgdl"]
        if type(avgdl) not in (int, float):  # a JSON true or false is a bool, not a number
            raise ParseError(f"avgdl must be a JSON number, got {avgdl!r}")
        header.update(doc_count=doc_count, avgdl=float(avgdl))

    def parse_lengths(record: dict) -> None:
        seen: set[int] = set()
        for sid, n in record["doc_lengths"]:
            doc_lengths[unique_id(sid, "doc id", seen)] = json_int(n, "document length")
        if len(doc_lengths) != header["doc_count"]:
            raise ParseError(
                f"doc_count {header['doc_count']} but {len(doc_lengths)} document lengths"
            )
        # exactly as build_index computes it; a JSON float round-trips exactly
        avgdl = sum(doc_lengths.values()) / len(doc_lengths) if doc_lengths else 0.0
        if header["avgdl"] != avgdl:
            raise ParseError(f"avgdl {header['avgdl']} but the document lengths give {avgdl}")
        doc_ids.update((sid, sid) for sid in doc_lengths)

    def parse_postings(record: dict) -> None:
        ids: list[int] = []
        tfs: list[int] = []
        for d, tf in record["postings"]:
            # the indexed id object, so the postings of a document share one int
            sid, tf = doc_ids.get(json_int(d, "posting doc id")), json_int(tf, "term frequency")
            if sid is None:
                raise ParseError(f"posting for unindexed document {d}")
            if ids and sid <= ids[-1]:
                raise ParseError(f"posting doc ids not strictly increasing at document {sid}")
            # a term frequency within the length also keeps BM25 from dividing by
            # an avgdl of 0, the mean of lengths that are all 0
            dl = doc_lengths[sid]
            if not 1 <= tf <= dl:
                raise ParseError(f"term frequency {tf} for document {sid} of length {dl}")
            ids.append(sid)
            tfs.append(tf)
        # the interned term, so an index loaded beside a corpus shares its token objects
        postings[sys.intern(record["term"])] = Posting(tuple(ids), tuple(tfs))

    # Line 1 is the header, line 2 the lengths, every later line postings.
    parsers = iter((parse_header, parse_lengths))
    for _ in read_jsonl(path, lambda record: next(parsers, parse_postings)(record)):
        pass
    if next(parsers, None) is not None:
        raise ParseError("index file ends before its document lengths", path=str(path))
    return InvertedIndex(postings=postings, doc_lengths=doc_lengths, **header)
