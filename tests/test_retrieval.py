import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prototext.errors import UnknownDocument
from prototext.retrieval import (
    CandidateSet,
    Posting,
    bm25_score,
    build_index,
    filter_leakage,
    load_index,
    retrieve,
    retrieve_candidates,
    save_index,
    table_query,
)
from prototext.tabledata import Corpus, Example, Sentence, Table, load_corpus, write_corpus


def corpus_of(*texts, ids=None):
    ids = ids if ids is not None else range(1, len(texts) + 1)
    return Corpus([Sentence.from_text(i, t) for i, t in zip(ids, texts)])


def table_of(*pairs):
    return Table.from_pairs(pairs)


class TestBuildIndex:
    def test_two_document_hand_count(self):
        index = build_index(corpus_of("a b", "a c"))
        assert index.doc_count == 2
        assert index.avgdl == 2.0
        assert index.postings["a"] == Posting(ids=(1, 2), tfs=(1, 1))
        assert index.postings["b"] == Posting(ids=(1,), tfs=(1,))
        assert index.postings["c"] == Posting(ids=(2,), tfs=(1,))
        assert index.doc_lengths == {1: 2, 2: 2}

    def test_empty_corpus(self):
        index = build_index(Corpus([]))
        assert index.doc_count == 0
        assert index.postings == {}
        assert index.avgdl == 0.0

    def test_duplicate_text_both_indexed(self):
        index = build_index(corpus_of("same words", "same words"))
        assert index.postings["same"] == Posting(ids=(1, 2), tfs=(1, 1))

    def test_posting_ids_strictly_increasing(self):
        index = build_index(corpus_of("z a", "a", "a z", ids=[9, 2, 5]))
        for posting in index.postings.values():
            ids = list(posting.ids)
            assert ids == sorted(ids)
            assert len(set(ids)) == len(ids)


class TestBm25Score:
    def test_hand_value_is_ln2(self):
        # Okapi by hand: idf(c) = ln((2-1+0.5)/(1+0.5)+1) = ln 2, and the
        # tf term (1*2.2)/(1 + 1.2*(1-0.75+0.75*(2/2))) equals 1.
        index = build_index(corpus_of("a b", "a c"))
        assert bm25_score(index, ["c"], 2) == pytest.approx(math.log(2), abs=1e-9)

    def test_absent_term_scores_zero(self):
        index = build_index(corpus_of("a b", "a c"))
        assert bm25_score(index, ["z"], 1) == 0.0

    def test_empty_query_scores_zero(self):
        index = build_index(corpus_of("a b", "a c"))
        assert bm25_score(index, [], 1) == 0.0

    def test_unknown_document(self):
        index = build_index(corpus_of("a b"))
        with pytest.raises(UnknownDocument):
            bm25_score(index, ["a"], 99)

    def test_monotone_in_term_frequency(self):
        # Fixed document length 6; tf of "t" rises 1..5 with unique filler.
        texts = [" ".join(["t"] * tf + [f"f{d}x{j}" for j in range(6 - tf)]) for d, tf in enumerate([1, 2, 3, 4, 5])]
        index = build_index(corpus_of(*texts))
        scores = [bm25_score(index, ["t"], d) for d in range(1, 6)]
        assert all(a < b for a, b in zip(scores, scores[1:]))

    def test_duplicate_query_terms_do_not_double_count(self):
        index = build_index(corpus_of("a b", "a c"))
        assert bm25_score(index, ["c", "c"], 2) == bm25_score(index, ["c"], 2)


class TestRetrieve:
    def test_only_matching_doc_returned(self):
        index = build_index(corpus_of("x y", "unrelated words", "more noise"))
        cands = retrieve(index, table_of(("thing", "x")), m=10, table_id=0)
        assert cands.ids() == [1]
        assert cands.entries[0][1] > 0

    def test_no_overlap_gives_empty_set(self):
        index = build_index(corpus_of("x y", "z w"))
        cands = retrieve(index, table_of(("thing", "qqq")), m=10)
        assert len(cands) == 0

    def test_empty_corpus_gives_empty_set(self):
        index = build_index(Corpus([]))
        assert len(retrieve(index, table_of(("thing", "x")), m=5)) == 0

    def test_ties_order_by_ascending_id(self):
        index = build_index(corpus_of("x", "x", ids=[9, 3]))
        cands = retrieve(index, table_of(("thing", "x")), m=10)
        assert cands.ids() == [3, 9]

    def test_truncates_to_m(self):
        index = build_index(corpus_of(*["x"] * 7))
        assert len(retrieve(index, table_of(("thing", "x")), m=4)) == 4

    def test_reserved_tokens_excluded_from_query(self):
        q = table_query(table_of(("a", "x"), ("b", "y")))
        assert ":" not in q and "|" not in q
        assert q == ["a", "x", "b", "y"]


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_retrieve_matches_exhaustive_scoring(data):
    vocab = "abcdefgh"
    n_docs = data.draw(st.integers(1, 24))
    texts = data.draw(
        st.lists(
            st.lists(st.sampled_from(vocab), min_size=1, max_size=8).map(" ".join),
            min_size=n_docs,
            max_size=n_docs,
        )
    )
    corpus = corpus_of(*texts)
    index = build_index(corpus)
    value = data.draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=4).map(" ".join))
    t = table_of(("field", value))
    m = data.draw(st.integers(1, 10))

    got = retrieve(index, t, m)
    query = table_query(t)
    brute = [(doc, bm25_score(index, query, doc)) for doc in index.doc_lengths]
    brute = [(doc, s) for doc, s in brute if s > 0]
    brute.sort(key=lambda e: (-e[1], e[0]))
    assert list(got.entries) == brute[:m]


def test_added_zero_overlap_doc_excluded_and_postings_stable():
    # A new document sharing no query terms never enters the results and
    # leaves other documents' postings untouched. (Global idf and length
    # statistics do shift, as they must for any corpus-level scorer.)
    base = corpus_of("x y", "x z")
    bigger = corpus_of("x y", "x z", "unrelated filler junk")
    t = table_of(("thing", "x"))
    before = build_index(base)
    after = build_index(bigger)
    assert retrieve(after, t, 10).ids() == retrieve(before, t, 10).ids()
    for term in ("x", "y", "z"):
        assert before.postings[term] == after.postings[term]


class TestFilterLeakage:
    def test_exact_reference_removed(self):
        corpus = corpus_of("The Band is from Tampa.", "other text")
        cands = CandidateSet(0, ((1, 2.0), (2, 1.0)))
        kept = filter_leakage(cands, corpus, "the band is from tampa")
        assert kept.ids() == [2]

    def test_paraphrase_kept(self):
        corpus = corpus_of("the band comes from tampa")
        cands = CandidateSet(0, ((1, 2.0),))
        assert filter_leakage(cands, corpus, "the band is from tampa").ids() == [1]

    def test_empty_input(self):
        corpus = corpus_of("a")
        assert len(filter_leakage(CandidateSet(0, ()), corpus, "a")) == 0

    def test_idempotent(self):
        corpus = corpus_of("a b", "c d", "a b")
        cands = CandidateSet(0, ((1, 3.0), (2, 2.0), (3, 1.0)))
        once = filter_leakage(cands, corpus, "A b.")
        twice = filter_leakage(once, corpus, "A b.")
        assert once == twice
        assert once.ids() == [2]


def test_retrieve_candidates_is_filtered_retrieval_per_table():
    corpus = corpus_of("alpha beta", "alpha gamma", "beta delta")
    index = build_index(corpus)
    examples = [
        Example(7, table_of(("alpha", "beta")), "Alpha  beta"),
        Example(3, table_of(("delta", "x")), "y"),
    ]
    sets = retrieve_candidates(index, examples, 10, corpus)
    assert list(sets) == [7, 3]
    raw = {ex.id: retrieve(index, ex.table, 10, table_id=ex.id) for ex in examples}
    assert sets == {ex.id: filter_leakage(raw[ex.id], corpus, ex.reference) for ex in examples}
    assert 1 in raw[7].ids() and 1 not in sets[7].ids()


class TestIndexPersistence:
    def test_scores_survive_roundtrip_bitexact(self, tmp_path):
        corpus = corpus_of("a b c", "a a d", "b d e f", "g")
        index = build_index(corpus)
        path = tmp_path / "index.jsonl"
        save_index(path, index)
        loaded = load_index(path)
        assert loaded == index
        for doc in index.doc_lengths:
            for query in (["a"], ["b", "d"], ["e", "g", "a"]):
                assert bm25_score(loaded, query, doc) == bm25_score(index, query, doc)

    def test_file_is_byte_stable(self, tmp_path):
        index = build_index(corpus_of("a b", "b c"))
        p1, p2 = tmp_path / "i1", tmp_path / "i2"
        save_index(p1, index)
        save_index(p2, index)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corpus_without_tokens_roundtrips(self, tmp_path):
        # every sentence tokenizes to nothing, so avgdl is 0.0 over two documents
        index = build_index(corpus_of("", "..."))
        assert (index.doc_count, index.avgdl) == (2, 0.0)
        path = tmp_path / "index.jsonl"
        save_index(path, index)
        assert load_index(path) == index


class TestMemoryLayout:
    """The compact in-memory layout: one string object per token type, and
    two parallel tuples per posting list."""

    TEXTS = [
        "The cat sat on the mat.",
        "A cat, a hat and the bat!",
        "«Mat» the cat — the mat…",
        "hat hat hat",
        "",
    ]

    def test_loaded_corpus_holds_one_string_per_token_type(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, [Sentence.from_text(i, t) for i, t in enumerate(self.TEXTS, 1)])
        tokens = [t for sentence in load_corpus(path) for t in sentence.tokens]
        assert all(sys.intern(t) is t for t in tokens)
        assert len({id(t) for t in tokens}) == len(set(tokens)) < len(tokens)

    def test_loaded_index_terms_are_the_corpus_tokens(self, tmp_path):
        corpus_path, index_path = tmp_path / "corpus.jsonl", tmp_path / "index.jsonl"
        write_corpus(corpus_path, [Sentence.from_text(i, t) for i, t in enumerate(self.TEXTS, 1)])
        corpus = load_corpus(corpus_path)
        save_index(index_path, build_index(corpus))
        loaded = load_index(index_path)
        token_objects = {t: t for sentence in corpus for t in sentence.tokens}
        assert loaded.postings.keys() == token_objects.keys()
        assert all(term is token_objects[term] for term in loaded.postings)

    def test_postings_are_two_parallel_tuples(self, tmp_path):
        index = build_index(corpus_of(*self.TEXTS, ids=[8, 3, 5, 1, 9]))
        assert index.postings
        for posting in index.postings.values():
            assert type(posting) is Posting
            assert type(posting.ids) is tuple and type(posting.tfs) is tuple
            assert len(posting.ids) == len(posting.tfs) >= 1
            assert all(a < b for a, b in zip(posting.ids, posting.ids[1:]))
            assert all(type(tf) is int and tf >= 1 for tf in posting.tfs)
        assert index.postings["hat"] == Posting(ids=(1, 3), tfs=(3, 1))
        path = tmp_path / "index.jsonl"
        save_index(path, index)
        loaded = load_index(path)
        assert loaded == index
        assert all(type(p) is Posting for p in loaded.postings.values())
