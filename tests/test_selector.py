import itertools
import json
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcheck import central_diff, max_rel_error
from prototext.errors import InsufficientNegatives, InvalidConfig, ParseError
from prototext.retrieval import CandidateSet, build_index, filter_leakage, retrieve
from prototext.selector import (
    SelectorModel,
    SelectorTrainConfig,
    encode_pair,
    margin_loss,
    margin_loss_grad,
    load_selector,
    read_augmented_dataset,
    save_selector,
    score_pair,
    select_prototypes,
    select_top_n,
    train_selector,
)
from prototext.tabledata import Corpus, Example, Sentence, Table, linearize_table
from prototext.tokenization import tokenize
from prototext.vocab import Vocabulary


def table_of(*pairs):
    return Table.from_pairs(pairs)


def model_with(vocab, emb, w):
    return SelectorModel(
        vocab=vocab,
        embeddings=np.asarray(emb, dtype=np.float64),
        projection=np.asarray(w, dtype=np.float64),
    )


def token_score_model(token_values: dict[str, float]):
    """Rig a model so f(table [('a','a')], [tok]) == token_values[tok].

    The pair sequence [a : a <sep> tok] has 5 positions; every row except
    the sentence token's is zero and w = (5,), so the mean contributes
    exactly E[tok] to the score.
    """
    vocab = Vocabulary.build([list(token_values)])
    emb = np.zeros((len(vocab), 1))
    for tok, value in token_values.items():
        emb[vocab.id(tok), 0] = value
    return model_with(vocab, emb, [5.0]), table_of(("a", "a"))


class TestEncodePair:
    def test_all_oov_collapses_to_unk_row(self):
        vocab = Vocabulary.build([["known"]])
        rng = np.random.default_rng(0)
        model = model_with(vocab, rng.normal(size=(len(vocab), 3)), np.zeros(3))
        h = encode_pair(model, table_of(("zzz", "qqq")), ["www", "rrr"])
        # every position maps to <unk> except ":" and the <sep> slot;
        # pooling sums rows in sorted-id order
        ids = sorted([0, 4, 0, 1, 0, 0])
        expected = model.embeddings[ids].mean(axis=0)
        np.testing.assert_array_equal(h, expected)

    def test_hand_mean_over_known_rows(self):
        vocab = Vocabulary.build([["t"]])  # ids: reserved 0..5, then t=6
        emb = np.zeros((7, 2))
        emb[0] = (0.0, 0.0)   # <unk>
        emb[1] = (4.0, 0.0)   # <sep>
        emb[4] = (2.0, 4.0)   # ":"
        emb[6] = (1.0, 2.0)   # t
        model = model_with(vocab, emb, np.zeros(2))
        # sequence ids: [unk, :, unk, <sep>, t] -> rows sum (7, 6) over 5
        h = encode_pair(model, table_of(("q", "z")), ["t"])
        np.testing.assert_allclose(h, [1.4, 1.2], atol=0)

    def test_sentence_permutation_invariance(self):
        vocab = Vocabulary.build([["u", "v", "w"]])
        rng = np.random.default_rng(1)
        model = model_with(vocab, rng.normal(size=(len(vocab), 4)), rng.normal(size=4))
        t = table_of(("name", "u"))
        h1 = encode_pair(model, t, ["u", "v", "w"])
        h2 = encode_pair(model, t, ["w", "u", "v"])
        np.testing.assert_array_equal(h1, h2)


class TestScorePair:
    def test_direct_arithmetic(self):
        vocab = Vocabulary.build([["x"]])
        emb = np.tile([1.0, -1.0], (len(vocab), 1))
        model = model_with(vocab, emb, [2.0, 3.0])
        assert score_pair(model, table_of(("a", "b")), ["x"]) == pytest.approx(-1.0)

    def test_bit_identical_recomputation(self):
        rng = np.random.default_rng(2)
        vocab = Vocabulary.build([[f"w{i}" for i in range(10)]])
        model = model_with(vocab, rng.normal(size=(len(vocab), 8)), rng.normal(size=8))
        t = table_of(("name", "w1 w2"), ("genre", "w3"))
        s = ["w4", "w5", "w9"]
        assert score_pair(model, t, s) == score_pair(model, t, s)


class TestMarginLoss:
    def test_mixed_hinges(self):
        model, t = token_score_model({"y0": 2.0, "n1": 0.5, "n2": 1.5})
        loss = margin_loss(model, t, ["y0"], [["n1"], ["n2"]])
        assert loss == pytest.approx(0.5)

    def test_saturated_hinges_give_zero(self):
        model, t = token_score_model({"y0": 3.0, "n1": 0.5, "n2": 2.0})
        # second slack is exactly 0; the hinge stays inactive
        assert margin_loss(model, t, ["y0"], [["n1"], ["n2"]]) == 0.0

    def test_single_negative(self):
        model, t = token_score_model({"y0": 0.5, "n1": 0.7})
        assert margin_loss(model, t, ["y0"], [["n1"]]) == pytest.approx(1.2)

    def test_empty_negatives_rejected(self):
        model, t = token_score_model({"y0": 1.0})
        with pytest.raises(InvalidConfig):
            margin_loss(model, t, ["y0"], [])

    def test_nonnegative_and_zero_iff_margin_met(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = {f"t{i}": float(rng.normal()) for i in range(4)}
            model, t = token_score_model(values)
            negs = [["t1"], ["t2"], ["t3"]]
            loss = margin_loss(model, t, ["t0"], negs)
            assert loss >= 0.0
            margin_met = all(values["t0"] - values[f"t{j}"] >= 1.0 for j in (1, 2, 3))
            assert (loss == 0.0) == margin_met


def random_selector_setup(rng, v_total=50, d=8, k=5):
    content = [f"w{i}" for i in range(v_total - 6)]
    vocab = Vocabulary.build([content])
    assert len(vocab) == v_total
    model = model_with(vocab, rng.normal(size=(v_total, d)) * 0.5, rng.normal(size=d) * 0.5)
    rng.normal()  # a bias the model no longer has; still drawn, so the draws after it stay put
    words = lambda n: [content[i] for i in rng.integers(0, len(content), size=n)]
    t = Table.from_pairs([(" ".join(words(1)), " ".join(words(2))) for _ in range(2)])
    reference = words(int(rng.integers(2, 7)))
    negatives = [words(int(rng.integers(1, 8))) for _ in range(k)]
    return model, t, reference, negatives


class TestMarginLossGrad:
    def test_inactive_hinges_give_zero_gradients(self):
        model, t = token_score_model({"y0": 5.0, "n1": 0.0})
        g = margin_loss_grad(model, t, ["y0"], [["n1"]])
        assert not g.embeddings.any()
        assert not g.projection.any()

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        model, t, reference, negatives = random_selector_setup(rng)

        def loss():
            return margin_loss(model, t, reference, negatives)

        analytic = margin_loss_grad(model, t, reference, negatives)
        fd_emb = central_diff(loss, model.embeddings)
        fd_w = central_diff(loss, model.projection)
        assert max_rel_error(analytic.embeddings, fd_emb) < 1e-4
        assert max_rel_error(analytic.projection, fd_w) < 1e-4


def tiny_training_setup(n_examples=6, n_cands=8):
    """Corpus where 'good'-style sentences resemble references and the
    rest carry a distinct noise word."""
    sentences = []
    sid = 0
    examples = []
    for i in range(n_examples):
        cand_ids = []
        for j in range(n_cands):
            if j % 2 == 0:
                text = f"item{i} is a fine thing number {j}"
            else:
                text = f"noise blob{i} junk chatter {j}"
            sentences.append(Sentence.from_text(sid, text))
            cand_ids.append(sid)
            sid += 1
        t = table_of(("name", f"item{i}"), ("kind", "thing"))
        cands = CandidateSet(i, tuple((c, 1.0 + 0.01 * (n_cands - k)) for k, c in enumerate(cand_ids)))
        examples.append((t, f"item{i} is a fine thing", cands))
    return Corpus(sentences), examples


def textbook_selector_run(corpus, examples, config):
    """The selector's training as the textbook writes it: the dense np.outer gradient
    of every row, and Adam decaying and writing every row of every group. Returns the vocabulary, the parameters and the epoch losses."""
    vocab = Vocabulary.build(
        [s.tokens for s in corpus]
        + [linearize_table(t) for t, _, _ in examples]
        + [tokenize(ref) for _, ref, _ in examples]
    )
    rng = np.random.default_rng(config.seed)
    params = {
        "emb": rng.uniform(-0.1, 0.1, size=(len(vocab), config.dim)),
        "w": np.zeros(config.dim),
    }
    emb, w = params["emb"], params["w"]
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, config.learning_rate
    ref_losses = []
    t = 0
    for epoch in range(config.epochs):
        ep_rng = np.random.default_rng([config.seed, epoch])
        total = 0.0
        for table, ref, cands in examples:
            picks = ep_rng.choice(len(cands), size=config.k, replace=False)
            t_ids = vocab.ids(linearize_table(table))
            ids_y = t_ids + [vocab.sep_id] + vocab.ids(tokenize(ref))
            ids_negs = [
                t_ids + [vocab.sep_id] + vocab.ids(corpus.get(cands.entries[p][0]).tokens)
                for p in picks
            ]
            mean = lambda ids: emb[sorted(ids)].mean(axis=0)
            f_y = float(w @ mean(ids_y))
            loss, coeff, d_w = 0.0, np.zeros(len(vocab)), np.zeros(config.dim)
            for ids_j in ids_negs:
                slack = 1.0 - f_y + float(w @ mean(ids_j))
                if slack <= 0.0:
                    continue
                loss += slack
                d_w += mean(ids_j) - mean(ids_y)
                np.add.at(coeff, ids_j, 1.0 / len(ids_j))
                np.add.at(coeff, ids_y, -1.0 / len(ids_y))
            grads = {"emb": np.outer(coeff, w), "w": d_w}
            t += 1
            for k, p in params.items():
                m[k] = beta1 * m[k] + (1.0 - beta1) * grads[k]
                v[k] = beta2 * v[k] + (1.0 - beta2) * grads[k] ** 2
                m_hat = m[k] / (1.0 - beta1 ** t)
                v_hat = v[k] / (1.0 - beta2 ** t)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)
            total += loss
        ref_losses.append(total / len(examples))
    return vocab, params, ref_losses


class TestTrainSelector:
    def test_zero_epochs_returns_initialized_model(self):
        corpus, examples = tiny_training_setup()
        config = SelectorTrainConfig(epochs=0, seed=11, dim=4)
        model, losses = train_selector(examples, corpus, config)
        assert losses == []
        assert not model.projection.any()
        assert np.all(np.abs(model.embeddings) < 0.1)

    def test_deterministic_under_seed(self):
        corpus, examples = tiny_training_setup()
        config = SelectorTrainConfig(epochs=3, seed=5, dim=4)
        m1, l1 = train_selector(examples, corpus, config)
        m2, l2 = train_selector(examples, corpus, config)
        assert l1 == l2
        assert np.array_equal(m1.embeddings, m2.embeddings)
        assert np.array_equal(m1.projection, m2.projection)

    def test_loss_decreases_on_learnable_task(self):
        corpus, examples = tiny_training_setup()
        config = SelectorTrainConfig(epochs=10, seed=3, dim=8)
        _, losses = train_selector(examples, corpus, config)
        assert losses[-1] < losses[0]

    def test_matches_textbook_dense_loop(self):
        corpus, examples = tiny_training_setup()
        config = SelectorTrainConfig(k=3, epochs=4, seed=7, dim=4, learning_rate=0.05)
        model, losses = train_selector(examples, corpus, config)
        vocab, params, ref_losses = textbook_selector_run(corpus, examples, config)
        assert model.vocab.tokens == vocab.tokens
        assert losses == ref_losses
        assert model.embeddings.tobytes() == params["emb"].tobytes()
        assert model.projection.tobytes() == params["w"].tobytes()

    def test_matches_textbook_dense_loop_through_skipped_writes(self, caplog):
        # long enough for the margins to be met and Adam to skip writes that
        # move nothing; the run keeps the textbook loop's bits all the same
        corpus, examples = tiny_training_setup()
        config = SelectorTrainConfig(k=3, epochs=200, seed=7, dim=4, learning_rate=0.05)
        with caplog.at_level(logging.INFO, logger="prototext.selector"):
            model, losses = train_selector(examples, corpus, config)
        _, params, ref_losses = textbook_selector_run(corpus, examples, config)
        assert losses == ref_losses
        assert model.embeddings.tobytes() == params["emb"].tobytes()
        assert model.projection.tobytes() == params["w"].tobytes()
        summary = re.fullmatch(
            r"selector: (\d+) of (\d+) Adam steps moved no parameter", caplog.messages[-1]
        )
        assert summary is not None
        assert 0 < int(summary[1]) < int(summary[2]) == config.epochs * len(examples)

    def test_insufficient_candidates_names_example(self):
        corpus, examples = tiny_training_setup(n_cands=3)
        config = SelectorTrainConfig(k=5, epochs=1, dim=4)
        with pytest.raises(InsufficientNegatives) as err:
            train_selector(examples, corpus, config)
        assert "0" in str(err.value)

    def test_empty_dataset_rejected(self):
        corpus, _ = tiny_training_setup(n_cands=3)
        with pytest.raises(InvalidConfig, match="at least one example"):
            train_selector([], corpus, SelectorTrainConfig(k=2, epochs=1, dim=4))


def scored_candidates(token_values, corpus_start=0):
    """Corpus + candidate set where sentence i is the single token ti."""
    sentences = [
        Sentence.from_text(corpus_start + i, tok) for i, tok in enumerate(token_values)
    ]
    cands = CandidateSet(0, tuple((s.id, 1.0) for s in sentences))
    return Corpus(sentences), cands


class TestSelectTopN:
    def test_top_two_by_score(self):
        model, t = token_score_model({"r1": 0.9, "r2": 0.1, "r3": 0.5})
        corpus, cands = scored_candidates(["r1", "r2", "r3"])
        chosen = select_top_n(model, t, cands, corpus, 2)
        assert chosen.ids() == [0, 2]

    def test_n_larger_than_candidates(self):
        model, t = token_score_model({"r1": 0.9, "r2": 0.1})
        corpus, cands = scored_candidates(["r1", "r2"])
        chosen = select_top_n(model, t, cands, corpus, 10)
        assert chosen.ids() == [0, 1]
        assert len(chosen) == 2

    def test_ties_break_to_lower_id(self):
        model, t = token_score_model({"r1": 0.4})
        corpus, cands = scored_candidates(["r1", "r1", "r1"])
        chosen = select_top_n(model, t, cands, corpus, 2)
        assert chosen.ids() == [0, 1]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bruteforce_subset_argmax(self, seed):
        rng = np.random.default_rng(200 + seed)
        n_cands = int(rng.integers(2, 9))
        n = int(rng.integers(1, 5))
        values = {f"c{i}": float(rng.normal()) for i in range(n_cands)}
        model, t = token_score_model(values)
        corpus, cands = scored_candidates(list(values))
        got = select_top_n(model, t, cands, corpus, n)

        size = min(n, n_cands)
        best_ids, best_total = None, -np.inf
        for combo in itertools.combinations(cands.entries, size):
            total = sum(
                score_pair(model, t, corpus.get(sid).tokens) for sid, _ in combo
            )
            if total > best_total:
                best_total, best_ids = total, {sid for sid, _ in combo}
        assert set(got.ids()) == best_ids
        scores = [s for _, s in got.entries]
        assert scores == sorted(scores, reverse=True)

    @settings(deadline=None, max_examples=80)
    @given(st.data())
    def test_entry_scores_are_score_pair_bits(self, data):
        # texts of known, repeated and unknown words, and ones that tokenize to nothing
        words = st.sampled_from(["a", "b", "c", "d", "oov", "zz", "...", "a"])
        texts = data.draw(st.lists(st.lists(words, max_size=8).map(" ".join), min_size=1,
                                   max_size=12))
        cells = st.sampled_from(["a", "b b", "oov a"])
        pairs = data.draw(st.lists(st.tuples(cells, cells), min_size=1, max_size=3))
        vocab = Vocabulary.build([["a", "b", "c", "d"]])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        dim = data.draw(st.integers(1, 40))
        emb, w = rng.normal(size=(len(vocab), dim)), rng.normal(size=dim)
        model, t = model_with(vocab, emb, w), table_of(*pairs)
        sentences = [Sentence.from_text(i, text) for i, text in enumerate(texts)]
        corpus = Corpus(sentences)
        cands = CandidateSet(0, tuple((s.id, 1.0) for s in sentences))
        got = select_top_n(model, t, cands, corpus, len(sentences))
        assert len(got) == len(sentences)
        for sid, score in got.entries:
            assert score == score_pair(model, t, corpus.get(sid).tokens)


class TestAugmentedDataset:
    def test_records_align_with_examples(self):
        corpus, examples = tiny_training_setup()
        exs = [Example(i, t, ref) for i, (t, ref, _) in enumerate(examples)]
        index = build_index(corpus)
        config = SelectorTrainConfig(epochs=1, seed=1, dim=4)
        model, _ = train_selector(examples, corpus, config)
        cands = {}
        for ex in exs:
            retrieved = retrieve(index, ex.table, 10, table_id=ex.id)
            cands[ex.id] = filter_leakage(retrieved, corpus, ex.reference)
        records = select_prototypes(exs, cands, corpus, 3, model)
        assert len(records) == len(exs)
        assert any(rec.prototype_ids for rec in records)
        for rec, ex in zip(records, exs):
            assert rec.table_id == ex.id
            assert rec.reference == ex.reference
            assert len(rec.prototype_ids) <= 3
            assert rec.prototype_ids == tuple(
                select_top_n(model, ex.table, cands[ex.id], corpus, 3).ids()
            )
            assert rec.prototypes == tuple(corpus.get(sid).text for sid in rec.prototype_ids)

    def test_zero_candidates_give_empty_prototypes(self):
        corpus = Corpus([Sentence.from_text(0, "completely unrelated words")])
        index = build_index(corpus)
        vocab = Vocabulary.build([["qq"]])
        model = model_with(vocab, np.zeros((len(vocab), 2)), np.zeros(2))
        ex = Example(0, table_of(("name", "zzz")), "zzz sentence")
        other = Example(1, table_of(("name", "yyy")), "yyy sentence")
        cands = {0: retrieve(index, ex.table, 5, table_id=0)}
        assert len(cands[0]) == 0
        records = select_prototypes([ex, other], cands, corpus, 3, model)
        for rec in records:
            assert rec.prototype_ids == ()
            assert rec.prototypes == ()

    def test_no_model_keeps_bm25_order_cut_to_n(self):
        corpus, examples = tiny_training_setup(n_examples=2, n_cands=6)
        exs = [Example(i, t, ref) for i, (t, ref, _) in enumerate(examples)]
        cands = {i: c for i, (_, _, c) in enumerate(examples)}
        records = select_prototypes(exs, cands, corpus, 4)
        for rec in records:
            assert rec.prototype_ids == tuple(cands[rec.table_id].ids()[:4])
        assert [r.prototype_ids for r in select_prototypes(exs, cands, corpus, 0)] == [(), ()]
        with pytest.raises(InvalidConfig):
            select_prototypes(exs, cands, corpus, -1)


class TestReadAugmentedDataset:
    def test_prototype_count_mismatch_rejected(self, tmp_path):
        ex = Example(0, table_of(("name", "x")), "x ref")
        path = tmp_path / "augmented.jsonl"
        record = {"table_id": 0, "prototype_ids": [1, 2], "prototypes": ["only one"],
                  "reference": "x ref"}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1: 2 prototype_ids but 1 prototypes"):
            read_augmented_dataset(path, [ex])


class TestSelectorPersistence:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        model, t, reference, negatives = random_selector_setup(rng)
        path = tmp_path / "selector.json"
        save_selector(path, model)
        loaded = load_selector(path)
        assert loaded.embeddings.tobytes() == model.embeddings.tobytes()
        assert loaded.projection.tobytes() == model.projection.tobytes()
        assert loaded.vocab.tokens == model.vocab.tokens
        for sent in negatives:
            assert score_pair(loaded, t, sent) == score_pair(model, t, sent)
