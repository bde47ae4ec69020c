import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcheck import central_diff, max_rel_error
from prototext import generator
from prototext.errors import InputTooLong, InvalidConfig
from prototext.generator import (
    ConditioningInput,
    GeneratorTrainConfig,
    build_conditioning,
    ca_loss,
    component_loss_and_grads,
    decode_greedy,
    init_generator,
    lm_loss,
    load_generator,
    loss_and_grads,
    losses_from_ids,
    negative_token_ids,
    next_token_dist,
    save_generator,
    train_generator,
)
from prototext.selector import AugmentedRecord, shared_vocabulary
from prototext.tabledata import Corpus, Example, Sentence, Table
from prototext.tokenization import SEP
from prototext.vocab import Vocabulary


def table_of(*pairs):
    return Table.from_pairs(pairs)


def small_config(**kw):
    defaults = dict(dim=8, max_context=16, epochs=2, seed=0, max_decode_len=8)
    defaults.update(kw)
    return GeneratorTrainConfig(**defaults)


def randomized_model(vocab, config, seed):
    """Model with every group (including the output projection) random."""
    model = init_generator(vocab, config)
    rng = np.random.default_rng(seed)
    model.params["w_out"][...] = rng.uniform(-0.5, 0.5, model.params["w_out"].shape)
    for key in ("w_query", "w_key", "w_value", "w_attn_out", "w_ff_in", "w_ff_out"):
        model.params[key][...] = rng.uniform(-0.5, 0.5, model.params[key].shape)
    return model


def plain_vocab(n_content):
    return Vocabulary.build([[f"w{i}" for i in range(n_content)]])


def tiny_uniform_model(tokens=("a", "b", "c")):
    """Fresh model over a bare vocabulary; w_out = 0 gives uniform output."""
    vocab = Vocabulary.from_tokens(tokens)
    config = GeneratorTrainConfig(dim=4, max_context=8, seed=1)
    return init_generator(vocab, config)


def bare_cond(*ids):
    return ConditioningInput(ids=tuple(ids), table_len=0, prototype_spans=())


class TestBuildConditioning:
    def test_empty_prototypes(self):
        vocab = Vocabulary.build([["ada", "name"]])
        cond = build_conditioning(table_of(("name", "ada")), [], vocab, max_len=32)
        assert cond.ids == (vocab.bos_id, vocab.id("name"), vocab.id(":"), vocab.id("ada"))
        assert cond.prototype_spans == ()

    def test_two_prototypes_have_two_separators(self):
        vocab = Vocabulary.build([["ada", "name", "p", "q"]])
        cond = build_conditioning(
            table_of(("name", "ada")), [["p"], ["q", "q"]], vocab, max_len=32
        )
        assert list(cond.ids).count(vocab.sep_id) == 2
        assert len(cond.prototype_spans) == 2

    def test_truncation_keeps_table(self):
        vocab = Vocabulary.build([["ada", "name", "p"]])
        t = table_of(("name", "ada"))
        cond = build_conditioning(t, [["p"] * 50], vocab, max_len=10)
        assert len(cond.ids) == 10
        table_part = cond.ids[: 1 + cond.table_len]
        expected = build_conditioning(t, [], vocab, max_len=10).ids
        assert table_part == expected

    def test_table_alone_too_long(self):
        vocab = Vocabulary.build([["ada", "name"]])
        with pytest.raises(InputTooLong):
            build_conditioning(table_of(("name", "ada ada ada ada")), [], vocab, max_len=4)


class TestNextTokenDist:
    def test_fresh_model_is_uniform(self):
        model = tiny_uniform_model(("a", "b", "c"))
        dist = next_token_dist(model, bare_cond(0), [])
        np.testing.assert_allclose(dist, [1 / 3] * 3, atol=1e-12)

    def test_sums_to_one_for_random_models(self):
        vocab = plain_vocab(14)
        config = small_config()
        for seed in range(5):
            model = randomized_model(vocab, config, seed)
            dist = next_token_dist(model, bare_cond(1, 2, 3), ["w1", "w5"])
            assert abs(dist.sum() - 1.0) < 1e-9
            assert np.all(dist > 0) and np.all(dist < 1)

    def test_causality_under_appended_tokens(self):
        vocab = plain_vocab(10)
        model = randomized_model(vocab, small_config(), seed=3)
        short = next_token_dist(model, bare_cond(1, 2, 3), [])
        longer = next_token_dist(model, bare_cond(1, 2, 3), ["w4"])
        # recompute the position-3 distribution from the longer run
        from prototext.generator import _forward, _log_softmax

        logits, _ = _forward(model.params, [1, 2, 3, vocab.id("w4")])
        early = np.exp(_log_softmax(logits[2:3]))[0]
        np.testing.assert_array_equal(short, early)
        assert longer.shape == short.shape

    def test_length_overflow(self):
        model = tiny_uniform_model()
        with pytest.raises(InputTooLong):
            next_token_dist(model, bare_cond(*[0] * 8), ["a"])


class TestLmLoss:
    def test_uniform_model_hand_value(self):
        model = tiny_uniform_model(("a", "b", "c"))
        loss = lm_loss(model, bare_cond(0), ["a", "b"])
        assert loss == pytest.approx(-2.0 * math.log(1.0 / 3.0), abs=1e-9)

    def test_confident_model_loss_near_zero(self):
        vocab = Vocabulary.from_tokens(("a", "b"))
        model = tiny_uniform_model(("a", "b"))
        # zero the residual branches so x2 == tok+pos, then spike column a
        model.params["w_attn_out"][...] = 0.0
        model.params["w_ff_out"][...] = 0.0
        model.params["tok_emb"][...] = 0.0
        model.params["pos_emb"][...] = 1.0
        model.params["w_out"][:, vocab.id("a")] = 20.0
        loss = lm_loss(model, bare_cond(1), ["a", "a"])
        assert loss < 1e-3

    def test_loss_depends_only_on_ids(self):
        model = tiny_uniform_model(("a", "b", "c"))
        c1 = ConditioningInput(ids=(0, 1), table_len=1, prototype_spans=())
        c2 = ConditioningInput(ids=(0, 1), table_len=0, prototype_spans=((1, 2),))
        assert lm_loss(model, c1, ["a"]) == lm_loss(model, c2, ["a"])


class TestCaLoss:
    def test_uniform_model_hand_value(self):
        model = tiny_uniform_model(("a", "b", "c"))
        loss = ca_loss(model, bare_cond(0), ["a", "b"], [["a", "c"]])
        assert loss == pytest.approx(-2.0 * math.log(2.0 / 3.0), abs=1e-9)

    def test_zero_when_prototypes_covered_by_reference(self):
        vocab = plain_vocab(10)
        model = randomized_model(vocab, small_config(), seed=1)
        loss = ca_loss(model, bare_cond(1, 2), ["w1", "w2", "w3"], [["w1", "w3"], ["w2"]])
        assert loss == 0.0

    def test_zero_without_prototypes(self):
        model = tiny_uniform_model()
        assert ca_loss(model, bare_cond(0), ["a"], []) == 0.0

    def test_reserved_tokens_never_penalized(self):
        vocab = plain_vocab(4)
        neg = negative_token_ids(vocab, ["w0"], [["w1", SEP, "totally-oov"]])
        assert vocab.sep_id not in neg
        assert vocab.unk_id not in neg
        assert neg == [vocab.id("w1")]

    def test_strictly_decreases_when_negative_prob_drops(self):
        vocab = Vocabulary.from_tokens(("a", "b", "c"))
        config = GeneratorTrainConfig(dim=4, max_context=8, seed=2)
        model = randomized_model(vocab, config, seed=5)
        before = ca_loss(model, bare_cond(0), ["a"], [["c"]])
        # push the logit of the lone negative token down, all else fixed
        model.params["w_out"][:, vocab.id("c")] -= 1.0
        model.params["tok_emb"][...] += 0.0
        after = ca_loss(model, bare_cond(0), ["a"], [["c"]])
        assert after < before


def total_loss(model, cond, y, prototypes, ca_enabled):
    """The training loss of one record, through loss_and_grads."""
    y_ids = model.vocab.ids(y)
    neg = negative_token_ids(model.vocab, y, prototypes)
    lm, ca, _ = loss_and_grads(model, cond.ids, y_ids, neg if ca_enabled else (), True, True)
    return lm + ca


class TestTotalLoss:
    def test_ca_disabled_equals_lm(self):
        vocab = plain_vocab(8)
        model = randomized_model(vocab, small_config(), seed=2)
        y = ["w1", "w2"]
        protos = [["w3", "w1"]]
        assert total_loss(model, bare_cond(1), y, protos, ca_enabled=False) == lm_loss(
            model, bare_cond(1), y
        )

    def test_uniform_model_sum_of_hand_values(self):
        model = tiny_uniform_model(("a", "b", "c"))
        got = total_loss(model, bare_cond(0), ["a", "b"], [["a", "c"]], ca_enabled=True)
        expected = -2.0 * math.log(1.0 / 3.0) - 2.0 * math.log(2.0 / 3.0)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_total_at_least_lm_and_decomposes(self):
        vocab = plain_vocab(12)
        for seed in range(4):
            model = randomized_model(vocab, small_config(), seed=seed)
            y = ["w1", "w2", "w7"]
            protos = [["w3", "w4"], ["w1", "w5"]]
            cond = bare_cond(2, 3, 4)
            lm = lm_loss(model, cond, y)
            ca = ca_loss(model, cond, y, protos)
            tot = total_loss(model, cond, y, protos, ca_enabled=True)
            assert tot >= lm
            assert abs(tot - (lm + ca)) < 1e-12


class TestGradients:
    @pytest.mark.parametrize("component", ["lm", "ca", "total"])
    def test_matches_finite_differences(self, component):
        vocab = plain_vocab(14)  # V = 20 with the reserved tokens
        config = GeneratorTrainConfig(dim=8, max_context=16, seed=4)
        model = randomized_model(vocab, config, seed=11)
        x_ids = [vocab.bos_id, 7, 8, 9, vocab.sep_id, 10]
        y_ids = [11, 12, 7, vocab.eos_id]
        neg = [13, 14, 15]
        include_lm = component in ("lm", "total")
        include_ca = component in ("ca", "total")

        def loss():
            lm, ca = losses_from_ids(model, x_ids, y_ids, neg)
            return (lm if include_lm else 0.0) + (ca if include_ca else 0.0)

        _, _, grads = component_loss_and_grads(
            model, x_ids, y_ids, neg, include_lm=include_lm, include_ca=include_ca
        )
        for key, param in model.params.items():
            fd = central_diff(loss, param)
            err = max_rel_error(grads[key], fd)
            assert err < 1e-4, f"{component}/{key}: rel error {err}"


def make_records(vocab_words, n=4):
    records = []
    for i in range(n):
        records.append(
            AugmentedRecord(
                table_id=i,
                table=table_of(("name", vocab_words[i]), ("kind", "thing")),
                prototype_ids=(i,),
                prototypes=(f"{vocab_words[i]} is one fine thing",),
                reference=f"{vocab_words[i]} is a thing",
            )
        )
    return records


def vocab_of(records):
    """The shared vocabulary of the records' tables and references, with their
    prototypes as the corpus."""
    corpus = Corpus(
        Sentence.from_text(sid, text)
        for rec in records
        for sid, text in zip(rec.prototype_ids, rec.prototypes)
    )
    return shared_vocabulary(corpus, [Example(r.table_id, r.table, r.reference) for r in records])


class TestTrainGenerator:
    def test_zero_epochs_returns_initialized_model(self):
        records = make_records(["ada", "bob", "cid", "dee"])
        config = small_config(epochs=0, max_context=64)
        model, losses = train_generator(records, config, vocab_of(records))
        assert losses == []
        assert not model.params["w_out"].any()

    def test_deterministic_under_seed(self):
        records = make_records(["ada", "bob", "cid", "dee"])
        config = small_config(epochs=2, max_context=64, seed=9)
        m1, l1 = train_generator(records, config, vocab_of(records))
        m2, l2 = train_generator(records, config, vocab_of(records))
        assert l1 == l2
        for key in m1.params:
            assert np.array_equal(m1.params[key], m2.params[key])

    def test_loss_decreases(self):
        records = make_records(["ada", "bob", "cid", "dee"])
        config = small_config(epochs=15, max_context=64, seed=2, dim=16)
        _, losses = train_generator(records, config, vocab_of(records))
        assert losses[-1] < losses[0]

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidConfig):
            train_generator([], small_config(), Vocabulary.build([]))

    def test_overlong_record_skipped_with_warning(self, caplog):
        records = make_records(["ada", "bob"], n=2)
        long_ref = " ".join(["word"] * 40)
        records.append(
            AugmentedRecord(
                table_id=99,
                table=table_of(("name", "eve")),
                prototype_ids=(),
                prototypes=(),
                reference=long_ref,
            )
        )
        config = small_config(epochs=1, max_context=32)
        with caplog.at_level(logging.WARNING):
            model, losses = train_generator(records, config, vocab_of(records))
        assert "99" in caplog.text
        assert len(losses) == 1


class TestDecodeGreedy:
    def test_immediate_eos_gives_empty_output(self):
        vocab = plain_vocab(3)
        model = tiny_uniform_model(vocab.tokens)
        model.params["w_attn_out"][...] = 0.0
        model.params["w_ff_out"][...] = 0.0
        model.params["tok_emb"][...] = 0.0
        model.params["pos_emb"][...] = 1.0
        model.params["w_out"][:, vocab.eos_id] = 10.0
        assert decode_greedy(model, bare_cond(0), max_len=5) == []

    def test_deterministic_and_bounded(self):
        vocab = plain_vocab(10)
        model = randomized_model(vocab, small_config(max_context=32), seed=8)
        cond = bare_cond(1, 2, 3)
        out1 = decode_greedy(model, cond, max_len=6)
        out2 = decode_greedy(model, cond, max_len=6)
        assert out1 == out2
        assert len(out1) <= 6

    def test_budget_overflow_rejected(self):
        model = tiny_uniform_model()
        with pytest.raises(InputTooLong):
            decode_greedy(model, bare_cond(*[0] * 10), max_len=10)


# Cached and full-forward logits differ only by BLAS summation order
# (single-row vs. matrix products); 3.6e-14 was the largest gap measured
# on the desk model, so float64 leaves ample room below this bound.
CACHED_LOGITS_ATOL = 1e-12


def reference_decode(model, cond, max_len):
    """Greedy decoding with a full forward over the whole prefix per token."""
    out = []
    for _ in range(max_len):
        nxt = int(np.argmax(next_token_dist(model, cond, out)))
        if nxt == model.vocab.eos_id:
            break
        out.append(model.vocab.tokens[nxt])
    return out


def assert_decode_matches_reference(model, cond, max_len):
    """decode_greedy emits the reference tokens, every forward it runs
    matches the full forward's last row, and the model is untouched."""
    before = {key: value.tobytes() for key, value in model.params.items()}
    step_rows = []
    real_forward = generator._forward

    def recording_forward(params, ids, kv=None, start=0):
        logits, cache = real_forward(params, ids, kv, start)
        step_rows.append(logits[-1].copy())
        return logits, cache

    with mock.patch.object(generator, "_forward", recording_forward):
        got = decode_greedy(model, cond, max_len)
    expected = reference_decode(model, cond, max_len)
    assert got == expected
    assert {key: value.tobytes() for key, value in model.params.items()} == before

    seq = list(cond.ids) + model.vocab.ids(got)
    assert len(step_rows) == min(len(got) + 1, max_len)
    for i, row in enumerate(step_rows):
        full, _ = real_forward(model.params, seq[: len(cond.ids) + i])
        assert np.max(np.abs(row - full[-1])) <= CACHED_LOGITS_ATOL
    return expected


@st.composite
def decode_cases(draw):
    n_content = draw(st.integers(1, 10))
    max_context = draw(st.integers(2, 24))
    config = small_config(dim=draw(st.integers(1, 8)), max_context=max_context)
    model = randomized_model(plain_vocab(n_content), config, seed=draw(st.integers(0, 2**32 - 1)))
    n_cond = draw(st.integers(1, max_context - 1))
    ids = draw(st.lists(st.integers(0, len(model.vocab) - 1), min_size=n_cond, max_size=n_cond))
    max_len = draw(st.integers(1, max_context - n_cond))
    return model, bare_cond(*ids), max_len


class TestCachedDecodeEquivalence:
    @settings(deadline=None, max_examples=60)
    @given(decode_cases())
    def test_matches_full_forward_decoder(self, case):
        assert_decode_matches_reference(*case)

    @pytest.mark.parametrize("seed, stops_at_eos", [(4, True), (2, False)])
    def test_both_stop_reasons_covered(self, seed, stops_at_eos):
        vocab = plain_vocab(10)
        model = randomized_model(vocab, small_config(max_context=32), seed=seed)
        max_len = 12
        out = assert_decode_matches_reference(model, bare_cond(1, 2, 3), max_len)
        assert (len(out) < max_len) == stops_at_eos


class TestGeneratorPersistence:
    def test_roundtrip_bit_identical(self, tmp_path):
        vocab = plain_vocab(12)
        model = randomized_model(vocab, small_config(), seed=6)
        path = tmp_path / "generator.json"
        save_generator(path, model)
        loaded = load_generator(path)
        for key in model.params:
            assert np.array_equal(loaded.params[key], model.params[key])
        x_ids = [1, 2, 3]
        y_ids = [7, 8]
        assert losses_from_ids(loaded, x_ids, y_ids, [9]) == losses_from_ids(
            model, x_ids, y_ids, [9]
        )
