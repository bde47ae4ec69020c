import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdcheck import central_diff, max_rel_error
from prototext import generator
from prototext.errors import InputTooLong, InvalidConfig, InvalidInput
from prototext.generator import (
    ConditioningInput,
    GeneratorTrainConfig,
    StepBuffers,
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
from prototext.tokenization import SEP, tokenize
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

        ids = [1, 2, 3, vocab.id("w4")]
        logits, _ = _forward(model.params, ids, len(ids))
        early = np.exp(_log_softmax(logits[2:3]))[0]
        np.testing.assert_array_equal(short, early)
        assert longer.shape == short.shape
        # every shorter forward reproduces the leading rows, down to one row
        for n in (1, 2, 3):
            prefix, _ = _forward(model.params, ids[:n], n)
            np.testing.assert_allclose(prefix, logits[:n], rtol=0, atol=1e-12)
        # the block over the last r rows reproduces the full forward's last r
        for r in range(1, len(ids) + 1):
            last, _ = _forward(model.params, ids, r)
            assert last.shape == (r, len(vocab))
            np.testing.assert_allclose(last, logits[-r:], rtol=0, atol=1e-12)

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


def full_width_loss_and_grads(model, x_ids, y_ids, negative_ids, include_lm, include_ca):
    """loss_and_grads with the block on every row: the target rows sliced
    out of the full logits, and a full-width ``d_logits`` that is zero
    outside them."""
    ids = list(x_ids) + list(y_ids)
    logits, cache = generator._forward(model.params, ids, len(ids))
    first = len(x_ids) - 1
    logp = generator._log_softmax(logits[first : first + len(y_ids)])
    probs = np.exp(logp)
    targets = np.asarray(y_ids)
    lm = float(-logp[np.arange(len(y_ids)), targets].sum())
    neg = sorted(set(negative_ids))
    ca = 0.0
    if neg:
        ca = float(-np.log(np.maximum(1.0 - probs[:, neg], generator.CA_CLAMP)).sum())
    d_rows = np.zeros_like(probs)
    if include_lm:
        d_rows += probs
        d_rows[np.arange(len(targets)), targets] -= 1.0
    if include_ca and neg:
        one_minus = 1.0 - probs[:, neg]
        coef = np.where(one_minus > generator.CA_CLAMP, probs[:, neg] / one_minus, 0.0)
        d_rows[:, neg] += coef
        d_rows -= probs * coef.sum(axis=1, keepdims=True)
    d_logits = np.zeros_like(logits)
    d_logits[first : first + len(y_ids)] = d_rows
    return lm, ca, generator._backward(model.params, cache, d_logits)


@st.composite
def training_cases(draw):
    """(n_content, max_context, dim, seed, x_ids, y_ids, negative_ids) with
    ``len(x_ids) + len(y_ids) <= max_context``."""
    n_content = draw(st.integers(1, 10))
    max_context = draw(st.integers(2, 24))
    v = len(plain_vocab(n_content))
    n_x = draw(st.integers(1, max_context - 1))
    n_y = draw(st.integers(1, max_context - n_x))
    ids = st.integers(0, v - 1)
    return (
        n_content,
        max_context,
        draw(st.integers(1, 8)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.lists(ids, min_size=n_x, max_size=n_x)),
        draw(st.lists(ids, min_size=n_y, max_size=n_y)),
        draw(st.lists(ids, max_size=v, unique=True)),
    )


class TestTargetRowsMatchFullWidth:
    """Training runs the block on the last len(y) + 1 rows only; its losses
    and gradients match the full-width computation within 1e-12 of each
    gradient group's largest entry."""

    @pytest.mark.parametrize("component", ["lm", "ca", "total"])
    @settings(deadline=None, max_examples=60)
    @given(case=training_cases())
    @example(case=(3, 8, 4, 0, [0, 6, 7], [8], [6, 3]))  # len(y) == 1
    @example(case=(3, 8, 4, 1, [0, 6, 7, 8, 1], [6, 7, 2], [8, 3]))  # x + y fills max_context
    def test_loss_and_grads_match_full_width(self, component, case):
        n_content, max_context, dim, seed, x_ids, y_ids, neg = case
        config = small_config(dim=dim, max_context=max_context)
        model = randomized_model(plain_vocab(n_content), config, seed=seed)
        include = dict(include_lm=component != "ca", include_ca=component != "lm")
        lm, ca, grads = loss_and_grads(model, x_ids, y_ids, neg, **include)
        ref_lm, ref_ca, ref_grads = full_width_loss_and_grads(model, x_ids, y_ids, neg, **include)
        assert lm == pytest.approx(ref_lm, rel=1e-12)
        assert ca == pytest.approx(ref_ca, rel=1e-12)
        assert grads.keys() == ref_grads.keys()
        for key, ref in ref_grads.items():
            assert grads[key].shape == ref.shape
            gap = np.max(np.abs(grads[key] - ref))
            assert gap <= 1e-12 * np.max(np.abs(ref)), f"{component}/{key}: gap {gap}"


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

    def test_every_record_skipped_returns_the_initial_model(self, caplog):
        records = make_records(["ada", "bob"], n=2)
        records = [
            AugmentedRecord(r.table_id, r.table, (), (), " ".join(["word"] * 40)) for r in records
        ]
        config = small_config(epochs=2, max_context=32)
        vocab = vocab_of(records)
        with caplog.at_level(logging.WARNING, logger="prototext.generator"):
            model, losses = train_generator(records, config, vocab)
        assert losses == []
        assert "no trainable records" in caplog.text
        initial = init_generator(vocab, config)
        assert model.vocab == vocab
        for key, value in initial.params.items():
            assert np.array_equal(model.params[key], value), key


def trained_inputs(records, config):
    """The (x_ids, y_ids) of every training step of ``train_generator``, and its losses."""
    seen = []
    real = generator.loss_and_grads

    def recording(model, x_ids, y_ids, *args):
        seen.append((list(x_ids), list(y_ids)))
        return real(model, x_ids, y_ids, *args)

    # train_generator reaches loss_and_grads through the module global
    with mock.patch.object(generator, "loss_and_grads", recording):
        _, losses = train_generator(records, config, vocab_of(records))
    return seen, losses


def target_ids(vocab, record):
    return vocab.ids(tokenize(record.reference)) + [vocab.eos_id]


class TestTrainingLengthRule:
    def test_record_that_needs_clipping_trains_on_clipped_prototypes(self):
        record = AugmentedRecord(
            table_id=0,
            table=table_of(("name", "ada")),
            prototype_ids=(0,),
            prototypes=(" ".join(["word"] * 40),),
            reference="ada is a thing",
        )
        vocab = vocab_of([record])
        y_ids = target_ids(vocab, record)
        room = 32 - len(y_ids)
        expected = build_conditioning(record.table, [tokenize(record.prototypes[0])], vocab, room)
        assert len(expected.ids) == room and len(expected.prototype_spans) == 1
        seen, losses = trained_inputs([record], small_config(epochs=1, max_context=32))
        assert len(losses) == 1
        assert seen == [(list(expected.ids), y_ids)]

    def test_record_whose_table_and_target_overflow_is_skipped(self, caplog):
        records = make_records(["ada", "bob"], n=2)
        table = table_of(("name", "eve"))
        words = 32 - (1 + len(table.tokens))
        # <bos>, the table and the target need 33 positions in record 99 and 32 in record 7
        for table_id, n_words in ((99, words), (7, words - 1)):
            records.append(
                AugmentedRecord(
                    table_id=table_id,
                    table=table,
                    prototype_ids=(table_id,),
                    prototypes=("eve is one fine thing",),
                    reference=" ".join(["word"] * n_words),
                )
            )
        vocab = vocab_of(records)
        with caplog.at_level(logging.WARNING, logger="prototext.generator"):
            seen, losses = trained_inputs(records, small_config(epochs=1, max_context=32))
        assert "skipping record 99" in caplog.text
        assert "skipping record 7" not in caplog.text
        assert len(losses) == 1
        trained = sorted(y for _, y in seen)
        assert trained == sorted(target_ids(vocab, r) for r in records if r.table_id != 99)
        fitting = [x for x, y in seen if y == target_ids(vocab, records[-1])]
        assert fitting == [[vocab.bos_id] + vocab.ids(table.tokens)]

    def test_table_that_alone_overflows_is_input_too_long(self):
        records = make_records(["ada", "bob"], n=2)
        vocab = vocab_of(records)
        with pytest.raises(InputTooLong):
            train_generator(records, small_config(max_context=len(records[0].table.tokens)), vocab)


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

    @pytest.mark.parametrize("max_len", [0, -5])
    def test_decode_len_below_one_rejected(self, max_len):
        with pytest.raises(InvalidConfig, match=f"max_len must be an int >= 1, got {max_len}"):
            decode_greedy(tiny_uniform_model(), bare_cond(0), max_len=max_len)

    def test_empty_conditioning_rejected(self):
        with pytest.raises(InvalidInput, match="at least one id"):
            ConditioningInput(ids=(), table_len=0, prototype_spans=())

    @pytest.mark.parametrize("max_len", [2.5, True])
    def test_decode_len_not_an_int_rejected(self, max_len):
        with pytest.raises(InvalidConfig, match="max_len must be an int"):
            decode_greedy(tiny_uniform_model(), bare_cond(0), max_len=max_len)

    @pytest.mark.parametrize("bad_id", [-1, 16, 99, "a", True])
    def test_conditioning_id_outside_vocabulary_rejected(self, bad_id):
        model = randomized_model(plain_vocab(10), small_config(), seed=3)
        assert len(model.vocab) == 16
        cond = bare_cond(1, bad_id)
        with pytest.raises(InvalidInput, match=r"not a vocabulary id in \[0, 16\)"):
            decode_greedy(model, cond, max_len=4)
        with pytest.raises(InvalidInput, match=r"not a vocabulary id in \[0, 16\)"):
            next_token_dist(model, cond, [])


# Cached and full-forward logits differ only by BLAS summation order
# (single-row vs. matrix products); 5.0e-14 was the largest gap measured
# over the desk model's 700 generate requests at seeds 13 and 29, so
# float64 leaves ample room below this bound.
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
    """decode_greedy emits the reference tokens, runs the forward once and
    for one row only (the prefill), runs every later step's block on one
    1-D row, computes no softmax, every block it runs matches the full
    forward's last row, and the model is untouched."""
    before = {key: value.tobytes() for key, value in model.params.items()}
    step_rows = []
    block_ndims = []
    forward_rows = []
    real_block, real_forward = generator._block, generator._forward

    def recording_block(params, x0, k, v, *out):
        logits, cache = real_block(params, x0, k, v, *out)
        block_ndims.append(x0.ndim)
        step_rows.append(np.atleast_2d(logits)[-1].copy())
        return logits, cache

    def prefill_only_forward(params, ids, rows):
        forward_rows.append(rows)
        assert forward_rows == [1], f"decode_greedy ran the forward on rows {forward_rows}"
        return real_forward(params, ids, rows)

    def no_log_softmax(rows):
        raise AssertionError("decode_greedy computed a log-softmax")

    with mock.patch.object(generator, "_block", recording_block), mock.patch.object(
        generator, "_forward", prefill_only_forward
    ), mock.patch.object(generator, "_log_softmax", no_log_softmax):
        got = decode_greedy(model, cond, max_len)
    assert forward_rows == [1]
    # the prefill's block is the forward's (1, d) block; every later step a 1-D row
    assert block_ndims == [2] + [1] * (len(block_ndims) - 1)
    expected = reference_decode(model, cond, max_len)
    assert got == expected
    assert {key: value.tobytes() for key, value in model.params.items()} == before

    seq = list(cond.ids) + model.vocab.ids(got)
    assert len(step_rows) == min(len(got) + 1, max_len)
    for i, row in enumerate(step_rows):
        prefix = seq[: len(cond.ids) + i]
        full, _ = generator._forward(model.params, prefix, len(prefix))
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
    max_len = draw(st.integers(1, max_context - n_cond + 1))
    return model, bare_cond(*ids), max_len


class TestCachedDecodeEquivalence:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 8), st.integers(1, 24), st.integers(0, 2**32 - 1))
    def test_one_row_block_matches_one_row_matrix(self, dim, m, seed):
        model = randomized_model(plain_vocab(6), small_config(dim=dim, max_context=24), seed)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, (m, dim))
        k, v = x @ model.params["w_key"], x @ model.params["w_value"]
        row, _ = generator._block(model.params, x[-1], k, v)
        block, _ = generator._block(model.params, x[-1:], k, v)
        assert row.shape == (len(model.vocab),) and block.shape == (1, len(model.vocab))
        assert np.max(np.abs(row - block[0])) <= CACHED_LOGITS_ATOL

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

    @pytest.mark.parametrize("n_cond", [1, 20, 21])
    def test_conditioning_length_boundaries(self, n_cond):
        # 1: the prefill has one row; 21 + max_len - 1 == max_context: the
        # longest decode, which fills the last cache row
        model = randomized_model(plain_vocab(10), small_config(max_context=32), seed=2)
        cond = bare_cond(*[i % len(model.vocab) for i in range(n_cond)])
        max_len = 12
        out = assert_decode_matches_reference(model, cond, max_len)
        assert len(out) == max_len

    def test_one_id_conditioning_decodes_max_context_tokens(self):
        # len(cond) + max_len - 1 == max_context: the longest decode the
        # context allows is valid, though max_len == max_context
        model = randomized_model(plain_vocab(10), small_config(max_context=16), seed=2)
        assert len(assert_decode_matches_reference(model, bare_cond(1), 16)) <= 16

    def test_ties_go_to_the_lowest_id(self):
        # tok_emb = 0, pos_emb = 1 and zero residual branches make every
        # step's last hidden row all ones, so each logit is its w_out
        # column's sum; two all-ones columns tie exactly and dominate
        vocab = plain_vocab(6)
        model = randomized_model(vocab, small_config(max_context=16), seed=5)
        for key in ("w_attn_out", "w_ff_out", "tok_emb"):
            model.params[key][...] = 0.0
        model.params["pos_emb"][...] = 1.0
        low, high = vocab.id("w2"), vocab.id("w4")
        model.params["w_out"][:, [low, high]] = 1.0
        logits, _ = generator._forward(model.params, [1, 2, 3], 3)
        assert np.all(logits[:, low] == logits[:, high])
        assert np.all(logits[:, low] > np.delete(logits, [low, high], axis=1).max(axis=1))
        out = assert_decode_matches_reference(model, bare_cond(1, 2, 3), 5)
        assert out == ["w2"] * 5


class TestGenerateOutputs:
    @pytest.mark.parametrize("max_len", [0, 16, 20])
    def test_decode_len_outside_context_rejected(self, max_len):
        records = make_records(["ada", "bob", "cid", "dee"])
        model = randomized_model(vocab_of(records), small_config(max_context=16), seed=1)
        match = r"max_len must be in \[1, 15\]" if max_len else "max_len must be an int >= 1, got 0"
        with pytest.raises(InvalidConfig, match=match):
            generator.generate_outputs(model, records, max_len)

    @pytest.mark.parametrize("max_len", [2.5, True, "3"])
    def test_decode_len_not_an_int_rejected(self, max_len):
        with pytest.raises(InvalidConfig, match="max_len must be an int"):
            generator.check_decode_len(max_len, 16, "max_len")

    def test_logs_stop_reasons(self, caplog):
        records = make_records(["ada", "bob", "cid", "dee"])
        model = randomized_model(vocab_of(records), small_config(max_context=64), seed=1)
        lengths = iter([0, 4, 2, 4])
        # generate_outputs reaches decode_greedy through the module global
        with mock.patch.object(
            generator, "decode_greedy", lambda model, cond, max_len: ["ada"] * next(lengths)
        ), caplog.at_level(logging.INFO, logger="prototext.generator"):
            outputs = generator.generate_outputs(model, records, max_len=4)
        assert [len(tokens) for _, tokens in outputs] == [0, 4, 2, 4]
        assert "decoded 4 outputs: 2 stopped at <eos>, 2 at max_len 4" in caplog.text

    def test_conditioning_of_exactly_the_budget_is_not_clipped(self):
        records = make_records(["ada", "bob", "cid", "dee"])
        vocab = vocab_of(records)
        protos = [tokenize(p) for p in records[0].prototypes]
        n = len(build_conditioning(records[0].table, protos, vocab, 64))
        max_len = 4
        # the budget max_context - max_len + 1 is exactly the conditioning's length
        model = randomized_model(vocab, small_config(max_context=n + max_len - 1), seed=1)
        seen = []
        real_decode = generator.decode_greedy

        def recording_decode(model, cond, max_len):
            seen.append(cond)
            return real_decode(model, cond, max_len)

        with mock.patch.object(generator, "decode_greedy", recording_decode):
            outputs = generator.generate_outputs(model, records[:1], max_len=max_len)
        assert len(seen[0]) == n
        assert seen[0].ids == build_conditioning(records[0].table, protos, vocab, 64).ids
        assert outputs == [(0, real_decode(model, seen[0], max_len))]


def test_reused_buffers_give_the_bits_of_fresh_ones():
    """Held buffers, each filled with NaN whenever it is handed out and reused by
    a shorter sequence after a longer one, give the bits of fresh arrays: in
    both losses and every gradient. So no step reads what it did not write."""
    vocab = plain_vocab(12)
    model = randomized_model(vocab, small_config(), seed=3)
    held = StepBuffers()

    def stale(name, *shape):
        array = held(name, *shape)
        array.fill(np.nan)
        return array

    for x_ids, y_ids, neg in (([1, 2, 3, 4, 5, 6], [7, 8, 9], [10]), ([1, 2], [7], [])):
        lm, ca, fresh = loss_and_grads(model, x_ids, y_ids, neg, True, True)
        lm_held, ca_held, given = loss_and_grads(model, x_ids, y_ids, neg, True, True, stale)
        assert (lm_held, ca_held) == (lm, ca)
        for key in fresh:
            assert given[key].tobytes() == fresh[key].tobytes(), key


class TestGeneratorPersistence:
    def test_roundtrip_bit_identical(self, tmp_path):
        vocab = plain_vocab(12)
        model = randomized_model(vocab, small_config(), seed=6)
        path = tmp_path / "generator.json"
        save_generator(path, model)
        loaded = load_generator(path)
        for key in model.params:
            assert loaded.params[key].tobytes() == model.params[key].tobytes()
        x_ids = [1, 2, 3]
        y_ids = [7, 8]
        assert losses_from_ids(loaded, x_ids, y_ids, [9]) == losses_from_ids(
            model, x_ids, y_ids, [9]
        )
