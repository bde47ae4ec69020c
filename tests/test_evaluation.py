import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prototext.errors import AllTies, InvalidInput
from prototext.evaluation import (
    EvalReport,
    bleu4,
    evaluate_pairs,
    precision_at_k,
    rouge4_f,
    sign_test,
)


class TestBleu4:
    def test_identity_scores_one(self):
        assert bleu4([["a", "b", "c", "d"]], [["a", "b", "c", "d"]]) == pytest.approx(1.0)

    def test_five_token_hand_value(self):
        # p1..p4 = 4/5, 3/4, 2/3, 1/2 -> product 0.2; BP = 1 since the
        # hypothesis is longer than the reference.
        hyp = [["a", "b", "c", "d", "e"]]
        ref = [["a", "b", "c", "d"]]
        assert bleu4(hyp, ref) == pytest.approx(0.2 ** 0.25, abs=1e-9)

    def test_zero_when_no_fourgram_overlap(self):
        assert bleu4([["a", "b", "c", "x", "e"]], [["a", "b", "c", "d", "e"]]) == 0.0

    def test_brevity_penalty_applies(self):
        hyp = [["a", "b", "c", "d"]]
        ref = [["a", "b", "c", "d", "e", "f", "g", "h"]]
        # pooled precisions are all 1; BP = exp(1 - 8/4)
        assert bleu4(hyp, ref) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            bleu4([["a"]], [])

    def test_empty_hypotheses_score_zero(self):
        assert bleu4([[]], [["a", "b", "c", "d"]]) == 0.0

    def test_corpus_order_invariance(self):
        a = (["a", "b", "c", "d", "e"], ["a", "b", "c", "d"])
        b = (["x", "y", "z", "w"], ["x", "y", "z", "w", "v"])
        assert bleu4([a[0], b[0]], [a[1], b[1]]) == bleu4([b[0], a[0]], [b[1], a[1]])

    def test_appending_identical_pair_keeps_perfect_score(self):
        hyp = [["a", "b", "c", "d"]]
        ref = [["a", "b", "c", "d"]]
        assert bleu4(hyp, ref) == pytest.approx(1.0)
        assert bleu4(hyp + [["e", "f", "g", "h"]], ref + [["e", "f", "g", "h"]]) == pytest.approx(1.0)


class TestRouge4:
    def test_identity(self):
        assert rouge4_f(list("abcde"), list("abcde")) == pytest.approx(1.0)

    def test_hand_value_two_thirds(self):
        # hyp has 2 4-grams, 1 overlaps; ref has 1 4-gram -> P=1/2, R=1.
        assert rouge4_f(list("abcde"), list("abcd")) == pytest.approx(2 / 3, abs=1e-9)

    def test_short_hypothesis_scores_zero(self):
        assert rouge4_f(list("abc"), list("abcdef")) == 0.0

    def test_no_overlap_scores_zero(self):
        assert rouge4_f(list("abcd"), list("wxyz")) == 0.0


@given(st.lists(st.sampled_from("abcdef"), min_size=4, max_size=20))
def test_rouge_self_similarity_is_one(tokens):
    assert rouge4_f(tokens, tokens) == pytest.approx(1.0)


class TestPrecisionAtK:
    def test_all_relevant(self):
        assert precision_at_k([1, 2, 3], {1, 2, 3, 4}, 3) == 1.0

    def test_no_overlap(self):
        assert precision_at_k([1, 2, 3], {7, 8}, 3) == 0.0

    def test_partial(self):
        assert precision_at_k([1, 2, 3], {1, 3}, 3) == pytest.approx(2 / 3)

    def test_short_selection_still_divides_by_k(self):
        assert precision_at_k([1], {1}, 3) == pytest.approx(1 / 3)


class TestSignTest:
    def test_ten_wins(self):
        a = [1.0] * 10
        b = [0.0] * 10
        assert sign_test(a, b) == pytest.approx(2 * 0.5 ** 10, abs=1e-15)

    def test_nine_wins_one_loss(self):
        a = [1.0] * 9 + [0.0]
        b = [0.0] * 9 + [1.0]
        assert sign_test(a, b) == pytest.approx(22 / 1024, abs=1e-12)

    def test_even_split_capped_at_one(self):
        a = [1.0] * 5 + [0.0] * 5
        b = [0.0] * 5 + [1.0] * 5
        assert sign_test(a, b) == 1.0

    def test_ties_are_dropped(self):
        a = [1.0, 1.0, 0.5, 0.5]
        b = [0.0, 0.0, 0.5, 0.5]
        assert sign_test(a, b) == pytest.approx(sign_test([1.0, 1.0], [0.0, 0.0]))

    def test_all_ties_rejected(self):
        with pytest.raises(AllTies):
            sign_test([0.5, 0.5], [0.5, 0.5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            sign_test([1.0], [1.0, 2.0])

    @given(
        st.lists(
            st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
            min_size=1,
            max_size=30,
        )
    )
    def test_two_sided_symmetry(self, pairs):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        if all(x == y for x, y in pairs):
            return
        assert sign_test(a, b) == pytest.approx(sign_test(b, a), abs=1e-15)


class TestEvaluatePairs:
    def test_report_shape(self):
        hyps = [list("abcde"), list("wxyz")]
        refs = [list("abcd"), list("wxyz")]
        report = evaluate_pairs(hyps, refs)
        assert report.pair_count == 2
        assert report.per_example_rouge4 == (pytest.approx(2 / 3), pytest.approx(1.0))
        assert report.rouge4_f == pytest.approx((2 / 3 + 1.0) / 2)
        assert 0.0 <= report.bleu4 <= 1.0

    def test_mean_and_count_follow_from_per_example_scores(self):
        report = EvalReport(0.5, (0.25, 0.75))
        assert (report.rouge4_f, report.pair_count) == (0.5, 2)
        assert (EvalReport(0.0, ()).rouge4_f, EvalReport(0.0, ()).pair_count) == (0.0, 0)
