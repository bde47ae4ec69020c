"""Metrics: corpus BLEU-4, ROUGE-4 F-measure, precision@k, sign test.

All functions operate on token sequences (use the shared tokenizer to
produce them) and are pure. The variants implemented are the simplest
exactly-specifiable ones:

* BLEU-4: modified n-gram precisions pooled over the corpus, geometric
  mean of p1..p4, brevity penalty ``min(1, exp(1 - r/c))``, no
  smoothing (any zero pooled precision gives a zero score).
* ROUGE-4: clipped 4-gram overlap F1 per example, no stemming; the
  corpus value is the arithmetic mean of per-example F.
* sign test: exact two-sided binomial on per-example wins/losses,
  ties dropped, p capped at 1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import AllTies, InvalidInput, check_int

TokenSeq = Sequence[str]


@dataclass(frozen=True)
class EvalReport:
    """Corpus metrics for one hypothesis set."""

    bleu4: float
    rouge4_f: float
    per_example_rouge4: tuple[float, ...]
    pair_count: int


def _ngrams(tokens: TokenSeq, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu4(hypotheses: Sequence[TokenSeq], references: Sequence[TokenSeq]) -> float:
    """Corpus-level BLEU-4 with a single reference per hypothesis."""
    if len(hypotheses) != len(references):
        raise InvalidInput(
            f"got {len(hypotheses)} hypotheses for {len(references)} references"
        )
    matches = [0] * 5
    totals = [0] * 5
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            hyp_counts = _ngrams(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngrams(ref, n)
            totals[n] += sum(hyp_counts.values())
            matches[n] += sum(
                min(count, ref_counts.get(gram, 0)) for gram, count in hyp_counts.items()
            )
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        if totals[n] == 0 or matches[n] == 0:
            return 0.0
        log_sum += math.log(matches[n] / totals[n])
    bp = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    return bp * math.exp(log_sum / 4.0)


def rouge4_f(hypothesis: TokenSeq, reference: TokenSeq) -> float:
    """Clipped 4-gram overlap F1 for a single hypothesis/reference pair."""
    hyp_counts = _ngrams(hypothesis, 4)
    ref_counts = _ngrams(reference, 4)
    if not hyp_counts or not ref_counts:
        return 0.0
    overlap = sum(min(c, ref_counts.get(g, 0)) for g, c in hyp_counts.items())
    if overlap == 0:
        return 0.0
    precision = overlap / sum(hyp_counts.values())
    recall = overlap / sum(ref_counts.values())
    return 2.0 * precision * recall / (precision + recall)


def evaluate_pairs(hypotheses: Sequence[TokenSeq], references: Sequence[TokenSeq]) -> EvalReport:
    """Bundle corpus BLEU-4 and mean ROUGE-4 F over aligned pairs."""
    if len(hypotheses) != len(references):
        raise InvalidInput(
            f"got {len(hypotheses)} hypotheses for {len(references)} references"
        )
    per_rouge = tuple(rouge4_f(h, r) for h, r in zip(hypotheses, references))
    mean_rouge = sum(per_rouge) / len(per_rouge) if per_rouge else 0.0
    return EvalReport(
        bleu4=bleu4(hypotheses, references),
        rouge4_f=mean_rouge,
        per_example_rouge4=per_rouge,
        pair_count=len(hypotheses),
    )


def precision_at_k(selected: Sequence[int], relevant: set[int], k: int) -> float:
    """Fraction of the first k selected ids that are relevant.

    Always divides by k, even when fewer than k items were selected.
    """
    check_int(k, "k", 1)
    hits = sum(1 for sid in selected[:k] if sid in relevant)
    return hits / k


def sign_test(scores_a: Sequence[float], scores_b: Sequence[float]) -> float:
    """Exact two-sided sign test p-value for paired per-example scores.

    Ties are dropped; with w wins for ``a`` out of n untied pairs the
    p-value is ``2 * min(P[W <= w], P[W >= w])`` under Binomial(n, 1/2),
    capped at 1. Raises :class:`AllTies` if every pair is tied.
    """
    if len(scores_a) != len(scores_b):
        raise InvalidInput("paired score lists must have equal length")
    if len(scores_a) == 0:
        raise InvalidInput("need at least one paired score")
    wins = sum(1 for a, b in zip(scores_a, scores_b) if a > b)
    losses = sum(1 for a, b in zip(scores_a, scores_b) if a < b)
    n = wins + losses
    if n == 0:
        raise AllTies("every paired comparison is a tie")
    low = sum(math.comb(n, i) for i in range(0, wins + 1))
    high = sum(math.comb(n, i) for i in range(wins, n + 1))
    return min(1.0, 2 * min(low, high) / 2**n)
