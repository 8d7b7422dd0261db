import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omnieval import (
    ExtractedAnswer,
    ExtractionStatus,
    bleu,
    corpus_bleu,
    extract_answer,
    rouge_l,
    rouge_n,
    score_choice_exact,
    score_fill_blank,
    score_multi_choice,
)
from omnieval.dataset import EvalItem
from omnieval.errors import EmptyReferences
from omnieval.estimators import lcs_length, score_item
from omnieval.filters import QuestionType
from oracles import brute_bleu, brute_corpus_bleu, brute_lcs, brute_rouge_l, brute_rouge_n

# Frozen from the hand-evaluated formula (= (1/24) ** 0.25), confirmed by the
# brute-force oracle before the implementation was written.
BLEU_GOLDEN = 0.4518010018049224

EXTRACTED_B = ExtractedAnswer("B", ExtractionStatus.EXTRACTED, "test")
UNEXTRACTED = ExtractedAnswer(None, ExtractionStatus.UNEXTRACTED)

token_lists = st.lists(st.sampled_from("abcde"), min_size=0, max_size=8)


class TestExactScorers:
    def test_choice_exact(self):
        assert score_choice_exact(EXTRACTED_B, "B") == 1.0
        assert score_choice_exact(ExtractedAnswer("A", ExtractionStatus.EXTRACTED), "B") == 0.0
        assert score_choice_exact(UNEXTRACTED, "B") == 0.0

    def test_multi_choice(self):
        assert score_multi_choice({"A", "C"}, {"A", "C"}) == (1.0, 1.0)
        assert score_multi_choice({"A"}, {"A", "C"}) == (0.0, 0.5)
        assert score_multi_choice(set(), {"B"}) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "extracted,truth,expected",
        [
            ("The Pacific Ocean", "pacific ocean", 1.0),
            ("Atlantic", ["pacific ocean"], 0.0),
            ("42.", ["42", "forty-two"], 1.0),
        ],
    )
    def test_fill_blank(self, extracted, truth, expected):
        assert score_fill_blank(extracted, truth) == expected


class TestScoreItem:
    def test_name_reported_by_two_metrics_is_kept_once(self):
        item = EvalItem(id="m1", instruction="pick", question_type=QuestionType.MULTIPLE_CHOICE,
                        answer=("A", "C"), choices=("w", "x", "y", "z"))
        extracted = ExtractedAnswer(("A",), ExtractionStatus.EXTRACTED, "test")
        outcomes = score_item(item, extracted, ["accuracy", "multi_choice_exact"])
        assert [o.metric_name for o in outcomes] == [
            "accuracy", "multi_choice_jaccard", "multi_choice_exact"
        ]
        assert [o.score for o in outcomes] == [0.0, 0.5, 0.0]

    @pytest.mark.parametrize("answer", ["The cat sat on the mat.", ("A dog ran.", "The cat sat on the mat.")],
                             ids=["one_reference", "second_of_two"])
    def test_reply_equal_to_its_reference_scores_one(self, answer):
        # the candidate is normalized when it is extracted, so the references must be too
        item = EvalItem(id="t1", instruction="describe", question_type=QuestionType.FREE_OPEN, answer=answer)
        extracted = extract_answer("The cat sat on the mat.", QuestionType.FREE_OPEN, None)
        outcomes = score_item(item, extracted, ["bleu", "rouge1", "rouge2", "rougeL"])
        assert {o.metric_name: o.score for o in outcomes} == {"bleu": 1.0, "rouge1": 1.0, "rouge2": 1.0,
                                                               "rougeL": 1.0}


class TestBleu:
    def test_identity(self):
        assert bleu("the cat sat", ["the cat sat"]) == pytest.approx(1.0)
        assert bleu("hi", ["hi"]) == pytest.approx(1.0)

    def test_golden(self):
        assert bleu("the cat the cat", ["the cat sat"]) == pytest.approx(BLEU_GOLDEN, abs=1e-9)

    def test_empty_candidate(self):
        assert bleu("", ["x"]) == 0.0

    def test_empty_references(self):
        with pytest.raises(EmptyReferences):
            bleu("x", [])

    def test_brevity_penalty_tie_goes_to_shorter(self):
        # candidate length 3, references lengths 2 and 4 are equally close
        value = bleu("a b c", ["a b", "a b c d"])
        # r = 2 <= c = 3, so no penalty; p1 = 1 ensures a nonzero score
        assert value > 0
        penalized = bleu("a b c", ["a b c d e f", "x"])  # closest is 1? no: |1-3|=2 < |6-3|=3
        assert penalized > 0

    def test_multi_reference_clipping(self):
        # "the the" clips against max count across references
        one = bleu("the the", ["the cat"])
        two = bleu("the the", ["the cat", "the the mat"])
        assert two >= one

    def test_oracle_equivalence_random(self):
        rng = random.Random(1234)
        vocab = "abcde"
        for _ in range(300):
            cand = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
            refs = [
                " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
                for _ in range(rng.randint(1, 3))
            ]
            assert bleu(cand, refs) == pytest.approx(brute_bleu(cand, refs), abs=1e-9)

    @given(token_lists, token_lists)
    def test_bounds(self, cand, ref):
        if not ref:
            ref = ["x"]
        value = bleu(" ".join(cand), [" ".join(ref)])
        assert 0.0 <= value <= 1.0

    def test_tokenization_is_idempotent(self):
        raw = "The  Cat\tSAT "
        retok = " ".join(raw.lower().split())
        assert bleu(raw, ["the cat sat"]) == bleu(retok, ["the cat sat"])


class TestCorpusBleu:
    def test_single_pair_matches_sentence(self):
        pairs = [("the cat the cat", ["the cat sat"])]
        value = corpus_bleu([c for c, _ in pairs], [r for _, r in pairs])
        assert value == pytest.approx(BLEU_GOLDEN, abs=1e-9)

    def test_pools_counts(self):
        cands = ["the cat", "a dog"]
        refs = [["the cat"], ["a dog"]]
        assert corpus_bleu(cands, refs) == pytest.approx(1.0)

    def test_empty_candidates_shrink_brevity(self):
        full = corpus_bleu(["the cat"], [["the cat"]])
        with_empty = corpus_bleu(["the cat", ""], [["the cat"], ["some words here"]])
        assert with_empty < full

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            corpus_bleu(["a"], [])

    @staticmethod
    def _random_pair(rng):
        # three symbols, so tokens repeat; lengths 0-11 cover empty candidates
        # and candidates with fewer than four tokens
        vocab = ["a", "b", "c"]
        cand = [rng.choice(vocab) for _ in range(rng.randint(0, 11))]
        refs = [[rng.choice(vocab) for _ in range(rng.randint(1, 11))] for _ in range(rng.randint(1, 3))]
        draw = rng.random()
        if draw < 0.2 and cand:
            refs[rng.randrange(len(refs))] = list(cand)  # one reference equals the candidate
        elif draw < 0.3 and cand:
            refs = [list(cand)]  # the single reference equals the candidate
        cand_text = " ".join(cand)
        if rng.random() < 0.2:
            cand_text = "  " + cand_text.upper() + "\t"  # equal only after tokenization
        return cand_text, [" ".join(ref) for ref in refs]

    def test_matches_pooled_oracle_random(self):
        rng = random.Random(2024)
        for _ in range(400):
            pairs = [self._random_pair(rng) for _ in range(rng.randint(1, 6))]
            cands = [cand for cand, _ in pairs]
            refs = [ref for _, ref in pairs]
            assert corpus_bleu(cands, refs) == brute_corpus_bleu(cands, refs), pairs

    def test_sentence_bleu_matches_both_oracles_random(self):
        rng = random.Random(77)
        for _ in range(400):
            cand, refs = self._random_pair(rng)
            value = bleu(cand, refs)
            assert value == brute_corpus_bleu([cand], [refs]), (cand, refs)
            assert value == brute_bleu(cand, refs), (cand, refs)

    @pytest.mark.parametrize(
        "cand,refs",
        [
            ("the cat sat on the mat", ["the cat sat on the mat"]),
            ("the cat", ["the cat"]),
            ("a a a a a", ["b b", "a a a a a", "a"]),
            ("The  CAT sat", ["the cat sat", "a dog"]),
        ],
    )
    def test_identical_reference_scores_one(self, cand, refs):
        assert bleu(cand, refs) == 1.0 == brute_corpus_bleu([cand], [refs])

    def test_multi_reference_clipping_takes_each_ngram_from_its_best_reference(self):
        # "a" is clipped to 2 (its count in "a a"), not to the 3 of both references together
        cands = ["a a a b b", "b a"]
        refs = [["a a c", "a b b c"], ["a b"]]
        assert corpus_bleu(cands, refs) == brute_corpus_bleu(cands, refs)


class TestRouge:
    def test_rouge1_golden(self):
        assert rouge_n("the cat", "the cat sat", 1) == pytest.approx((1.0, 2 / 3, 0.8))

    def test_identity(self):
        assert rouge_n("a b c", "a b c", 1)[2] == pytest.approx(1.0)
        assert rouge_n("a b c", "a b c", 2)[2] == pytest.approx(1.0)
        assert rouge_l("a b c", "a b c")[2] == pytest.approx(1.0)

    def test_disjoint(self):
        assert rouge_n("a b", "c d", 1) == (0.0, 0.0, 0.0)

    def test_rouge_l_golden(self):
        assert rouge_l("the cat sat", "the cat on the mat") == pytest.approx((2 / 3, 0.4, 0.5))

    def test_empty_sides(self):
        assert rouge_l("", "a b") == (0.0, 0.0, 0.0)
        assert rouge_l("a b", "") == (0.0, 0.0, 0.0)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            rouge_n("a", "a", 3)

    def test_oracle_equivalence_random(self):
        rng = random.Random(99)
        vocab = "abcde"
        for _ in range(300):
            cand = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
            ref = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
            assert rouge_l(cand, ref) == pytest.approx(brute_rouge_l(cand, ref), abs=1e-9)
            for n in (1, 2):
                assert rouge_n(cand, ref, n) == pytest.approx(brute_rouge_n(cand, ref, n), abs=1e-9)

    def test_lcs_crosses_word_boundaries(self):
        # up to about 200 tokens over three symbols: the bit masks run past 64 bits
        rng = random.Random(5)
        lengths = [(63, 64), (64, 65), (128, 129), (200, 3), (3, 200), (200, 200)]
        lengths += [(rng.randint(0, 200), rng.randint(0, 200)) for _ in range(40)]
        for len_a, len_b in lengths:
            a = [rng.choice("xyz") for _ in range(len_a)]
            b = [rng.choice("xyz") for _ in range(len_b)]
            assert lcs_length(a, b) == brute_lcs(a, b), (a, b)
            assert lcs_length(a, a) == len_a

    @given(token_lists, token_lists)
    def test_lcs_matches_full_dp_oracle(self, a, b):
        assert lcs_length(a, b) == brute_lcs(a, b)
        assert lcs_length(a, b) <= min(len(a), len(b))

    @given(token_lists, token_lists)
    def test_rouge_l_bounds(self, a, b):
        p, r, f1 = rouge_l(" ".join(a), " ".join(b))
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f1 <= 1.0
