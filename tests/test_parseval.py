"""Bracket scoring against hand-checked fixture pairs."""

import logging

import pytest

import toylang
from dtparser import parseval
from dtparser.corpus import parse_tree
from dtparser.errors import WordMismatch
from dtparser.parseval import SentenceScore, score_pair

GOLD_3 = "(S (A w1_T w2_T) (B w3_T))"

# hand-scored (gold, test) pairs; counts worked out span by span
PAIRS = {
    "identity": (GOLD_3, GOLD_3, (3, 3, 3, 3, 0)),
    "one-third": (GOLD_3, "(S (A w1_T) (B w2_T w3_T))", (3, 3, 1, 1, 1)),
    "tags-wrong": ("(S (A w1_X w2_X) (B w3_X))",
                   "(S (A w1_Y w2_Y) (B w3_Y))", (3, 3, 3, 3, 0)),
    "unary-multiset": ("(S (A (A w1_T w2_T)) (B w3_T))", GOLD_3,
                       (4, 3, 3, 3, 0)),
    "label-swap-nested": ("(S (NP w1_T w2_T w3_T) (VP w4_T))",
                          "(S (VP w1_T w2_T w3_T) (VP w4_T))",
                          (3, 3, 3, 2, 0)),
    "micro-a": ("(S (A w1_T w2_T) w3_T)", "(S (A w1_T) w2_T w3_T)",
                (2, 2, 1, 1, 0)),
    "micro-b": ("(S (A w1_T w2_T) (B w3_T w4_T) (C w5_T))",
                "(S (A w1_T w2_T) (B w3_T w4_T (C w5_T)))",
                (4, 4, 3, 3, 0)),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_scored_pairs(name):
    gold, test, expected = PAIRS[name]
    score = score_pair(parse_tree(gold), parse_tree(test))
    got = (score.gold_constituents, score.test_constituents,
           score.correct_unlabelled, score.correct_labelled, score.crossings)
    assert got == expected


def test_constituents_are_spans_with_root_last():
    tree = parse_tree(GOLD_3)
    assert parseval.constituents(tree) == [(0, 1, "A"), (2, 2, "B"),
                                           (0, 2, "S")]
    assert parseval.constituents(tree, include_root=False) == \
        [(0, 1, "A"), (2, 2, "B")]


@pytest.mark.parametrize("make", [toylang.unary_chain,
                                  toylang.right_branching],
                         ids=["unary-chain", "right-branching"])
def test_trees_deeper_than_the_recursion_limit_score(make):
    tree = make(toylang.DEEP)
    score = score_pair(tree, make(toylang.DEEP))
    assert score.gold_constituents == score.test_constituents == toylang.DEEP
    assert score.correct_labelled == score.correct_unlabelled == toylang.DEEP
    assert score.crossings == 0
    assert score.tags_correct == score.length == \
        (1 if make is toylang.unary_chain else toylang.DEEP + 1)
    spans = parseval.constituents(tree, include_root=False, multiset=False)
    if make is toylang.unary_chain:
        assert spans == [(0, 0, "A")]  # the chain's 1,200 brackets are one
    else:
        assert spans == [(toylang.DEEP - 1 - depth, toylang.DEEP, "A")
                         for depth in range(toylang.DEEP - 1)]


def test_multiset_toggle_collapses_unary_repeats():
    gold = parse_tree("(S (A (A w1_T w2_T)) (B w3_T))")
    assert len(parseval.constituents(gold)) == 4
    assert len(parseval.constituents(gold, multiset=False)) == 3
    score = score_pair(gold, parse_tree(GOLD_3), multiset=False)
    assert score.gold_constituents == 3
    assert score.correct_labelled == 3


def test_root_toggle_flows_through_scoring():
    gold, test, _ = PAIRS["one-third"]
    score = score_pair(parse_tree(gold), parse_tree(test), include_root=False)
    assert (score.gold_constituents, score.correct_unlabelled) == (2, 0)


def test_tagging_accuracy():
    gold, test, _ = PAIRS["tags-wrong"]
    wrong = score_pair(parse_tree(gold), parse_tree(test))
    assert wrong.tags_correct == 0
    assert parseval.tagging_accuracy([wrong]) == 0.0
    same = score_pair(parse_tree(GOLD_3), parse_tree(GOLD_3))
    assert same.tags_correct == 3
    assert parseval.tagging_accuracy([same]) == 100.0
    assert parseval.tagging_accuracy([]) == 0.0


def test_one_bad_tag_in_eight():
    gold = parse_tree("(S (N Each_DD1 code_NN1 (Tn used_VVN (P by_II"
                      " (N the_AT PC_NN1)))) (V is_VBZ listed_VVN))")
    test = parse_tree("(S (N Each_DD1 code_NN1 (Tn used_VVN (P by_II"
                      " (N the_AT PC_NN1)))) (V is_VBZ listed_NN1))")
    score = score_pair(gold, test)
    assert score.tags_correct == 7
    assert parseval.tagging_accuracy([score]) == 87.5


def test_word_mismatch():
    with pytest.raises(WordMismatch):
        score_pair(parse_tree("(S a_T)"), parse_tree("(S b_T)"))


def _micro_scores():
    return [score_pair(parse_tree(g), parse_tree(t))
            for g, t, _ in (PAIRS["micro-a"], PAIRS["micro-b"])]


def test_micro_average_pools_counts():
    report = parseval.aggregate(_micro_scores(), ranges=((1, 10),))
    column = report.columns[1, 10]
    assert column["Precision"] == pytest.approx(400 / 6)
    assert column["Recall"] == pytest.approx(400 / 6)
    assert column["Comparisons"] == 2


def test_render_csv():
    report = parseval.aggregate(_micro_scores(), ranges=((1, 10),))
    assert parseval.render_csv(report) == """\
Measure,1-10
Comparisons,2
Avg. Sent. Length,4.00
Treebank Constituents,3.00
Parse Constituents,3.00
Tagging Accuracy,100.0%
Crossings Per Sentence,0.00
Sent. with 0 Crossings,100.0%
Sent. with 1 Crossing,100.0%
Sent. with 2 Crossings,100.0%
Precision,66.7%
Recall,66.7%
Labelled Precision,66.7%
Labelled Recall,66.7%
"""


def test_empty_ranges_are_dropped(caplog):
    with caplog.at_level(logging.WARNING, logger="dtparser.parseval"):
        report = parseval.aggregate(_micro_scores(), ranges=((1, 10), (20, 30)))
    assert report.ranges == ((1, 10),)
    assert "range omitted" in caplog.text


def test_per_length_rows():
    assert parseval.per_length_rows(_micro_scores()) == [
        (3, 1, 0.0, 50.0, 50.0),
        (5, 1, 0.0, 75.0, 75.0),
    ]


def test_per_length_rows_guard_empty_counts():
    bare = SentenceScore(length=2, gold_constituents=0, test_constituents=0,
                         correct_unlabelled=0, correct_labelled=0,
                         crossings=0, tags_correct=2)
    assert parseval.per_length_rows([bare]) == [(2, 1, 0.0, 0.0, 0.0)]
