"""Search: agreement with brute-force enumeration, tie-breaks, budgets."""

import random

import pytest

import toylang
from dtparser import derivation, models, search
from dtparser.config import Config
from dtparser.corpus import format_tree, leaves, parse_tree, split_corpus
from dtparser.errors import (EmptyInput, EnumerationBudgetExceeded,
                             SentenceTooLong)
from dtparser.search import STATUS_MEMORY, STATUS_OPTIMAL

from conftest import toy_config

# a sentence the toy grammar generates; long enough to make the beam work
LONG_SENTENCE = "the old ball runs a old cat in the park".split()


def test_one_word_sentence(toy_model_set, config):
    result = search.parse(toy_model_set, ["rex"], config)
    assert result.status == STATUS_OPTIMAL
    assert format_tree(result.tree) == "(S (NP rex_NNP))"
    oracle = search.exhaustive_parse(toy_model_set, ["rex"])
    assert result.logprob == pytest.approx(oracle.logprob, rel=1e-12)


def test_beam_matches_enumeration(toy_model_set, config):
    for words in toylang.short_sentences(25, 55):
        got = search.parse(toy_model_set, words, config)
        oracle = search.exhaustive_parse(toy_model_set, words)
        assert got.status == STATUS_OPTIMAL
        assert format_tree(got.tree) == format_tree(oracle.tree)
        assert got.logprob == pytest.approx(oracle.logprob, rel=1e-12)


def test_logprob_matches_rescoring(toy_model_set, config):
    result = search.parse(toy_model_set, LONG_SENTENCE, config)
    rescored = models.derivation_logprob(toy_model_set, result.tree)
    assert result.logprob == pytest.approx(rescored, rel=1e-9)


def _ambiguous_model_set(t1_count, t2_count):
    trees = [parse_tree("(S (A m_T1 n_T3))")] * t1_count + \
        [parse_tree("(S (A m_T2 n_T3))")] * t2_count
    return models.train(trees, [], toy_config())


def test_exact_ties_prefer_the_earlier_decision(config):
    # "m" is tagged T1 and T2 equally often in identical contexts, so the
    # two tags score identically; the winner must be the decision that
    # sorts lower ("T1" < "T2"), whatever structure gets built on top
    model_set = _ambiguous_model_set(2, 2)
    result = search.parse(model_set, ["m", "n"], config)
    assert leaves(result.tree)[0].tag == "T1"
    oracle = search.exhaustive_parse(model_set, ["m", "n"])
    assert format_tree(oracle.tree) == format_tree(result.tree)
    assert result.logprob == oracle.logprob


def test_unequal_counts_beat_the_tie_break(config):
    result = search.parse(_ambiguous_model_set(1, 3), ["m", "n"], config)
    assert leaves(result.tree)[0].tag == "T2"
    flipped = search.parse(_ambiguous_model_set(3, 1), ["m", "n"], config)
    assert leaves(flipped.tree)[0].tag == "T1"


def test_memory_cap_degrades_gracefully(toy_model_set, config):
    capped = config.replace(max_hypotheses=10)
    result = search.parse(toy_model_set, LONG_SENTENCE, capped)
    assert result.status == STATUS_MEMORY
    assert result.tree is not None
    assert [leaf.word for leaf in leaves(result.tree)] == LONG_SENTENCE
    assert result.expanded > 0


def test_default_cap_finds_the_optimum(toy_model_set, config):
    result = search.parse(toy_model_set, LONG_SENTENCE, config)
    assert result.status == STATUS_OPTIMAL
    oracle = search.exhaustive_parse(toy_model_set, LONG_SENTENCE)
    assert format_tree(result.tree) == format_tree(oracle.tree)


def test_unknown_words_still_parse(toy_model_set, config):
    result = search.parse(toy_model_set, ["qq", "zz"], config)
    assert result.status == STATUS_OPTIMAL
    assert result.tree is not None


def test_empty_input(toy_model_set, config):
    with pytest.raises(EmptyInput):
        search.parse(toy_model_set, [], config)


def test_overlong_input(toy_model_set, config):
    with pytest.raises(SentenceTooLong):
        search.parse(toy_model_set, ["w"] * 41, config)
    # the limit itself is still parsed
    assert search.parse(toy_model_set, ["rex"],
                        config.replace(max_length=1)).status == STATUS_OPTIMAL


def test_enumeration_budget(toy_model_set):
    with pytest.raises(EnumerationBudgetExceeded):
        search.exhaustive_parse(toy_model_set, LONG_SENTENCE[:8], budget=3)


@pytest.fixture(scope="module")
def random_tree_model_set():
    """A model of arbitrary random trees: far more ambiguous than the toy
    grammar, so search keeps many hypotheses alive."""
    rng = random.Random(120)
    trees = [toylang.random_tree(rng) for _ in range(120)]
    config = Config(unk_threshold=1, min_events=4, cluster_window=64)
    grow, heldout = split_corpus(trees, config.grow_fraction, config.seed)
    return models.train(grow, heldout, config)


def test_search_matches_enumeration_on_an_ambiguous_model(
        random_tree_model_set, config):
    rng = random.Random(30)
    vocabulary = toylang.RANDOM_WORDS + ("qq",)  # and one unknown word
    for _ in range(30):
        words = [rng.choice(vocabulary) for _ in range(rng.choice((2, 3)))]
        got = search.parse(random_tree_model_set, words, config)
        oracle = search.exhaustive_parse(random_tree_model_set, words)
        assert got.status == STATUS_OPTIMAL
        assert format_tree(got.tree) == format_tree(oracle.tree)
        assert got.logprob == oracle.logprob


def test_states_are_built_only_for_popped_hypotheses(toy_treebank,
                                                     toy_model_set, config,
                                                     monkeypatch):
    calls = 0
    apply_action = derivation.apply_action

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return apply_action(*args, **kwargs)

    monkeypatch.setattr(derivation, "apply_action", counted)
    for tree in toy_treebank:
        calls = 0
        result = search.parse(toy_model_set,
                              [leaf.word for leaf in leaves(tree)], config)
        # One state per popped, unpruned hypothesis: every expanded one
        # but the start, whose state is the initial one, plus the
        # complete parse popped last.
        assert calls <= result.expanded, format_tree(tree)
