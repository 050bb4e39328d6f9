"""Search: agreement with brute-force enumeration, tie-breaks, budgets."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import toylang
from dtparser import derivation, dtm, models, search
from dtparser.config import Config
from dtparser.corpus import (RawLeaf, RawTree, format_tree, leaves,
                             parse_tree, split_corpus)
from dtparser.errors import (DeadEnd, EmptyInput, EnumerationBudgetExceeded,
                             IllegalAction, SentenceTooLong,
                             UnaryChainTooLong)
from dtparser.search import STATUS_MEMORY, STATUS_OPTIMAL

from conftest import toy_config

# a sentence the toy grammar generates; long enough to make search work
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


@pytest.mark.parametrize("model, sentence, cap, tree, logprob, expanded", [
    ("toy", " ".join(LONG_SENTENCE), 10,
     "(S (NP the_DT old_JJ ball_NN) (VP runs_VB (NP a_DT old_JJ cat_NN) "
     "(PP in_IN (NP the_DT park_NN))))", "-0x1.3caa9515397c4p-10", 32),
    ("toy", "rex sees a big ball", 5,
     "(S (NP rex_NNP) (VP sees_VB (NP a_DT big_JJ ball_NN)))",
     "-0x1.7c3d13dce91eap-11", 18),
    ("toy", "mia sleeps in the park", 3,
     "(S (NP mia_NNP) (VP sleeps_VB (NP in_IN (NP the_DT park_NN))))",
     "-0x1.9055346f1c788p-11", 20),
    ("toy", "qq zz", 2, "(S (NP qq_DT zz_DT))", "-0x1.5908c47aad2efp+3", 8),
    ("random-tree", "y w z", 20, "(B (C y_T1) (C w_T1 z_T1))",
     "-0x1.15f5ff6e3dd82p+3", 20),
    ("random-tree", "w qq z qq", 20, "(C (C w_T1) (B (C qq_T1 z_T1) qq_T1))",
     "-0x1.73f42b94f79bep+3", 24),
    ("random-tree", "x qq v z", 1, "(A x_T1 (A (B qq_T1 v_T1) z_T1))",
     "-0x1.35c0fd5c77fc8p+3", 14),
    # the pool holds two live hypotheses of equal log probability
    ("random-tree", "qq y v", 20, "(B qq_T1 (C y_T2 v_T1))",
     "-0x1.b192cd20a02adp+2", 17),
    # m's tags T1 and T2 score alike, and the rollout starts from T1
    ("tied", "m n", 1, "(S (A m_T1 n_T3))", "-0x1.210a13df1c7adp+2", 8),
])
def test_capped_search_returns_the_same_rollout(
        toy_model_set, random_tree_model_set, config, model, sentence, cap,
        tree, logprob, expanded):
    """What the memory fallback returns, pinned: the tree, the exact log
    probability, the status and the expansions of each capped search."""
    model_set = {"toy": toy_model_set, "random-tree": random_tree_model_set,
                 "tied": _ambiguous_model_set(2, 2)}[model]
    result = search.parse(model_set, sentence.split(),
                          config.replace(max_hypotheses=cap))
    assert (format_tree(result.tree), result.logprob.hex(), result.status,
            result.expanded) == (tree, logprob, STATUS_MEMORY, expanded)


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


RANDOM_VOCABULARY = toylang.RANDOM_WORDS + ("qq",)  # and one unknown word


def assert_matches_enumeration(model_set, words, config):
    got = search.parse(model_set, words, config)
    oracle = search.exhaustive_parse(model_set, words)
    assert got.status == STATUS_OPTIMAL
    assert format_tree(got.tree) == format_tree(oracle.tree)
    assert got.logprob == oracle.logprob
    return got


@pytest.mark.parametrize("model", ["toy", "random-tree"])
def test_history_view_agrees_with_extract_history(model, toy_model_set,
                                                  random_tree_model_set,
                                                  config, monkeypatch):
    """On every state the search scores, each slot of the lazy view and
    of the bulk history equals the hand-written oracle's, and the tree
    walk reaches the same leaf."""
    if model == "toy":
        model_set = toy_model_set
        sentences = toylang.short_sentences(20, 81) + [LONG_SENTENCE]
    else:
        model_set = random_tree_model_set
        rng = random.Random(82)
        sentences = [[rng.choice(RANDOM_VOCABULARY) for _ in range(3)]
                     for _ in range(4)]
    reached = []  # (state, the kind of its pending decision, or None)
    real = search.action_scores

    def recording(model_set, state):
        try:
            kind, scored = real(model_set, state)
        except DeadEnd:
            reached.append((state, None))
            raise
        reached.append((state, kind))
        return kind, scored

    monkeypatch.setattr(search, "action_scores", recording)
    for words in sentences:
        search.parse(model_set, words, config)
    assert {kind for _, kind in reached} >= set(derivation.KINDS)
    for state, kind in reached:
        try:
            history = reference.extract_history(state)
        except IllegalAction:
            with pytest.raises(IllegalAction):
                derivation.HistoryView(state)
            with pytest.raises(IllegalAction):
                derivation.extract_history(state)
            continue
        view = derivation.HistoryView(state, kind)
        assert len(view) == len(history)
        assert tuple(view[i] for i in range(len(view))) == history
        assert derivation.extract_history(state, kind) == history
        if kind is not None:
            tree = model_set.models[kind].tree
            assert dtm.walk(tree, view) == dtm.walk(tree, history)


def test_search_matches_enumeration_on_an_ambiguous_model(
        random_tree_model_set, config):
    rng = random.Random(30)
    expanded = 0
    for _ in range(30):
        words = [rng.choice(RANDOM_VOCABULARY)
                 for _ in range(rng.choice((2, 3)))]
        expanded += assert_matches_enumeration(random_tree_model_set, words,
                                               config).expanded
    # 9,795 is what the two-phase decoder this search replaced expanded.
    assert expanded < 9795


@settings(max_examples=200, deadline=None)
@given(words=st.lists(st.sampled_from(RANDOM_VOCABULARY), min_size=2,
                      max_size=3))
def test_search_matches_enumeration_on_generated_sentences(
        random_tree_model_set, config, words):
    assert_matches_enumeration(random_tree_model_set, words, config)


def _rewrite_words(tree, rng, vocabulary):
    """`tree` with every word redrawn from `vocabulary`."""
    if isinstance(tree, RawLeaf):
        return RawLeaf(rng.choice(vocabulary), tree.tag)
    return RawTree(tree.label, tuple(_rewrite_words(child, rng, vocabulary)
                                     for child in tree.children))


def assert_word_bounds_hold(model_set, tree):
    """Every tag decision of `tree`'s derivation, and the extension
    decision right after it (the tagged word's own), scores at most the
    word's bound."""
    try:
        events = derivation.encode(tree, model_set.context())
    except UnaryChainTooLong:
        return
    previous = None
    for event in events:
        kind = event.kind
        if kind == derivation.KIND_TAG or previous == derivation.KIND_TAG:
            model = model_set.models[kind]
            p = model.predict(event.history)[
                model.schema.future_index[event.future]]
            tag_bound, extension_bound = model_set.word_bound(event.history[0])
            bound = tag_bound if kind == derivation.KIND_TAG else \
                extension_bound
            assert math.log(p) <= bound, (format_tree(tree), event)
        previous = kind


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_word_bounds_are_admissible_on_random_trees(random_tree_model_set,
                                                    seed):
    rng = random.Random(seed)
    tree = _rewrite_words(toylang.random_tree(rng), rng, RANDOM_VOCABULARY)
    assert_word_bounds_hold(random_tree_model_set, tree)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_word_bounds_are_admissible_on_the_toy_model(toy_model_set, seed):
    rng = random.Random(seed)
    vocabulary = sorted(w for ws in toylang.WORDS.values() for w in ws)
    tree = toylang.sentence(rng)
    if rng.random() < 0.5:
        tree = _rewrite_words(tree, rng, vocabulary + ["qq"])
    assert_word_bounds_hold(toy_model_set, tree)


def test_word_bound_cache_is_bounded_by_the_vocabulary(toy_model_set,
                                                       config):
    model_set = dataclasses.replace(toy_model_set)  # with an empty cache
    for i in range(1000):
        search.parse(model_set, [f"unknown{i}"], config)
    assert 1 <= len(model_set._word_bounds) <= \
        len(model_set.class_trees["word"].codes)


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
