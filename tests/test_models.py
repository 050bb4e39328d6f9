"""Training wiring: event routing, class-tree construction, scoring."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import toylang
from dtparser import derivation, dtm, models
from dtparser.corpus import (UNK, internal_nodes, leaves, parse_tree,
                             split_corpus)
from dtparser.derivation import EXTENSIONS, TAG_LABEL
from dtparser.errors import (DTParserError, IllegalAction,
                             UnaryChainTooLong, UnknownId)
from dtparser.headfinder import default_head_rules

from conftest import toy_config


def test_events_route_by_decision_kind(toy_treebank, toy_model_set):
    config = toy_config()
    grow, _ = split_corpus(toy_treebank, config.grow_fraction, config.seed)
    n_words = sum(len(leaves(t)) for t in grow)
    n_nodes = sum(len(internal_nodes(t)) for t in grow)
    assert toy_model_set.models["tag"].root.total == n_words
    assert toy_model_set.models["label"].root.total == n_nodes
    assert toy_model_set.models["extension"].root.total == n_words + n_nodes


def test_make_schema(toy_model_set):
    vocab = toy_model_set.vocab
    trees = toy_model_set.class_trees
    tag = models.make_schema("tag", vocab, trees)
    assert len(tag.slots) == 58 and tag.futures == vocab.tags
    label = models.make_schema("label", vocab, trees)
    assert len(label.slots) == 54 and label.futures == vocab.labels
    ext = models.make_schema("extension", vocab, trees)
    assert ext.futures == list(EXTENSIONS)


def test_class_trees_cover_their_vocabularies(toy_model_set):
    trees = toy_model_set.class_trees
    assert set(trees) == {"word", "tag", "label", "extension"}
    # sibling bigrams mix labels with the word pseudo-label
    assert TAG_LABEL in trees["label"].codes
    # unseen words fold into the unknown symbol's code
    assert trees["word"].codes["zzzzz"] == trees["word"].codes[UNK]
    assert trees["extension"].codes["root"] == EXTENSIONS.index("root")


def test_observed_u_max():
    flat = [parse_tree("(S a_T b_T)")]
    assert models.observed_u_max(flat) == models.DEFAULT_U_MAX
    assert models.observed_u_max(flat + [parse_tree("(A (B w_T))")]) == 2


def test_u_max_override():
    trees = toylang.corpus(10, 3)
    config = toy_config().replace(u_max=7)
    model_set = models.train(trees, [], config)
    assert model_set.u_max == 7
    assert model_set.context().u_max == 7


def test_encode_errors_name_the_offending_sentence():
    trees = [parse_tree("(S a_T b_T)"), parse_tree("(A (B (C w_T)))")]
    config = toy_config().replace(u_max=1)
    with pytest.raises(UnaryChainTooLong) as err:
        models.train(trees, [], config)
    assert "grow sentence 1" in str(err.value)


def test_heldout_encode_errors_name_the_offending_sentence():
    grow = [parse_tree("(S a_T b_T)")]
    heldout = [parse_tree("(S a_T b_T)"), parse_tree("(A (B (C w_T)))")]
    config = toy_config().replace(u_max=1)
    with pytest.raises(UnaryChainTooLong) as err:
        models.train(grow, heldout, config)
    assert "heldout sentence 1" in str(err.value)


def test_a_symbol_only_a_later_model_reads_fails_that_model(toy_treebank):
    """A root label shows only in the history of the root's extension, so a
    label class tree without it fails the extension model, not the tag
    model that trains first."""
    config = toy_config()
    vocab, class_trees = models.build_classes(toy_treebank, config)
    codes = dict(class_trees["label"].codes)
    del codes["S"]
    class_trees["label"] = dataclasses.replace(class_trees["label"],
                                               codes=codes)
    grow, heldout = split_corpus(toy_treebank, config.grow_fraction,
                                 config.seed)
    with pytest.raises(UnknownId, match="^extension model: symbol 'S' "):
        models.train(grow, heldout, config, classes=(vocab, class_trees))


def _oracle_events(trees, ctx):
    """Per decision kind, the (history, future) pairs of `trees`' events,
    each history written out by `reference.extract_history`."""
    pairs = {kind: [] for kind in derivation.KINDS}
    for tree in trees:
        for state, kind, value in derivation.replay(tree, ctx):
            pairs[kind].append((reference.extract_history(state, kind), value))
    return pairs


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32), toy=st.booleans(),
       n_grow=st.integers(1, 10), n_heldout=st.integers(0, 4))
def test_training_columns_equal_the_tuple_oracle(seed, toy, n_grow,
                                                 n_heldout):
    """The columns each model grows from equal the hand-written histories
    encoded slot by slot, and each held-out event's view reads those
    histories and walks to the same leaf, for all three kinds."""
    if toy:
        trees = toylang.corpus(n_grow + n_heldout, seed)
    else:
        rng = random.Random(seed)
        trees = [toylang.random_tree(rng) for _ in range(n_grow + n_heldout)]
    grow, heldout = trees[:n_grow], trees[n_grow:]
    seen = {}

    def grow_recorder(columns, schema, config):
        seen[schema.kind] = [columns]
        return real_grow(columns, schema, config)

    def smooth_recorder(tree, pairs, schema, config):
        seen[schema.kind] += [tree, pairs]
        return real_smooth(tree, pairs, schema, config)

    real_grow, real_smooth = dtm.grow, dtm.smooth
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dtm, "grow", grow_recorder)
        patch.setattr(dtm, "smooth", smooth_recorder)
        model_set = models.train(grow, heldout, toy_config())
    ctx = model_set.context()
    grow_pairs = _oracle_events(grow, ctx)
    heldout_pairs = _oracle_events(heldout, ctx)
    for kind in derivation.KINDS:
        columns, tree, pairs = seen[kind]
        schema = model_set.models[kind].schema
        expected = reference.encode_events(grow_pairs[kind], schema)
        assert all(np.array_equal(got, want)
                   for got, want in zip(columns, expected))
        assert len(pairs) == len(heldout_pairs[kind])
        for (view, future), (history, want) in zip(pairs, heldout_pairs[kind]):
            assert (tuple(view), future) == (history, want)
            assert dtm.walk(tree, view) == dtm.walk(tree, history)


def test_degenerate_corpus_is_memorized():
    tree = parse_tree("(S (N the_DT cat_NN) (V runs_VB))")
    model_set = models.train([tree] * 20, [tree] * 2, toy_config())
    assert math.exp(models.derivation_logprob(model_set, tree)) > 0.9


def test_common_word_tags_with_near_certainty(toy_model_set):
    ctx = toy_model_set.context()
    state = derivation.initial_state(["the", "dog", "runs"], ctx)
    kind, scored = models.action_scores(toy_model_set, state)
    assert kind == "tag"
    assert math.exp(dict(scored)["DT"]) > 0.9


def test_action_scores_do_not_overstate(toy_model_set):
    ctx = toy_model_set.context()
    state = derivation.initial_state(["a", "cat", "sleeps"], ctx)
    while not state.complete:
        kind, scored = models.action_scores(toy_model_set, state)
        total = sum(math.exp(score) for _, score in scored)
        assert 0.0 < total <= 1.0 + 1e-9
        assert all(-math.inf < score <= 0.0 for _, score in scored)
        value = max(scored, key=lambda item: item[1])[0]
        state = derivation.apply_action(state, (kind, value))


def test_replace_starts_a_fresh_context(toy_model_set):
    ctx = toy_model_set.context()
    capped = dataclasses.replace(toy_model_set, u_max=1)
    assert capped.context().u_max == 1
    assert capped.context() is not ctx


def test_score_action(toy_model_set):
    ctx = toy_model_set.context()
    state = derivation.initial_state(["the", "dog"], ctx)
    kind, scored = models.action_scores(toy_model_set, state)
    for value, p in scored:
        assert models.score_action(toy_model_set, state, (kind, value)) == p
    with pytest.raises(IllegalAction):
        models.score_action(toy_model_set, state, ("label", "NP"))
    tagged = derivation.apply_action(state, ("tag", "DT"))
    with pytest.raises(IllegalAction):
        # `root` is never legal for a mid-sentence word node
        models.score_action(toy_model_set, tagged, ("extension", "root"))


def test_derivation_logprob_is_pure(toy_treebank, toy_model_set):
    tree = toy_treebank[0]
    first = models.derivation_logprob(toy_model_set, tree)
    assert first < 0.0
    assert models.derivation_logprob(toy_model_set, tree) == first


@pytest.mark.parametrize("text", [
    "(S (NP rex_XX))",                   # a tag the model does not know
    "(Q (NP rex_NNP))",                  # a label the model does not know
    "(S (S (S (S (S (NP rex_NNP))))))",  # a unary chain above the cap
], ids=["unknown-tag", "unknown-label", "unary-chain-above-the-cap"])
def test_derivation_logprob_rejects_an_underivable_tree(toy_model_set, text):
    with pytest.raises(DTParserError):
        models.derivation_logprob(toy_model_set, parse_tree(text))


def test_derivation_logprob_sums_step_scores(toy_treebank, toy_model_set):
    tree = toy_treebank[1]
    ctx = toy_model_set.context()
    events = derivation.encode(tree, ctx)
    state = derivation.initial_state(
        [l.word for l in leaves(tree)], ctx)
    total = 0.0
    for event in events:
        action = (event.kind, event.future)
        total += models.score_action(toy_model_set, state, action)
        state = derivation.apply_action(state, action)
    assert models.derivation_logprob(toy_model_set, tree) == \
        pytest.approx(total, rel=1e-12)
