"""The compiled walk: `dtm.walk` over a FlatTree against a reference walk
that encodes every slot of the history and answers node by node."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_dtm
from reference import as_forced_order_tree
from dtparser import derivation, dtm, modelfile
from dtparser.corpus import UNK
from dtparser.dtm import FlatTree, walk
from dtparser.errors import SlotLayoutMismatch, UnknownId

from conftest import toy_config

UNKNOWN_WORDS = ("qq", "zz", "Rex", "")


def reference_walk(tree, schema, history):
    """The reached node's id, from the fully encoded history, answering
    each node's question the way growing answers its questions."""
    vals, nulls = schema.encode_history(history)
    i = 0
    while not tree.nodes[i].is_leaf:
        q = tree.nodes[i].question
        i = tree.yes[i] if q.answer_array(vals[q.slot], nulls[q.slot]) \
            else tree.no[i]
    return i


def slot_values(schema, vkind):
    """Values a history slot of kind `vkind` can hold: None, and every
    symbol its class tree covers (and, for words, unknown ones) or
    integers on both sides of every threshold."""
    if vkind in dtm.CATEGORICAL_KINDS:
        tree = schema.encoders[vkind]
        unknown = UNKNOWN_WORDS if tree.fallback is not None else ()
        return [None] + sorted(tree.codes) + list(unknown)
    near = {t + d for t in dtm.SIZE_THRESHOLDS for d in (-1, 0, 1)}
    return [None] + sorted(near | {0, 64})


def histories(schema):
    return st.tuples(*(st.sampled_from(slot_values(schema, vkind))
                       for _, vkind in schema.slots))


def assert_same_node(tree, schema, history):
    assert walk(tree, history) == reference_walk(tree, schema, history)


@pytest.fixture(scope="module")
def reloaded(toy_model_set, tmp_path_factory):
    path = tmp_path_factory.mktemp("walk") / "toy.model"
    modelfile.save_model_set(toy_model_set, toy_config(), path)
    return modelfile.load_model_set(path)


@pytest.mark.parametrize("kind", derivation.KINDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_walk_matches_the_reference(toy_model_set, reloaded, kind, data):
    history = data.draw(histories(toy_model_set.models[kind].schema))
    for model_set in (toy_model_set, reloaded):
        model = model_set.models[kind]
        assert_same_node(model.tree, model.schema, history)


@pytest.mark.parametrize("kind", derivation.KINDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_max_leaf_probability_bounds_every_filled_history(toy_model_set,
                                                          reloaded, kind,
                                                          data):
    history = data.draw(histories(toy_model_set.models[kind].schema))
    hidden = data.draw(st.sets(st.integers(0, len(history) - 1)))
    partial = tuple(dtm.UNKNOWN if i in hidden else value
                    for i, value in enumerate(history))
    for model_set in (toy_model_set, reloaded):
        model = model_set.models[kind]
        reached = model.predict(history).max()
        assert dtm.max_leaf_probability(model.tree, history,
                                        model.smoothed) == reached
        assert dtm.max_leaf_probability(model.tree, partial,
                                        model.smoothed) >= reached
    everything = (dtm.UNKNOWN,) * len(history)
    leaves = [dist.max() for i, dist in enumerate(model.smoothed)
              if model.tree.slots[i] < 0]
    assert dtm.max_leaf_probability(model.tree, everything,
                                    model.smoothed) == max(leaves)


@pytest.fixture(scope="module")
def forced():
    schema, events = test_dtm.tagging_fixture(300, seed=9)
    return schema, as_forced_order_tree(schema, schema.questions(), events)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_walk_matches_the_reference_on_a_forced_order_tree(forced, data):
    schema, tree = forced
    history = data.draw(histories(schema))
    assert_same_node(tree, schema, history)


def test_walk_reads_only_the_questioned_slots(toy_model_set):
    model = toy_model_set.models[derivation.KIND_TAG]
    tree = model.tree
    read = {s for s in tree.slots if s >= 0}
    # slots whose class trees have no fallback: an uncovered symbol there
    # cannot be encoded
    unread = [i for i, (_, vkind) in enumerate(model.schema.slots)
              if i not in read and vkind in ("tag", "label", "extension")]
    assert unread, "every such slot is questioned; pick another model"
    history = [None] * tree.width
    for i in unread:
        history[i] = "no such symbol"  # would fail to encode
    with pytest.raises(UnknownId):
        model.schema.encode_history(tuple(history))
    assert walk(tree, tuple(history)) == \
        reference_walk(tree, model.schema, (None,) * tree.width)


def test_unknown_word_takes_the_fallback_code(toy_model_set):
    word_tree = toy_model_set.class_trees["word"]
    unk = word_tree.codes[UNK]
    assert unk and word_tree.codes["never seen"] == unk
    tag_tree = toy_model_set.class_trees["tag"]
    with pytest.raises(UnknownId):
        tag_tree.codes["never seen"]
    # a one-question tree on a bit that the unknown-word code sets
    schema = toy_model_set.models[derivation.KIND_TAG].schema
    assert schema.slots[0][1] == "word"
    counts = np.zeros(len(schema.futures), dtype=np.int64)
    tree = FlatTree(schema)
    for question in (dtm.Question(0, "bit", (unk & -unk).bit_length() - 1),
                     None, None):
        tree.add(dtm.DTNode(counts, question))
    history = ("never seen",) + (None,) * (tree.width - 1)
    assert walk(tree, history) == tree.yes[0]


def test_history_length_is_checked(toy_model_set):
    model = toy_model_set.models[derivation.KIND_LABEL]
    with pytest.raises(SlotLayoutMismatch):
        walk(model.tree, (None,) * (model.tree.width - 1))
    with pytest.raises(SlotLayoutMismatch):
        model.predict((None,) * (model.tree.width + 1))
