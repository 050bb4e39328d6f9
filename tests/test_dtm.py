"""Decision-tree growing, the forced-order n-gram equivalence, smoothing."""

import math
import random
from collections import Counter

import numpy as np
import pytest

from dtparser.classtree import fixed_class_tree
from dtparser.config import Config
from dtparser.derivation import DerivationEvent
from dtparser.dtm import (FlatTree, ModelSchema, Question, SmoothedModel,
                          as_forced_order_tree, grow, iter_nodes, smooth,
                          walk)
from dtparser.errors import NoEvents, SlotLayoutMismatch

CFG = Config(min_events=2, min_gain=0.01)


def numeric_schema(*names, futures=("x", "y")):
    return ModelSchema(kind="tag", slots=tuple((n, "count") for n in names),
                       encoders={}, futures=futures)


def ev(history, future):
    return DerivationEvent(kind="tag", history=tuple(history), future=future)


# --- growing ---

def test_pure_node_stays_a_leaf():
    schema = numeric_schema("A")
    root = grow([ev((i,), "x") for i in range(10)], schema, CFG)
    assert root.is_leaf
    assert root.counts.tolist() == [10, 0]
    assert root.empirical().tolist() == [1.0, 0.0]


def test_min_events_stops_splitting():
    schema = numeric_schema("A")
    events = [ev((1,), "x"), ev((2,), "y"), ev((1,), "x"), ev((2,), "y")]
    assert grow(events, schema, CFG.replace(min_events=5)).is_leaf
    assert not grow(events, schema, CFG).is_leaf


def test_min_gain_stops_splitting():
    schema = numeric_schema("A")
    perfect = [ev((1,), "x")] * 4 + [ev((2,), "y")] * 4
    assert not grow(perfect, schema, CFG).is_leaf
    assert grow(perfect, schema, CFG.replace(min_gain=2.0)).is_leaf
    # an uninformative slot offers no gain at all
    noise = [ev((1,), "x"), ev((2,), "x"), ev((1,), "y"), ev((2,), "y")]
    assert grow(noise, schema, CFG).is_leaf


def test_max_depth_stops_splitting():
    schema = numeric_schema("A", "B")
    futures = ("p", "q", "r", "s")
    events = []
    for a in (1, 2):
        for b in (1, 2):
            events += [ev((a, b), futures[2 * (a - 1) + (b - 1)])] * 3
    shallow = grow(events, ModelSchema("tag", schema.slots, {}, futures),
                   CFG.replace(max_depth=1))
    assert not shallow.is_leaf
    assert shallow.yes.is_leaf and shallow.no.is_leaf
    assert grow(events, ModelSchema("tag", schema.slots, {}, futures),
                CFG.replace(max_depth=0)).is_leaf


def test_root_question_on_the_predictive_slot():
    # slot A separates the futures perfectly, slot B is noise
    schema = numeric_schema("A", "B")
    events = [ev((1, 1 + i % 2), "x") for i in range(4)] + \
             [ev((2, 1 + i % 2), "y") for i in range(4)]
    root = grow(events, schema, CFG)
    assert root.question == Question(slot=0, kind="le", arg=1)
    assert root.yes.counts.tolist() == [4, 0]
    assert root.no.counts.tolist() == [0, 4]


def test_gain_tie_breaks_to_the_earliest_slot():
    # slots A and C are identical, so their best questions tie exactly
    schema = numeric_schema("A", "B", "C")
    events = [ev((a, 1 + i % 2, a), "x" if a == 1 else "y")
              for i, a in enumerate([1] * 4 + [2] * 4)]
    assert grow(events, schema, CFG).question.slot == 0


def test_threshold_tie_breaks_to_the_smallest():
    # cuts at 3 and at 4 produce the same split of {3, 5}
    schema = numeric_schema("A")
    events = [ev((3,), "x")] * 4 + [ev((5,), "y")] * 4
    assert grow(events, schema, CFG).question == Question(0, "le", 3)


def test_bit_question_on_a_categorical_slot():
    tree = fixed_class_tree(["s0", "s1", "s2", "s3"], 2)
    schema = ModelSchema("tag", (("W", "tag"),), {"tag": tree}, ("x", "y"))
    events = [ev((s,), "x" if s in ("s0", "s1") else "y")
              for s in ("s0", "s1", "s2", "s3") for _ in range(2)]
    # the futures follow bit 1 of the code (s2, s3 vs s0, s1)
    assert grow(events, schema, CFG).question == Question(0, "bit", 1)


def test_isnull_beats_an_equivalent_numeric_cut():
    # `A is null?` and `A <= 8?` induce the same partition; the null
    # question comes first in the canonical order so it wins the tie
    schema = numeric_schema("A")
    events = [ev((None,), "x")] * 4 + [ev((7,), "y")] * 4
    assert grow(events, schema, CFG).question == Question(0, "isnull", 0)


def _node_summary(root):
    """(node id, question, counts) per node, in preorder."""
    return [(i, node.question, node.counts.tolist())
            for i, node in enumerate(iter_nodes(root))]


def test_growing_is_deterministic():
    rng = random.Random(9)
    schema = numeric_schema("A", "B", "C")
    events = [ev((rng.randrange(4), rng.randrange(4), rng.randrange(4)),
                 rng.choice("xy")) for _ in range(200)]
    assert _node_summary(grow(events, schema, CFG)) == \
        _node_summary(grow(events, schema, CFG))


def test_no_events():
    schema = numeric_schema("A")
    with pytest.raises(NoEvents):
        grow([], schema, CFG)
    with pytest.raises(NoEvents):
        as_forced_order_tree(schema, [], [])


def test_history_length_is_checked():
    schema = numeric_schema("A", "B")
    with pytest.raises(SlotLayoutMismatch):
        schema.encode_history((1,))


def test_grown_nodes_questions_and_counts():
    schema = numeric_schema("A")
    events = [ev((1,), "x")] * 4 + [ev((2,), "y")] * 4
    assert _node_summary(grow(events, schema, CFG)) == [
        (0, Question(0, "le", 1), [4, 4]),
        (1, None, [4, 0]),
        (2, None, [0, 4])]


def test_histories_encode_column_by_column():
    tree = fixed_class_tree(["a", "b", "c"], 2)
    schema = ModelSchema("tag", (("A", "count"), ("B", "tag")),
                         {"tag": tree}, ("x",))
    vals, nulls = schema.encode_histories([(3, "c"), (None, "b"), (0, None)])
    assert vals.tolist() == [[3, 2], [0, 1], [0, 0]]
    assert nulls.tolist() == [[False, False], [True, False], [False, True]]
    for row, history in enumerate([(3, "c"), (None, "b"), (0, None)]):
        one_vals, one_nulls = schema.encode_history(history)
        assert one_vals.tolist() == vals[row].tolist()
        assert one_nulls.tolist() == nulls[row].tolist()


# --- forced-order trees are n-gram lookup tables ---

def tagging_fixture(n_events, seed, words=None):
    words = words or [f"w{i}" for i in range(6)]
    tags = ["t0", "t1", "t2", "t3"]
    schema = ModelSchema(
        "tag", (("w", "word"), ("t-1", "tag"), ("t-2", "tag")),
        {"word": fixed_class_tree([f"w{i}" for i in range(8)], 3),
         "tag": fixed_class_tree(tags, 2)},
        tags)
    rng = random.Random(seed)
    events = []
    prev = (None, None)
    for _ in range(n_events):
        if rng.random() < 0.1:
            prev = (None, None)  # sentence break
        word = rng.choice(words)
        ideal = (int(word[1:]) + 2 * tags.index(prev[0] or "t0")
                 + 3 * tags.index(prev[1] or "t0")) % 4
        future = tags[ideal] if rng.random() < 0.8 else rng.choice(tags)
        events.append(ev((word, prev[0], prev[1]), future))
        prev = (future, prev[0])
    return schema, events


def test_forced_order_tree_is_the_conditional_table():
    schema, events = tagging_fixture(400, seed=2)
    questions = schema.questions()
    root = as_forced_order_tree(schema, questions, events)
    table = {}
    for event in events:
        table.setdefault(event.history, Counter())[event.future] += 1
    flat = FlatTree(root, schema)
    for history, futures in table.items():
        node = flat.nodes[walk(flat, history)]
        expected = [futures.get(f, 0) for f in schema.futures]
        assert node.counts.tolist() == expected
    # the question order cannot change the counts, only the tree shape
    flipped = FlatTree(as_forced_order_tree(
        schema, list(reversed(questions)), events), schema)
    for history in table:
        assert flipped.nodes[walk(flipped, history)].counts.tolist() == \
            flat.nodes[walk(flat, history)].counts.tolist()


def test_unobserved_history_reaches_a_zero_count_leaf():
    # the tree is complete: unobserved answer patterns end in empty leaves
    schema, events = tagging_fixture(200, seed=4)
    flat = FlatTree(as_forced_order_tree(schema, schema.questions(), events),
                    schema)
    node = flat.nodes[walk(flat, ("w7", None, None))]  # w7 never occurs
    assert node.is_leaf and node.total == 0


def test_walk_rejects_a_missing_branch():
    import dtparser.dtm as dtm
    schema = numeric_schema("A")
    root = dtm.DTNode(np.array([1, 1]))
    root.question = Question(0, "le", 1)
    root.no = dtm.DTNode(np.array([0, 1]))  # yes branch never built
    with pytest.raises(KeyError):
        walk(FlatTree(root, schema), (1,))


# --- smoothing ---

def leaf_model(counts, lam, futures=("x", "y")):
    import dtparser.dtm as dtm
    node = dtm.DTNode(np.asarray(counts))
    bucket = node.total.bit_length() - 1
    schema = numeric_schema("A", futures=futures)
    return SmoothedModel(schema, node, {bucket: lam}, heldout_used=True,
                         em_log=[])


def test_lambda_one_reproduces_the_empirical_distribution():
    model = leaf_model([6, 2], 1.0)
    assert model.smoothed[0].tolist() == [0.75, 0.25]


def test_lambda_zero_reproduces_the_uniform_distribution():
    model = leaf_model([6, 2], 0.0)
    assert model.smoothed[0].tolist() == [0.5, 0.5]


def test_distribution_orders_by_probability_then_symbol():
    model = leaf_model([1, 3], 1.0, futures=("b", "a"))
    assert model.distribution((1,)) == [("a", 0.75), ("b", 0.25)]
    tied = leaf_model([2, 2], 1.0, futures=("b", "a"))
    assert [f for f, _ in tied.distribution((1,))] == ["a", "b"]


def em_fixture():
    schema = ModelSchema("tag", (("A", "count"),), {}, ["x", "y", "z"])
    grow_events = ([ev((1,), "x")] * 8
                   + [ev((2,), "y")] * 6 + [ev((2,), "z")] * 2)
    root = as_forced_order_tree(schema, [Question(0, "le", 1)], grow_events)
    heldout = ([ev((1,), "x")] * 4 + [ev((1,), "y")] * 2
               + [ev((2,), "y")] * 2 + [ev((2,), "x")] * 1)
    return schema, root, heldout


def test_em_matches_a_grid_search():
    """The fitted lambdas agree with brute force within 0.02.

    The fixture is a one-question tree: the root (16 events, count
    bucket 4) over two leaves (8 events each, bucket 3).  The held-out
    likelihood is computed independently below and maximised over a
    0.01-step grid in the two bucket lambdas.
    """
    schema, root, heldout = em_fixture()
    model = smooth(root, heldout, schema, CFG)
    assert model.heldout_used
    assert sorted(model.bucket_lambdas) == [3, 4]

    emp = {"root": {"x": 0.5, "y": 0.375, "z": 0.125},
           "yes": {"x": 1.0, "y": 0.0, "z": 0.0},
           "no": {"x": 0.0, "y": 0.75, "z": 0.25}}
    counts = {("yes", "x"): 4, ("yes", "y"): 2, ("no", "y"): 2, ("no", "x"): 1}

    def loglik(lam_leaf, lam_root):
        total = 0.0
        for (leaf, f), count in counts.items():
            mid = lam_root * emp["root"][f] + (1 - lam_root) / 3
            p = lam_leaf * emp[leaf][f] + (1 - lam_leaf) * mid
            if p <= 0.0:
                return -math.inf
            total += count * math.log(p)
        return total

    best = max((loglik(a / 100, b / 100), a / 100, b / 100)
               for a in range(101) for b in range(101))
    assert model.bucket_lambdas[3] == pytest.approx(best[1], abs=0.02)
    assert model.bucket_lambdas[4] == pytest.approx(best[2], abs=0.02)
    assert model.em_log[-1] <= best[0] + 1e-9


def test_em_heldout_loglik_is_nondecreasing():
    schema, root, heldout = em_fixture()
    model = smooth(root, heldout, schema, CFG)
    assert len(model.em_log) > 1
    for earlier, later in zip(model.em_log, model.em_log[1:]):
        assert later >= earlier - 1e-9 * max(1.0, abs(earlier))


def test_smoothed_distributions_are_normalized_and_positive():
    schema, root, heldout = em_fixture()
    model = smooth(root, heldout, schema, CFG)
    for dist in model.smoothed:
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert dist.min() > 0.0
    # a future never seen anywhere still has probability through the
    # uniform root parent
    assert model.predict((1,))[schema.future_index["z"]] > 0.0


def test_lambda_stays_below_the_cap():
    schema, root, _ = em_fixture()
    # held-out data drawn exactly from the leaves pushes lambda up hard
    greedy = [ev((1,), "x")] * 50 + [ev((2,), "y")] * 37 + [ev((2,), "z")] * 13
    model = smooth(root, greedy, schema, CFG)
    for lam in model.bucket_lambdas.values():
        assert 0.0 <= lam <= CFG.lambda_max


def test_no_heldout_falls_back_to_the_fixed_schedule():
    schema, root, _ = em_fixture()
    model = smooth(root, [], schema, CFG)
    assert not model.heldout_used
    assert model.em_log == []
    assert model.bucket_lambdas == {3: 8 / 16, 4: 16 / 24}


def test_predict_walks_to_the_right_leaf():
    schema, root, heldout = em_fixture()
    model = smooth(root, heldout, schema, CFG)
    yes = model.predict((1,))
    no = model.predict((2,))
    assert yes[schema.future_index["x"]] > no[schema.future_index["x"]]
    assert walk(model.tree, (0,)) == walk(model.tree, (1,))


def test_iter_nodes_is_preorder():
    schema, root, _ = em_fixture()
    nodes = list(iter_nodes(root))
    assert FlatTree(root, schema).nodes == nodes
    assert nodes[0] is root and nodes[1] is root.yes and nodes[2] is root.no
