"""Decision-tree growing, the forced-order n-gram equivalence, smoothing."""

import math
import random
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtparser import dtm
from dtparser.classtree import fixed_class_tree
from dtparser.config import Config
from dtparser.dtm import (SIZE_THRESHOLDS, DTNode, FlatTree, ModelSchema,
                          Question, SmoothedModel, _entropy_bits,
                          interpolate, iter_nodes, smooth, walk)
from dtparser.errors import NoEvents, SlotLayoutMismatch

from reference import (as_forced_order_tree, encode_events, reference_em,
                       reference_grow)

CFG = Config(min_events=2, min_gain=0.01)


def numeric_schema(*names, futures=("x", "y")):
    return ModelSchema(kind="tag", slots=tuple((n, "count") for n in names),
                       encoders={}, futures=futures)


def ev(history, future):
    """An event as these tests write it: a (history, future) pair, the
    form `smooth` takes held-out events in."""
    return tuple(history), future


def grow(events, schema, config):
    """`dtm.grow` on the columns of (history, future) `events`, their
    histories encoded by `ModelSchema.encode_histories`."""
    return dtm.grow(encode_events(events, schema), schema, config)


# --- growing ---

def test_pure_node_stays_a_leaf():
    schema = numeric_schema("A")
    root = grow([ev((i,), "x") for i in range(10)], schema, CFG).nodes[0]
    assert root.is_leaf
    assert root.counts.tolist() == [10, 0]
    assert root.empirical().tolist() == [1.0, 0.0]


def test_min_events_stops_splitting():
    schema = numeric_schema("A")
    events = [ev((1,), "x"), ev((2,), "y"), ev((1,), "x"), ev((2,), "y")]
    assert grow(events, schema, CFG.replace(min_events=5)).nodes[0].is_leaf
    assert not grow(events, schema, CFG).nodes[0].is_leaf


def test_min_gain_stops_splitting():
    schema = numeric_schema("A")
    perfect = [ev((1,), "x")] * 4 + [ev((2,), "y")] * 4
    assert not grow(perfect, schema, CFG).nodes[0].is_leaf
    assert grow(perfect, schema, CFG.replace(min_gain=2.0)).nodes[0].is_leaf
    # an uninformative slot offers no gain at all
    noise = [ev((1,), "x"), ev((2,), "x"), ev((1,), "y"), ev((2,), "y")]
    assert grow(noise, schema, CFG).nodes[0].is_leaf


def test_max_depth_stops_splitting():
    schema = numeric_schema("A", "B")
    futures = ("p", "q", "r", "s")
    events = []
    for a in (1, 2):
        for b in (1, 2):
            events += [ev((a, b), futures[2 * (a - 1) + (b - 1)])] * 3
    shallow = grow(events, ModelSchema("tag", schema.slots, {}, futures),
                   CFG.replace(max_depth=1))
    assert not shallow.nodes[0].is_leaf
    assert shallow.nodes[shallow.yes[0]].is_leaf
    assert shallow.nodes[shallow.no[0]].is_leaf
    assert grow(events, ModelSchema("tag", schema.slots, {}, futures),
                CFG.replace(max_depth=0)).nodes[0].is_leaf


def test_root_question_on_the_predictive_slot():
    # slot A separates the futures perfectly, slot B is noise
    schema = numeric_schema("A", "B")
    events = [ev((1, 1 + i % 2), "x") for i in range(4)] + \
             [ev((2, 1 + i % 2), "y") for i in range(4)]
    tree = grow(events, schema, CFG)
    assert tree.nodes[0].question == Question(slot=0, kind="le", arg=1)
    assert tree.nodes[tree.yes[0]].counts.tolist() == [4, 0]
    assert tree.nodes[tree.no[0]].counts.tolist() == [0, 4]


def test_gain_tie_breaks_to_the_earliest_slot():
    # slots A and C are identical, so their best questions tie exactly
    schema = numeric_schema("A", "B", "C")
    events = [ev((a, 1 + i % 2, a), "x" if a == 1 else "y")
              for i, a in enumerate([1] * 4 + [2] * 4)]
    assert grow(events, schema, CFG).nodes[0].question.slot == 0


def test_threshold_tie_breaks_to_the_smallest():
    # cuts at 3 and at 4 produce the same split of {3, 5}
    schema = numeric_schema("A")
    events = [ev((3,), "x")] * 4 + [ev((5,), "y")] * 4
    assert grow(events, schema, CFG).nodes[0].question == Question(0, "le", 3)


def test_bit_question_on_a_categorical_slot():
    tree = fixed_class_tree(["s0", "s1", "s2", "s3"], 2)
    schema = ModelSchema("tag", (("W", "tag"),), {"tag": tree}, ("x", "y"))
    events = [ev((s,), "x" if s in ("s0", "s1") else "y")
              for s in ("s0", "s1", "s2", "s3") for _ in range(2)]
    # the futures follow bit 1 of the code (s2, s3 vs s0, s1)
    assert grow(events, schema, CFG).nodes[0].question == Question(0, "bit", 1)


def test_isnull_beats_an_equivalent_numeric_cut():
    # `A is null?` and `A <= 8?` induce the same partition; the null
    # question comes first in the canonical order so it wins the tie
    schema = numeric_schema("A")
    events = [ev((None,), "x")] * 4 + [ev((7,), "y")] * 4
    assert grow(events, schema, CFG).nodes[0].question == \
        Question(0, "isnull", 0)


def _node_summary(tree):
    """(node id, question, counts) per node, in preorder."""
    return [(i, node.question, node.counts.tolist())
            for i, node in enumerate(iter_nodes(tree))]


def test_growing_is_deterministic():
    rng = random.Random(9)
    schema = numeric_schema("A", "B", "C")
    events = [ev((rng.randrange(4), rng.randrange(4), rng.randrange(4)),
                 rng.choice("xy")) for _ in range(200)]
    assert _node_summary(grow(events, schema, CFG)) == \
        _node_summary(grow(events, schema, CFG))


def _tree_table(tree):
    """Everything a grown FlatTree holds: per node its question, counts and
    total, and the parent, yes and no links."""
    return ([(node.question, node.counts.tolist(), node.total)
             for node in tree.nodes], tree.parent, tree.yes, tree.no)


SYMBOLS = [f"s{i}" for i in range(8)]


@st.composite
def tie_prone_events(draw):
    """A schema and events whose slots copy or complement a few base
    columns, so that many questions split a node identically or into
    swapped halves and their gains tie exactly.  A numeric complement is
    5 - v (`le t` on it is `not le 4-t` on the base) and a categorical
    one flips every code bit; a missing value stays missing."""
    n_base = draw(st.integers(1, 3))
    base_kinds = draw(st.lists(st.sampled_from(["count", "tag"]),
                               min_size=n_base, max_size=n_base))
    layout = draw(st.lists(  # (base column, complemented?) per slot
        st.tuples(st.integers(0, n_base - 1), st.booleans()),
        min_size=1, max_size=4))
    futures = ("x", "y", "z")[:draw(st.integers(2, 3))]
    values = {"count": st.one_of(st.none(), st.integers(0, 5)),
              "tag": st.one_of(st.none(), st.sampled_from(SYMBOLS))}
    rows = draw(st.lists(
        st.tuples(st.tuples(*(values[kind] for kind in base_kinds)),
                  st.sampled_from(futures)),
        min_size=1, max_size=40))

    def slot_value(value, flip):
        if value is None or not flip:
            return value
        if isinstance(value, int):
            return 5 - value
        return SYMBOLS[7 - SYMBOLS.index(value)]

    slots = tuple((f"S{i}", base_kinds[b]) for i, (b, _) in enumerate(layout))
    schema = ModelSchema("tag", slots, {"tag": fixed_class_tree(SYMBOLS, 3)},
                         futures)
    events = [ev([slot_value(base[b], flip) for b, flip in layout], future)
              for base, future in rows]
    return schema, events


def _root_gain(events, schema):
    """The exact gain of the root's best question, 0.0 if none gains."""
    tree = reference_grow(events, schema,
                          Config(min_events=1, max_depth=1, min_gain=0.0))
    if tree.nodes[0].is_leaf:
        return 0.0
    root, yes, no = (tree.nodes[i] for i in (0, tree.yes[0], tree.no[0]))
    return _entropy_bits(root.counts) - (
        yes.total * _entropy_bits(yes.counts)
        + no.total * _entropy_bits(no.counts)) / root.total


@settings(max_examples=50, deadline=None)
@given(tie_prone_events(), st.sampled_from([1, 2, 4]), st.integers(0, 6),
       st.sampled_from(["zero", "small", "at", "above"]))
def test_grow_equals_the_scalar_reference(case, min_events, max_depth, edge):
    # `at` and `above` put min_gain exactly on, and just over, the gain of
    # the root's best question: the root splits at one and not the other
    schema, events = case
    gain = _root_gain(events, schema)
    min_gain = {"zero": 0.0, "small": 0.01, "at": gain,
                "above": math.nextafter(gain, math.inf)}[edge]
    config = Config(min_events=min_events, max_depth=max_depth,
                    min_gain=min_gain)
    assert _tree_table(grow(events, schema, config)) == \
        _tree_table(reference_grow(events, schema, config))


@pytest.mark.parametrize("seed", [2, 5])
def test_grow_equals_the_scalar_reference_on_a_tagging_model(seed):
    schema, events = tagging_fixture(400, seed)
    config = Config(min_events=2, min_gain=0.0)
    assert _tree_table(grow(events, schema, config)) == \
        _tree_table(reference_grow(events, schema, config))


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


def test_questions_come_in_the_canonical_order():
    schema = ModelSchema("tag", (("A", "count"), ("B", "tag")),
                         {"tag": fixed_class_tree(["a", "b", "c"], 3)}, ("x",))
    assert schema.questions() == [
        Question(0, "isnull"),
        *(Question(0, "le", t) for t in SIZE_THRESHOLDS),
        Question(1, "isnull"), Question(1, "bit", 0), Question(1, "bit", 1)]


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
    flat = as_forced_order_tree(schema, questions, events)
    table = {}
    for history, future in events:
        table.setdefault(history, Counter())[future] += 1
    for history, futures in table.items():
        node = flat.nodes[walk(flat, history)]
        expected = [futures.get(f, 0) for f in schema.futures]
        assert node.counts.tolist() == expected
    # the question order cannot change the counts, only the tree shape
    flipped = as_forced_order_tree(schema, list(reversed(questions)), events)
    for history in table:
        assert flipped.nodes[walk(flipped, history)].counts.tolist() == \
            flat.nodes[walk(flat, history)].counts.tolist()


def test_unobserved_history_reaches_a_zero_count_leaf():
    # the tree is complete: unobserved answer patterns end in empty leaves
    schema, events = tagging_fixture(200, seed=4)
    flat = as_forced_order_tree(schema, schema.questions(), events)
    node = flat.nodes[walk(flat, ("w7", None, None))]  # w7 never occurs
    assert node.is_leaf and node.total == 0


def test_forced_order_tree_deeper_than_the_recursion_limit():
    # one event answers yes to every question, so each no branch is an
    # empty leaf and the tree is as deep as the question list is long
    schema = numeric_schema("A")
    depth = sys.getrecursionlimit() + 500
    questions = [Question(0, "le", t) for t in range(depth)]
    tree = as_forced_order_tree(schema, questions, [ev((0,), "x")])
    assert tree.complete and len(tree.nodes) == 2 * depth + 1
    assert tree.nodes[walk(tree, (0,))].counts.tolist() == [1, 0]
    assert walk(tree, (depth,)) == tree.no[0] == 2 * depth


def test_walk_rejects_a_missing_branch():
    """A walk never meets a missing branch: a model refuses a tree that
    lacks one, and a complete tree takes no further node."""
    schema = numeric_schema("A")
    tree = FlatTree(schema)
    assert not tree.complete
    tree.add(DTNode(np.array([1, 1]), Question(0, "le", 1)))
    tree.add(DTNode(np.array([1, 0])))  # the no branch is never added
    assert not tree.complete
    with pytest.raises(ValueError, match="not complete"):
        SmoothedModel(schema, tree, {0: 0.5, 1: 0.5}, heldout_used=False)
    tree.add(DTNode(np.array([0, 1])))
    assert tree.complete
    with pytest.raises(ValueError, match="complete"):
        tree.add(DTNode(np.array([0, 1])))


def test_build_places_every_node_in_preorder():
    # the shape I(I(L, L), I(L, I(L, L))), internal nodes I and leaves L
    shape = (((), ()), ((), ((), ())))

    def split(sub):
        question = Question(0, "le", 1) if sub else None
        return DTNode(np.array([1, 1]), question), [(s,) for s in sub]

    tree = FlatTree.build(numeric_schema("A"), split, (shape,))
    assert tree.complete
    assert [node.is_leaf for node in tree.nodes] == \
        [False, False, True, True, False, True, False, True, True]
    assert tree.parent == [-1, 0, 1, 1, 0, 4, 4, 6, 6]
    assert tree.yes == [1, 2, -1, -1, 5, -1, 7, -1, -1]
    assert tree.no == [4, 3, -1, -1, 6, -1, 8, -1, -1]


# --- smoothing ---

def leaf_smoothed(counts, lam):
    """The smoothed distribution of a lone leaf under lambda `lam`."""
    tree = FlatTree(numeric_schema("A"))
    tree.add(DTNode(np.asarray(counts)))
    bucket = tree.nodes[0].total.bit_length() - 1
    return interpolate(tree, {bucket: lam})[0]


def test_lambda_one_reproduces_the_empirical_distribution():
    assert leaf_smoothed([6, 2], 1.0).tolist() == [0.75, 0.25]


def test_lambda_zero_reproduces_the_uniform_distribution():
    assert leaf_smoothed([6, 2], 0.0).tolist() == [0.5, 0.5]


def em_fixture():
    schema = ModelSchema("tag", (("A", "count"),), {}, ["x", "y", "z"])
    grow_events = ([ev((1,), "x")] * 8
                   + [ev((2,), "y")] * 6 + [ev((2,), "z")] * 2)
    tree = as_forced_order_tree(schema, [Question(0, "le", 1)], grow_events)
    heldout = ([ev((1,), "x")] * 4 + [ev((1,), "y")] * 2
               + [ev((2,), "y")] * 2 + [ev((2,), "x")] * 1)
    return schema, tree, heldout


def test_em_matches_a_grid_search():
    """The fitted lambdas agree with brute force within 0.02.

    The fixture is a one-question tree: the root (16 events, count
    bucket 4) over two leaves (8 events each, bucket 3).  The held-out
    likelihood is computed independently below and maximised over a
    0.01-step grid in the two bucket lambdas.
    """
    schema, tree, heldout = em_fixture()
    model = smooth(tree, heldout, schema, CFG)
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
    schema, tree, heldout = em_fixture()
    model = smooth(tree, heldout, schema, CFG)
    assert len(model.em_log) > 1
    for earlier, later in zip(model.em_log, model.em_log[1:]):
        assert later >= earlier - 1e-9 * max(1.0, abs(earlier))


def test_smoothed_distributions_are_normalized_and_positive():
    schema, tree, heldout = em_fixture()
    model = smooth(tree, heldout, schema, CFG)
    # only the leaves keep a distribution, since only they are reached
    assert [dist is None for dist in model.smoothed] == \
        [not node.is_leaf for node in model.nodes]
    for dist in model.smoothed[1:]:
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert dist.min() > 0.0
    # a future never seen anywhere still has probability through the
    # uniform root parent
    assert model.predict((1,))[schema.future_index["z"]] > 0.0


def test_lambda_stays_below_the_cap():
    schema, tree, _ = em_fixture()
    # held-out data drawn exactly from the leaves pushes lambda up hard
    greedy = [ev((1,), "x")] * 50 + [ev((2,), "y")] * 37 + [ev((2,), "z")] * 13
    model = smooth(tree, greedy, schema, CFG)
    for lam in model.bucket_lambdas.values():
        assert 0.0 <= lam <= CFG.lambda_max


@pytest.mark.parametrize("cap", [0.3, 0.1])
def test_em_under_a_cap_below_one_half_never_loses_likelihood(cap):
    """EM starts inside its feasible box, so clipping an M-step to the cap
    cannot lower the held-out likelihood."""
    schema, tree, _ = em_fixture()
    greedy = [ev((1,), "x")] * 50 + [ev((2,), "y")] * 37 + [ev((2,), "z")] * 13
    model = smooth(tree, greedy, schema, CFG.replace(lambda_max=cap))
    assert len(model.em_log) > 1
    assert all(b >= a for a, b in zip(model.em_log, model.em_log[1:]))
    assert all(0.0 <= lam <= cap for lam in model.bucket_lambdas.values())


def test_no_heldout_falls_back_to_the_fixed_schedule():
    schema, tree, _ = em_fixture()
    model = smooth(tree, [], schema, CFG)
    assert not model.heldout_used
    assert model.em_log == []
    assert model.bucket_lambdas == {3: 8 / 16, 4: 16 / 24}


def _hex_fit(lambdas, em_log):
    return ({b: lam.hex() for b, lam in lambdas.items()},
            [ll.hex() for ll in em_log])


def assert_em_matches_the_oracle(tree, heldout, schema, config):
    model = smooth(tree, heldout, schema, config)
    assert _hex_fit(model.bucket_lambdas, model.em_log) == \
        _hex_fit(*reference_em(tree, heldout, schema, config))
    return model


def path_lengths(tree, events):
    """The number of nodes on the root-to-leaf path of each event."""
    lengths = set()
    for history, _ in events:
        i, n = walk(tree, history), 1
        while (i := tree.parent[i]) >= 0:
            n += 1
        lengths.add(n)
    return lengths


EM_LEVELS = 20
EM_SCHEMA_SLOTS = tuple(f"A{k}" for k in range(EM_LEVELS))
EM_GROW = Config(min_events=1, min_gain=0.0)


def one_hot(level):
    return [1 + (k == level) for k in range(EM_LEVELS)]


def caterpillar_tree(levels, futures):
    """The tree `grow` grows from events whose history is 2 in the slot of
    their level and 1 elsewhere, with the futures `levels[j]` at level j.
    The only questions that split such events set one level apart from
    the rest, so the tree is a spine that sheds a level at every node, and
    its paths run up to one node per level."""
    schema = numeric_schema(*EM_SCHEMA_SLOTS, futures=futures)
    events = [ev(one_hot(j), future)
              for j, level in enumerate(levels) for future in level]
    return schema, grow(events, schema, EM_GROW)


@st.composite
def em_cases(draw):
    """A caterpillar tree of up to 20 levels, each with a future of its
    own and a few drawn ones, and held-out events for it: most at one
    level, so that they follow the spine, and some anywhere."""
    n_levels = draw(st.integers(1, EM_LEVELS))
    futures = tuple(f"f{j}" for j in range(max(2, n_levels)))
    levels = [[futures[j]] * draw(st.integers(1, 3))
              + draw(st.lists(st.sampled_from(futures), max_size=2))
              for j in range(n_levels)]
    schema, tree = caterpillar_tree(levels, futures)
    history = st.one_of(
        st.builds(one_hot, st.integers(0, n_levels - 1)),
        st.lists(st.sampled_from([1, 2, None]),
                 min_size=EM_LEVELS, max_size=EM_LEVELS))
    heldout = draw(st.lists(st.builds(ev, history, st.sampled_from(futures)),
                            min_size=1, max_size=40))
    return schema, tree, heldout


@settings(max_examples=25, deadline=None)
@given(em_cases(), st.sampled_from([0, 1, 2, 7, 40]),
       st.sampled_from([0.1, 0.3, 0.5, 0.9, 1.0 - 1e-4]),
       st.sampled_from([0.0, 1e-6, 1e-3]))
def test_em_equals_the_per_group_oracle(case, iterations, cap, tolerance):
    """Fitting every (leaf, future) group at once gives the lambdas and
    log-likelihoods, float for float, of fitting them one at a time."""
    schema, tree, heldout = case
    assert_em_matches_the_oracle(tree, heldout, schema, CFG.replace(
        em_max_iterations=iterations, lambda_max=cap, em_tolerance=tolerance))


def deep_em_fixture():
    """A 20-level caterpillar with a future of its own per level, and
    held-out events whose paths run from under 8 nodes to over 16, across
    the lengths where numpy's sums change scheme."""
    rng = random.Random(23)
    futures = tuple(f"f{j}" for j in range(EM_LEVELS))
    schema, tree = caterpillar_tree(
        [[future] * (1 + j % 3) for j, future in enumerate(futures)], futures)
    heldout = [ev(one_hot(j), rng.choice(futures))
               for j in range(EM_LEVELS) for _ in range(rng.randrange(1, 6))]
    return schema, tree, heldout


@pytest.mark.parametrize("override", [
    {}, {"em_max_iterations": 0}, {"em_max_iterations": 1},
    {"lambda_max": 0.1}, {"lambda_max": 0.3}, {"em_tolerance": 0.0}])
def test_em_equals_the_oracle_on_deep_paths(override):
    schema, tree, heldout = deep_em_fixture()
    lengths = path_lengths(tree, heldout)
    assert min(lengths) < 8 and any(8 <= n < 16 for n in lengths) \
        and max(lengths) > 16
    model = assert_em_matches_the_oracle(tree, heldout, schema,
                                         CFG.replace(**override))
    if "em_max_iterations" in override:
        assert len(model.em_log) == override["em_max_iterations"]


def test_em_equals_the_oracle_on_a_root_only_tree():
    schema, tree = caterpillar_tree([["x"], ["x", "x"]], ("x", "y", "z"))
    assert len(tree.nodes) == 1
    heldout = [ev(one_hot(j), future)
               for j, future in enumerate("xyzzyxxx")]
    model = assert_em_matches_the_oracle(tree, heldout, schema, CFG)
    assert len(model.em_log) > 1


@pytest.mark.parametrize("iterations", [0, 1, 40])
def test_a_node_with_no_events_takes_its_parents_distribution(iterations):
    """A forced-order tree's branch that no grow event reaches is smoothed
    with a lambda of 0, so it sums to 1 whatever its count bucket's
    lambda, and EM fits the other lambdas as the oracle does."""
    schema = numeric_schema("A")
    tree = as_forced_order_tree(schema, [Question(0, "le", 1)],
                                [ev((5,), "x"), ev((5,), "y"), ev((5,), "x")])
    empty, root = tree.nodes[tree.yes[0]], tree.nodes[0]
    assert empty.total == 0
    heldout = [ev((1,), "y"), ev((5,), "x")]
    config = CFG.replace(em_max_iterations=iterations, lambda_max=0.1)
    model = assert_em_matches_the_oracle(tree, heldout, schema, config)
    lam = model.bucket_lambdas[root.total.bit_length() - 1]
    assert model.smoothed[tree.yes[0]].tolist() == [
        lam * (c / root.total) + (1.0 - lam) * 0.5
        for c in root.counts.tolist()]


def test_predict_walks_to_the_right_leaf():
    schema, tree, heldout = em_fixture()
    model = smooth(tree, heldout, schema, CFG)
    yes = model.predict((1,))
    no = model.predict((2,))
    assert yes[schema.future_index["x"]] > no[schema.future_index["x"]]
    assert walk(model.tree, (0,)) == walk(model.tree, (1,))


def test_iter_nodes_is_preorder():
    _, tree, _ = em_fixture()
    nodes = list(iter_nodes(tree))
    assert nodes == tree.nodes
    assert tree.parent == [-1, 0, 0] and (tree.yes[0], tree.no[0]) == (1, 2)
    assert [node.counts.tolist() for node in nodes] == \
        [[8, 6, 2], [8, 0, 0], [0, 6, 2]]
