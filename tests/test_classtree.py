"""Class-tree clustering: codes, merges and mutual information."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtparser.classtree import (ClassTree, _greedy_merges, _MergeLosses,
                                build_class_tree, fixed_class_tree)
from dtparser.dtm import ModelSchema, Question
from dtparser.errors import BadSetting, EmptyVocabulary, UnknownId

from reference import (Merge, assign_codes, average_mutual_information,
                       merge_losses)


def test_bitstring_bits_and_text():
    # a code is a plain int: bit b is the branch at depth b, which a bit
    # question reads, and character b of the exported text
    tree = ClassTree(codes={"c": 0b101}, budget=4, depth=3, truncated=False)
    code = np.array([tree.codes["c"]])
    nulls = np.zeros(1, dtype=bool)
    assert [int(Question(0, "bit", b).answer_array(code, nulls)[0])
            for b in range(4)] == [1, 0, 1, 0]
    # padded with zeros to the budget
    assert tree.export_text() == "c\t1010\n"


def test_null_code_is_distinct_from_every_real_code():
    # a missing value has no code of its own: it is code 0, like "a", but
    # flagged in the nulls mask, which `isnull` reads and every bit
    # question answers no for
    tree = fixed_class_tree(["a", "b"], 3)
    schema = ModelSchema("tag", (("A", "tag"),), {"tag": tree}, ("x",))
    vals, nulls = schema.encode_histories([(None,), ("a",), ("b",)])
    assert vals[:, 0].tolist() == [0, 0, 1]
    assert nulls[:, 0].tolist() == [True, False, False]
    isnull = Question(0, "isnull").answer_array(vals[:, 0], nulls[:, 0])
    assert isnull.tolist() == [True, False, False]
    for b in range(tree.depth):
        bit = Question(0, "bit", b).answer_array(vals[:, 0], nulls[:, 0])
        assert not bit[0]


def test_fixed_class_tree_uses_index_bits():
    tree = fixed_class_tree(("right", "left", "up", "unary", "root"), 3)
    assert [tree.codes[s] for s in
            ("right", "left", "up", "unary", "root")] == [0, 1, 2, 3, 4]
    assert all(type(code) is int for code in tree.codes.values())
    assert tree.depth == 3
    assert not tree.truncated


def test_fixed_class_tree_capacity():
    with pytest.raises(BadSetting, match="budget of 1 bits"):
        fixed_class_tree(["a", "b", "c"], 1)
    with pytest.raises(EmptyVocabulary):
        fixed_class_tree([], 3)


# --- mutual information ---

def test_ami_of_perfect_alternation_is_one_bit():
    assert average_mutual_information([[0, 1], [1, 0]]) == 1.0


def test_ami_of_independent_classes_is_zero():
    assert average_mutual_information([[1, 1], [1, 1]]) == pytest.approx(0.0)
    assert average_mutual_information([[0, 0], [0, 0]]) == 0.0


def test_merge_losses_match_direct_ami_difference():
    rng = random.Random(3)
    m = np.array([[rng.randrange(6) for _ in range(4)] for _ in range(4)],
                 dtype=float)
    losses = merge_losses(m)
    for a in range(4):
        for b in range(a + 1, 4):
            merged = m.copy()
            merged[a, :] += merged[b, :]
            merged[:, a] += merged[:, b]
            merged = np.delete(np.delete(merged, b, axis=0), b, axis=1)
            direct = (average_mutual_information(m)
                      - average_mutual_information(merged))
            assert losses[a, b] == pytest.approx(direct, abs=1e-12)


# Mostly zeros, so that rows, columns and whole matrices are often empty.
COUNTS = st.sampled_from([0, 0, 0, 0, 1, 2, 3, 7, 40, 1000])


def _count_lists(data, k):
    return [float(c) for c in data.draw(st.lists(COUNTS, min_size=k, max_size=k))]


def _assert_tracks_the_oracle(losses, reference):
    assert np.array_equal(losses.m, reference)
    oracle = merge_losses(reference)
    incremental = losses.losses()
    assert np.array_equal(np.isinf(incremental), np.isinf(oracle))
    finite = np.isfinite(oracle)
    assert np.abs(incremental[finite] - oracle[finite]).max(initial=0.0) <= 1e-12
    if len(reference) > 1:
        a, b = np.unravel_index(int(np.argmin(oracle)), oracle.shape)
        assert losses.best() == (a, b)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_incremental_losses_track_the_oracle(data):
    """Through merges and admissions the kept-up-to-date losses stay within
    rounding of a full recompute, and the pick is the oracle's argmin."""
    k = data.draw(st.integers(1, 6))
    reference = np.array([_count_lists(data, k) for _ in range(k)])
    losses = _MergeLosses(reference)
    _assert_tracks_the_oracle(losses, reference)
    for _ in range(data.draw(st.integers(0, 8))):
        k = len(reference)
        if k > 1 and data.draw(st.booleans()):
            a = data.draw(st.integers(0, k - 2))
            b = data.draw(st.integers(a + 1, k - 1))
            losses.merge(a, b)
            reference[a, :] += reference[b, :]
            reference[:, a] += reference[:, b]
            reference = np.delete(np.delete(reference, b, axis=0), b, axis=1)
        else:
            row, col = _count_lists(data, k), _count_lists(data, k)
            self_count = float(data.draw(COUNTS))
            losses.admit(np.array(row), np.array(col), self_count)
            reference = np.block([[reference, np.array(col)[:, None]],
                                  [np.array(row + [self_count])[None, :]]])
        _assert_tracks_the_oracle(losses, reference)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_exact_ties_break_like_the_oracle(data):
    """Twin classes (equal counts) tie in exact arithmetic but not always
    after rounding; the pick must still be the oracle's."""
    k = data.draw(st.integers(1, 3))
    base = np.array([_count_lists(data, k) for _ in range(k)])
    twins = np.kron(base, np.ones((data.draw(st.integers(2, 3)),) * 2))
    order = data.draw(st.permutations(range(len(twins))))
    twins = twins[np.ix_(order, order)]
    _assert_tracks_the_oracle(_MergeLosses(twins), twins)


def test_zero_total_picks_the_first_pair():
    losses = _MergeLosses(np.zeros((3, 3)))
    assert losses.best() == (0, 1)
    assert np.array_equal(losses.losses(), merge_losses(np.zeros((3, 3))))


# --- greedy agglomerative growing ---

# a and b have identical co-occurrence profiles, as do c and d, so those
# two merges lose no mutual information and must happen first.
PAIRED_BIGRAMS = {("a", "c"): 8, ("a", "d"): 2, ("b", "c"): 8, ("b", "d"): 2,
                  ("c", "a"): 3, ("c", "b"): 3, ("d", "a"): 3, ("d", "b"): 3}


def test_profile_twins_merge_first():
    symbols = ["a", "b", "c", "d"]
    merges = _greedy_merges(symbols, PAIRED_BIGRAMS, window=256)
    assert {frozenset(pair) for pair in merges[:2]} == \
        {frozenset("ab"), frozenset("cd")}
    assert len(merges) == 3  # n - 1 merges in total
    tree = build_class_tree(symbols, PAIRED_BIGRAMS, budget=4)
    assert tree.depth == 2
    # the final merge splits {a,b} from {c,d} at the root bit
    bit0 = {sym: tree.codes[sym] & 1 for sym in "abcd"}
    assert bit0["a"] == bit0["b"] != bit0["c"] == bit0["d"]


def _class_matrix(partition, bigrams):
    k = len(partition)
    m = [[0.0] * k for _ in range(k)]
    where = {sym: i for i, group in enumerate(partition) for sym in group}
    for (a, b), count in bigrams.items():
        m[where[a]][where[b]] += count
    return m


def _plain_ami(matrix):
    total = sum(sum(row) for row in matrix)
    if total == 0:
        return 0.0
    rows = [sum(row) for row in matrix]
    cols = [sum(col) for col in zip(*matrix)]
    ami = 0.0
    for i, row in enumerate(matrix):
        for j, cell in enumerate(row):
            if cell:
                ami += cell / total * math.log2(cell * total / (rows[i] * cols[j]))
    return ami


def test_every_merge_is_greedy_minimal():
    """Replay the recorded merge history against a from-scratch search."""
    rng = random.Random(17)
    symbols = ["s1", "s2", "s3", "s4", "s5", "s6"]
    bigrams = Counter()
    for _ in range(300):
        bigrams[rng.choice(symbols), rng.choice(symbols)] += 1
    merges = _greedy_merges(symbols, bigrams, window=256)
    assert len(merges) == 5

    classes = {s: frozenset({s}) for s in symbols}  # by name
    for a, b in merges:
        partition = list(classes.values())
        classes[a] |= classes.pop(b)
        before = _plain_ami(_class_matrix(partition, bigrams))
        losses = []
        for i in range(len(partition)):
            for j in range(i + 1, len(partition)):
                trial = [g for k, g in enumerate(partition) if k not in (i, j)]
                trial.append(partition[i] | partition[j])
                losses.append(before - _plain_ami(_class_matrix(trial, bigrams)))
        actual = before - _plain_ami(_class_matrix(list(classes.values()),
                                                   bigrams))
        assert actual <= min(losses) + 1e-9


def test_windowed_growing_covers_everything():
    rng = random.Random(29)
    symbols = [f"w{i}" for i in range(12)]
    bigrams = Counter()
    for _ in range(400):
        bigrams[rng.choice(symbols), rng.choice(symbols)] += 1
    tree = build_class_tree(symbols, bigrams, budget=8, window=3)
    assert set(tree.codes) == set(symbols)
    assert len(_greedy_merges(symbols, bigrams, window=3)) == len(symbols) - 1
    codes = list(tree.codes.values())
    assert len(set(codes)) == len(codes)


def test_untruncated_codes_are_injective():
    tree = build_class_tree(["a", "b", "c", "d"], PAIRED_BIGRAMS, budget=4)
    codes = list(tree.codes.values())
    assert len(set(codes)) == len(codes)


def test_truncation_flag(caplog):
    symbols = list("abcdefgh")
    bigrams = {(a, b): 1 + (i % 3) for i, (a, b) in
               enumerate((x, y) for x in symbols for y in symbols)}
    tree = build_class_tree(symbols, bigrams, budget=2)
    assert tree.truncated
    assert all(0 <= c < 4 for c in tree.codes.values())
    assert all(len(line.split("\t")[1]) == 2
               for line in tree.export_text().splitlines())
    assert any("truncated" in r.message for r in caplog.records)


def test_fallback_symbol():
    tree = build_class_tree(["<unk>", "x", "y"], {("x", "y"): 2}, budget=4,
                            fallback="<unk>")
    assert tree.codes["never-seen"] == tree.codes["<unk>"]
    assert "never-seen" not in tree.codes
    strict = build_class_tree(["x", "y"], {("x", "y"): 2}, budget=4)
    with pytest.raises(UnknownId):
        strict.codes["never-seen"]
    with pytest.raises(UnknownId):
        build_class_tree(["x"], {}, budget=2, fallback="absent")


def test_empty_vocabulary():
    with pytest.raises(EmptyVocabulary):
        build_class_tree([], {}, budget=4)


def test_growing_is_deterministic():
    rng = random.Random(41)
    symbols = [f"t{i}" for i in range(9)]
    bigrams = Counter()
    for _ in range(250):
        bigrams[rng.choice(symbols), rng.choice(symbols)] += 1
    a = build_class_tree(symbols, bigrams, budget=6, window=4)
    b = build_class_tree(symbols, bigrams, budget=6, window=4)
    assert a.export_text() == b.export_text()
    assert a == b


def test_export_text():
    tree = ClassTree(codes={"b": 1, "a": 2}, budget=2, depth=2,
                     truncated=False)
    assert tree.export_text() == "a\t01\nb\t10\n"


def _reference_tree(symbols, bigrams, budget, window):
    """Greedy growing with every count matrix rebuilt from the bigrams and
    every loss recomputed by `merge_losses`: the merges, each class named
    by its first admitted symbol, and the codes, depth and truncation flag
    of walking the merge hierarchy they build."""
    index = {sym: i for i, sym in enumerate(symbols)}
    full = np.zeros((len(symbols), len(symbols)))
    for (a, b), count in bigrams.items():
        full[index[a], index[b]] += count
    mass = full.sum(axis=1) + full.sum(axis=0)
    order = sorted(range(len(symbols)), key=lambda i: (-mass[i], symbols[i]))
    queue = [[i] for i in order]
    active, queue = queue[:max(2, window)], queue[max(2, window):]
    trees = [symbols[members[0]] for members in active]
    merges = []
    while len(active) > 1:
        matrix = np.array([[full[np.ix_(a, b)].sum() for b in active]
                           for a in active])
        losses = merge_losses(matrix)
        a, b = np.unravel_index(int(np.argmin(losses)), losses.shape)
        merges.append((symbols[active[a][0]], symbols[active[b][0]]))
        trees[a] = Merge(trees[a], trees[b])
        active[a] = active[a] + active[b]
        del active[b], trees[b]
        if queue:
            active.append(queue.pop(0))
            trees.append(symbols[active[-1][0]])
    return merges, assign_codes(trees[0], budget)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 14), st.integers(2, 5), st.integers(1, 16),
       st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13),
                          st.integers(1, 9)), max_size=60))
def test_growing_equals_the_recomputing_reference(n, window, budget, pairs):
    """The merges equal the reference's, and the codes read off them by
    undoing them equal those of walking the hierarchy, truncated or not."""
    symbols = [f"w{i}" for i in range(n)]
    bigrams = Counter()
    for a, b, count in pairs:
        bigrams[symbols[a % n], symbols[b % n]] += count
    merges, (codes, depth, truncated) = _reference_tree(symbols, bigrams,
                                                        budget, window)
    assert _greedy_merges(symbols, bigrams, window) == merges
    tree = build_class_tree(symbols, bigrams, budget=budget, window=window)
    assert (tree.codes, tree.depth, tree.truncated) == \
        (codes, depth, truncated)
