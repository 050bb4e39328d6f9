"""Decision-tree conditional models.

A model estimates P(future | history) by walking a binary question tree
to a leaf and reading off a smoothed distribution.  Histories are fixed
slot tuples; every question asks one yes/no fact about one slot:

* ``isnull``  -- is the slot value missing?
* ``bit b``   -- is bit b of the slot's class-tree code set?  A code is
  a plain int; a missing value has none, so it answers no.
* ``le t``    -- is the numeric slot value <= t?

Trees are grown by greedy splitting on the question with the largest
reduction in future entropy, and smoothed by interpolating every node's
relative-frequency distribution with its parent's smoothed distribution,

    P~(f | node) = lambda_node * P_emp(f | node) + (1 - lambda_node) * P~(f | parent),

with the uniform distribution standing in as the root's parent so every
future keeps nonzero probability.  The lambdas are tied across nodes in
buckets of floor(log2(training count)) and fit by expectation
maximisation on held-out events.  `smooth` walks each held-out event to
its leaf once, groups the events by (leaf, future), and lays the groups'
root-to-leaf paths out as rows of one padded matrix; each EM iteration
is then a fixed number of whole-array passes over every group at once,
summed in the order that keeps the lambdas bit-identical to fitting one
group at a time (see `smooth`).

Growing takes every slot of every event at once, as columns: an int code
array and a nulls mask that marks the missing values.  Training gathers
them from the codes of its events' rows, each distinct row encoded once
(`encode_rows`, `ModelSchema.gather`); `encode_histories` encodes tuple
histories into the same columns slot by slot.  From them growing builds
one bool matrix of every event's answer to every question, and scores
all questions of a node in one pass over the node's rows; the few whose
gain is within rounding of the best are scored again one at a time, so
the question asked, and its tie-break toward the earliest, is exactly
that of the scalar formula.  Prediction, and the held-out grouping in
`smooth`, instead `walk` the tree, reading only the slot each question
on its path reads and encoding it alone.  Both look codes up in the one
symbol -> int table of each class tree, `ClassTree.codes`.

A tree has one form, a `FlatTree`: one table of per-node lists in
preorder, which growing and loading both fill one node at a time
through `FlatTree.add`, with no linked copy and no recursion.  A node's
id is its index in that preorder; the smoothed distributions, the model
file and `walk` all index nodes so.  A model holds only complete trees,
in which each internal node has both branches.
"""

import logging
import math
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateDistribution, NoEvents, SlotLayoutMismatch,
                     UnknownId)

log = logging.getLogger(__name__)

SIZE_THRESHOLDS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 40)
CATEGORICAL_KINDS = ("word", "tag", "label", "extension")
NUMERIC_KINDS = ("count", "width")

# The questions training asks of a slot, by its value kind: each question
# kind in canonical order, the arguments it takes given the kind's class
# tree (None for a number), and those in words.  Bits at or beyond a class
# tree's depth are 0 in every code, so they are never asked.
_ASK_NULL = {"isnull": (lambda tree: (0,), "isnull 0")}
QUESTIONS = {
    **dict.fromkeys(CATEGORICAL_KINDS, {**_ASK_NULL, "bit": (
        lambda tree: range(tree.depth),
        "a bit below its class tree's depth {tree.depth}")}),
    **dict.fromkeys(NUMERIC_KINDS, {**_ASK_NULL, "le": (
        lambda tree: SIZE_THRESHOLDS,
        f"le a threshold in {'/'.join(map(str, SIZE_THRESHOLDS))}")}),
}

# Count bucket b covers training counts in [2^b, 2^(b+1)).  Without held-out
# data the lambda of bucket b falls back to this fixed schedule.
_FALLBACK_PIVOT = 8.0


class Question(NamedTuple):
    slot: int
    kind: str  # "isnull" | "bit" | "le"
    arg: int = 0

    def answer_array(self, slot_vals, slot_nulls):
        if self.kind == "isnull":
            return slot_nulls.copy()
        if self.kind == "bit":
            return ((slot_vals >> self.arg) & 1).astype(bool) & ~slot_nulls
        return (slot_vals <= self.arg) & ~slot_nulls


class ModelSchema:
    """Slot layout, value encoders and future vocabulary of one model."""

    def __init__(self, kind, slots, encoders, futures):
        self.kind = kind
        self.slots = tuple(slots)  # (name, value kind) pairs
        self.encoders = dict(encoders)  # value kind -> ClassTree
        self.futures = list(futures)
        self.future_index = {f: i for i, f in enumerate(self.futures)}

    def questions(self):
        """Every candidate question of `QUESTIONS`, in the canonical
        (slot, kind) order used for deterministic tie-breaking."""
        return [Question(slot, kind, arg)
                for slot, (_, vkind) in enumerate(self.slots)
                for kind, (args, _) in QUESTIONS[vkind].items()
                for arg in args(self.encoders.get(vkind))]

    def encode_histories(self, histories):
        """Codes and nulls mask of tuple histories, one row per history,
        filled one slot column at a time by `encode_column`: the columns
        that `gather` builds from rows, here from every slot written out."""
        width = len(self.slots)
        for history in histories:
            if len(history) != width:
                raise SlotLayoutMismatch(
                    f"history has {len(history)} slots, schema expects {width}")
        vals = np.zeros((len(histories), width), dtype=np.int64)
        nulls = np.zeros((len(histories), width), dtype=bool)
        columns = zip(self.slots, zip(*histories))
        for i, ((_, vkind), column) in enumerate(columns):
            vals[:, i], nulls[:, i] = encode_column(column, vkind,
                                                    self.encoders)
        return vals, nulls

    def encode_history(self, history):
        """`encode_histories` of the one history: its codes and nulls."""
        vals, nulls = self.encode_histories([history])
        return vals[0], nulls[0]

    def gather(self, row_codes, events, sources):
        """The (codes, nulls, future indices) columns of `events`, each of
        which reads the rows `event.rows` of `row_codes`, an `encode_rows`
        result, one per queried node, and took the value `event.future`.
        Slot i, whose source `sources[i]` is (node, feature), is that
        feature's codes at each event's row of that node: every slot is
        one numpy gather.  A symbol a class tree lacks raises UnknownId at
        its first event in the first slot that reads it, as
        `encode_histories` would."""
        if len(sources) != len(self.slots):
            raise SlotLayoutMismatch(f"history has {len(sources)} slots, "
                                     f"schema expects {len(self.slots)}")
        codes, nulls, rows = row_codes
        nodes, features = np.array(sources, dtype=np.intp).T
        refs = np.array([event.rows for event in events], dtype=np.intp)
        at = refs.reshape(len(events), nodes.max() + 1)[:, nodes]
        vals = codes[at, features]
        if vals.min(initial=0) == UNCOVERED:
            slot, event = np.argwhere((vals == UNCOVERED).T)[0]
            table = self.encoders[self.slots[slot][1]].codes
            table[rows[at[event, slot]][features[slot]]]  # raises UnknownId
        futures = np.array([self.future_index[event.future]
                            for event in events], dtype=np.int64)
        return vals, nulls[at, features], futures


def encode_column(values, vkind, encoders):
    """The codes and null flags of `values`, a column of value kind
    `vkind`: a categorical value's code comes from its class tree's
    table, a numeric value is its own code, and a missing value is code 0
    with its null flag set."""
    code = (encoders[vkind].codes.__getitem__ if vkind in CATEGORICAL_KINDS
            else int)
    return ([0 if value is None else code(value) for value in values],
            [value is None for value in values])


UNCOVERED = -1  # the code `encode_rows` gives a symbol its class tree lacks


def encode_rows(rows, kinds, encoders):
    """The (codes, nulls, rows) of `rows`, whose feature f is of value kind
    `kinds[f]`: a row of codes and of null flags per row, each feature's
    column encoded once by `encode_column`; a row shorter than `kinds`
    lacks its last features.  A symbol a class tree lacks is coded
    UNCOVERED, so that `ModelSchema.gather` raises UnknownId for it only
    where a model reads it."""
    codes = np.zeros((len(rows), len(kinds)), dtype=np.int64)
    nulls = np.ones((len(rows), len(kinds)), dtype=bool)
    for f, column in enumerate(zip_longest(*rows)):
        try:
            codes[:, f], nulls[:, f] = encode_column(column, kinds[f],
                                                     encoders)
        except UnknownId:  # so the class tree has no fallback to code
            table = encoders[kinds[f]].codes
            codes[:, f] = [0 if value is None else table.get(value, UNCOVERED)
                           for value in column]
            nulls[:, f] = [value is None for value in column]
    return codes, nulls, rows


class DTNode:
    """A tree node: its question (None at a leaf) and counts per future."""

    __slots__ = ("question", "counts", "total")

    def __init__(self, counts, question=None, total=None):
        self.question = question
        self.counts = counts
        self.total = int(counts.sum()) if total is None else total

    @property
    def is_leaf(self):
        return self.question is None

    def empirical(self):
        if self.total == 0:
            return np.zeros_like(self.counts, dtype=float)
        return self.counts / self.total


def iter_nodes(tree):
    """The nodes of FlatTree `tree` in preorder, each at its id."""
    return iter(tree.nodes)


def _entropy_bits(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _xlog2x(counts):
    """counts * log2(counts) elementwise, 0 where a count is 0."""
    return counts * np.log2(np.maximum(counts, 1))


def grow(columns, schema, config):
    """CART-style tree growing by entropy reduction, from the (codes,
    nulls, future indices) `columns` of the events, one row per event, as
    `ModelSchema.gather` and `future_index` give them.

    Splitting stops when a node holds fewer than `config.min_events`
    events, sits at `config.max_depth`, or no question gains at least
    `config.min_gain` bits.  Gain ties break toward the earliest question
    in the canonical order, so growing is deterministic.

    Every event's answer to every question is one bool matrix, built once.
    A node scores all its questions in one pass: a column sum of the
    matrix rows of each future present gives every question's yes-counts,
    and array arithmetic their gains.  Those can round differently from
    the scalar formula, so the questions within a hair of the best are
    scored again with `_entropy_bits`, in canonical order, and the
    earliest one with the largest exact gain is asked: the same question,
    tie-break and `min_gain` test as scoring each question alone.
    """
    vals, nulls, futures = columns
    if not len(futures):
        raise NoEvents(f"no events to grow a {schema.kind} model from")
    questions = schema.questions()
    answers = np.empty((len(futures), len(questions)), dtype=bool)
    for qi, q in enumerate(questions):
        answers[:, qi] = q.answer_array(vals[:, q.slot], nulls[:, q.slot])
    n_futures = len(schema.futures)

    def split(idx, depth):
        counts = np.bincount(futures[idx], minlength=n_futures)
        node = DTNode(counts)
        n = len(idx)
        if n < config.min_events or depth >= config.max_depth:
            return node, ()
        here = _entropy_bits(counts)
        if here == 0.0:
            return node, ()
        # yes[q, j]: the events of the j-th future present that q answers yes
        present = counts[counts > 0]
        groups = np.split(idx[np.argsort(futures[idx])], np.cumsum(present)[:-1])
        yes = np.stack([answers[rows].sum(axis=0, dtype=np.int64)
                        for rows in groups], axis=1)
        no = present - yes
        n_yes = yes.sum(axis=1)
        gains = here - (_xlog2x(n_yes) - _xlog2x(yes).sum(axis=1)
                        + _xlog2x(n - n_yes) - _xlog2x(no).sum(axis=1)) / n
        valid = (n_yes > 0) & (n_yes < n)  # both sides non-empty
        top = gains.max(where=valid, initial=-np.inf)
        near = valid & (gains >= top - 1e-9 * max(1.0, abs(top)))
        best_gain, best_qi = 0.0, None
        for qi in np.flatnonzero(near):
            k = int(n_yes[qi])
            gain = here - (k * _entropy_bits(yes[qi])
                           + (n - k) * _entropy_bits(no[qi])) / n
            if gain > best_gain:
                best_gain = gain
                best_qi = int(qi)
        if best_qi is None or best_gain < config.min_gain:
            return node, ()
        node.question = questions[best_qi]
        mask = answers[idx, best_qi]
        return node, ((idx[mask], depth + 1), (idx[~mask], depth + 1))

    return FlatTree.build(schema, split, (np.arange(len(futures)), 0))


# How a node of a FlatTree answers, by question kind.
_ISNULL, _BIT, _LE = 0, 1, 2
QUESTION_KINDS = {"isnull": _ISNULL, "bit": _BIT, "le": _LE}


class FlatTree:
    """A decision tree as one table of per-node lists in preorder: the one
    form of every tree, grown or loaded, and the form `walk` follows.

    `add` appends nodes in preorder, so a node's id is its index and comes
    after its parent `parent[i]` (-1 at the root).  An internal node asks
    question kind `kinds[i]` with argument `args[i]` of history slot
    `slots[i]` and goes on to node `yes[i]` or `no[i]` (-1 until added); a
    leaf has slot -1.  `tables[i]` encodes the slot's value: the class
    tree's `codes`, one per value kind and shared by every slot and node
    of that kind, or None for a numeric slot, whose value is its own code.
    The tree is `complete` once every internal node has both branches.
    """

    __slots__ = ("nodes", "width", "parent", "slots", "kinds", "args",
                 "tables", "yes", "no", "_schema", "_open")

    def __init__(self, schema):
        self._schema = schema
        self.width = len(schema.slots)
        self.nodes, self.parent, self.yes, self.no = [], [], [], []
        self.slots, self.kinds, self.args, self.tables = [], [], [], []
        self._open = []  # internal nodes still missing a branch, in order

    @property
    def complete(self):
        return bool(self.nodes) and not self._open

    def add(self, node):
        """Append DTNode `node` at the next place in preorder: the root, or
        else the yes branch of the last internal node still missing one,
        or else that node's no branch."""
        i = len(self.nodes)
        if self._open:
            parent = self._open[-1]
            if self.yes[parent] < 0:
                self.yes[parent] = i
            else:
                self.no[parent] = i
                self._open.pop()
        elif self.nodes:
            raise ValueError("a complete tree takes no more nodes")
        else:
            parent = -1
        self.nodes.append(node)
        self.parent.append(parent)
        self.yes.append(-1)
        self.no.append(-1)
        q = node.question
        if q is None:
            self.slots.append(-1)
            self.kinds.append(None)
            self.args.append(0)
            self.tables.append(None)
            return
        vkind = self._schema.slots[q.slot][1]
        self.slots.append(q.slot)
        self.kinds.append(QUESTION_KINDS[q.kind])
        self.args.append(q.arg)
        self.tables.append(self._schema.encoders[vkind].codes
                           if vkind in CATEGORICAL_KINDS else None)
        self._open.append(i)

    @classmethod
    def build(cls, schema, split, item):
        """The tree that `split` grows from `item`, built with an explicit
        stack: `split(*item)` returns a node and the items of its yes and
        no children, or the node and () for a leaf."""
        tree = cls(schema)
        todo = [item]
        while todo:
            node, children = split(*todo.pop())
            tree.add(node)
            todo.extend(reversed(children))
        return tree


UNKNOWN = object()  # a history slot that may hold any value


def walk(tree, history, node=0):
    """Follow the questions of complete FlatTree `tree` from node `node`,
    the root by default; the id of the reached leaf, or of the first node
    on the way whose question reads a slot holding UNKNOWN.  Only the
    slots the questions read are encoded: a missing value answers `isnull`
    yes and every other question no, and a symbol its class tree does not
    cover raises UnknownId (unless the tree has a fallback) only when a
    question reads its slot."""
    if len(history) != tree.width:
        raise SlotLayoutMismatch(
            f"history has {len(history)} slots, schema expects {tree.width}")
    slots, kinds, args, tables = tree.slots, tree.kinds, tree.args, tree.tables
    yes, no = tree.yes, tree.no
    i = node
    while (slot := slots[i]) >= 0:
        value = history[slot]
        kind = kinds[i]
        if value is None:
            answer = kind == _ISNULL
        elif value is UNKNOWN:
            return i
        elif kind == _ISNULL:
            answer = False
        else:
            table = tables[i]
            code = int(value) if table is None else table[value]
            answer = code >> args[i] & 1 if kind == _BIT else code <= args[i]
        i = yes[i] if answer else no[i]
    return i


def max_leaf_probability(tree, history, dists):
    """The largest probability that a leaf of FlatTree `tree` reachable
    from `history` gives any future, where `dists[i]` is node i's
    distribution.  A question on a slot holding UNKNOWN follows both
    branches, and `walk` answers every other, so the result bounds
    `dists[walk(tree, h)]` for every history h that agrees with `history`
    outside its UNKNOWN slots."""
    best = 0.0
    todo = [0]
    while todo:
        i = walk(tree, history, todo.pop())
        if tree.slots[i] < 0:
            best = max(best, float(dists[i].max()))
        else:
            todo.extend((tree.yes[i], tree.no[i]))
    return best


class SmoothedModel:
    """A complete tree and its leaves' smoothed distributions; the predictor.
    `smoothed[i]` is leaf i's distribution over `schema.futures` and None
    at an internal node, where no walk ends.  It derives them from the node
    counts and bucket lambdas alike for a trained tree and for one read
    from a model file, which stores only those.

    The rows are read-only, so no caller of `predict` can change what
    later predictions read.  `log_row(i)` is row i as natural logs, the
    form search adds up; it is filled the first time a decision reaches
    leaf i, since a parse reaches few of the leaves."""

    def __init__(self, schema, tree, bucket_lambdas, heldout_used,
                 em_log=()):
        if not tree.complete:
            raise ValueError(f"the {schema.kind} tree is not complete")
        self.schema = schema
        self.tree = tree
        self.root = tree.nodes[0]
        self.nodes = tree.nodes
        self.bucket_lambdas = dict(bucket_lambdas)
        self.smoothed = interpolate(tree, self.bucket_lambdas)
        self._log_rows = [None] * len(self.smoothed)
        self.heldout_used = heldout_used
        self.em_log = list(em_log)  # held-out log-likelihood per iteration

    def predict(self, history):
        """Probabilities over `schema.futures` (read-only array)."""
        return self.smoothed[walk(self.tree, history)]

    def log_row(self, leaf):
        """The natural logs of leaf `leaf`'s probabilities, as a list over
        `schema.futures`, computed the first time a decision reaches it."""
        row = self._log_rows[leaf]
        if row is None:
            row = self._log_rows[leaf] = [
                math.log(p) for p in self.smoothed[leaf].tolist()]
        return row


def count_bucket(node):
    return node.total.bit_length() - 1 if node.total > 0 else 0


def interpolate(tree, bucket_lambdas):
    """The leaves' smoothed distributions as read-only arrays, None at
    internal nodes.  In preorder, float by float, each node interpolates
    its relative frequencies with its parent's smoothed distribution (the
    uniform one at the root) by its count bucket's lambda, and a node with
    no events, which has no relative frequencies, by a lambda of 0: it
    takes its parent's distribution.  A node whose distribution is not
    positive and summing to 1 raises DegenerateDistribution."""
    n_futures = len(tree.nodes[0].counts)
    uniform = [1.0 / n_futures] * n_futures
    smoothed = []
    rows = [None] * len(tree.nodes)
    for i, (node, parent) in enumerate(zip(tree.nodes, tree.parent)):
        lam = bucket_lambdas[count_bucket(node)] if node.total else 0.0
        rest = 1.0 - lam
        above = smoothed[parent] if parent >= 0 else uniform
        total = node.total or 1  # a node with no events counts only zeros
        dist = [lam * (c / total) + rest * a
                for c, a in zip(node.counts.tolist(), above)]
        if not (abs(sum(dist) - 1.0) <= 1e-9 and min(dist) > 0.0):
            raise DegenerateDistribution(
                f"node {i} smooths to a distribution that is not positive "
                f"and summing to 1")
        smoothed.append(dist)
        if node.is_leaf:
            rows[i] = np.array(dist)
            rows[i].setflags(write=False)
    return rows


def em_converged(em_log, tolerance):
    """Whether the last iteration of `em_log` moved the held-out
    log-likelihood by at most `tolerance`, relative to the iteration
    before it: the test on which EM stops short of `em_max_iterations`."""
    return len(em_log) > 1 and abs(em_log[-1] - em_log[-2]) <= \
        tolerance * max(1.0, abs(em_log[-2]))


def smooth(tree, heldout, schema, config):
    """Fit bucketed interpolation weights on held-out events by EM, and
    smooth FlatTree `tree` with them.  `heldout` holds each event as a
    (history, future) pair, the history any sequence of slots that
    `walk` can read.

    With no held-out events the lambdas fall back to a fixed
    count-based schedule and the model is flagged (`heldout_used`).
    The held-out log-likelihood is non-decreasing across iterations;
    this is asserted.

    Held-out events are grouped by (leaf, future), so EM's cost scales
    with the groups, not the events.  Every iteration is a fixed number of
    whole-array passes over all groups at once, each group one row of the
    same width: its path's nodes from the root down, right-aligned, behind
    padding that reads a lambda of 0 from an extra bucket, as a node with
    no events does (see `interpolate`).  Four rules
    keep the sums, and so the lambdas and `em_log`, bit-identical to
    fitting one group at a time:

    * a group's mixture sums its row's real positions alone, one path
      length at a time, since numpy's pairwise sum adds in order below 8
      terms and through 8 accumulators from 8 up, and padding would
      regroup the terms;
    * the products of (1 - lambda) below each node are one
      `np.multiply.accumulate` from the leaf up, the padding adding
      factors of 1.0 after the root;
    * the log-likelihood adds each group's `math.log` in group order;
    * the expected counts per bucket are one `np.add.at` over the rows
      flattened root to leaf, group by group: the order of adding each
      group's path in turn.

    `tests/reference.py`'s `reference_em` fits the groups one at a time;
    the tests hold the two equal as `float.hex`.
    """
    buckets = sorted({count_bucket(n) for n in tree.nodes})
    if not heldout:
        log.warning("no held-out events for the %s model; using the fixed "
                    "lambda schedule", schema.kind)
        lambdas = {b: 2.0 ** b / (2.0 ** b + _FALLBACK_PIVOT) for b in buckets}
        return SmoothedModel(schema, tree, lambdas, heldout_used=False)

    groups = {}
    for history, future in heldout:
        key = (walk(tree, history), schema.future_index[future])
        groups[key] = groups.get(key, 0) + 1

    # Per reached leaf, its path's nodes from the root down.
    paths = {}
    for leaf_id, _ in groups:
        if leaf_id not in paths:
            path = [leaf_id]
            while (parent := tree.parent[path[-1]]) >= 0:
                path.append(parent)
            path.reverse()
            paths[leaf_id] = path

    # One row per group: the relative frequency of its future at each node
    # of its path, and the position of the node's bucket's lambda, right-
    # aligned behind padding at position `pad`, whose lambda is 0.  A node
    # with no events reads its lambda of 0 there too, as in `interpolate`.
    pad = len(buckets)
    bucket_pos = {b: i for i, b in enumerate(buckets)}
    width = max(map(len, paths.values()))
    emp = np.zeros((len(groups), width))
    slots = np.full((len(groups), width), pad)
    rows_by_length = {}
    for g, (leaf_id, future) in enumerate(groups):
        path = paths[leaf_id]
        emp[g, width - len(path):] = [
            tree.nodes[i].empirical()[future] for i in path]
        slots[g, width - len(path):] = [
            bucket_pos[count_bucket(tree.nodes[i])] if tree.nodes[i].total
            else pad for i in path]
        rows_by_length.setdefault(len(path), []).append(g)
    rows_by_length = [(n, np.array(rows)) for n, rows in rows_by_length.items()]
    slots = slots.ravel()
    counts = list(groups.values())
    count_col = np.array(counts, dtype=float)[:, None]
    leaf_col = np.ones((len(groups), 1))

    # The padding takes no responsibility, so its lambda stays 0.
    lam = np.full(len(buckets) + 1, min(0.5, config.lambda_max))
    lam[pad] = 0.0
    uniform = 1.0 / len(schema.futures)
    em_log = []
    for _ in range(config.em_max_iterations):
        lam_path = lam[slots].reshape(emp.shape)
        # suffix[:, j] = prod_{i>=j}(1-lam); deeper[:, j] = prod_{i>j}(1-lam)
        suffix = np.multiply.accumulate((1.0 - lam_path)[:, ::-1],
                                        axis=1)[:, ::-1]
        deeper = np.concatenate((suffix[:, 1:], leaf_col), axis=1)
        contrib = lam_path * deeper * emp
        mix = np.empty(len(groups))
        for n, rows in rows_by_length:
            mix[rows] = contrib[rows, width - n:].sum(axis=1)
        rest = suffix[:, 0] * uniform
        mix += rest
        ll = 0.0
        for count, m in zip(counts, mix.tolist()):
            ll += count * math.log(m)
        resp = contrib / mix[:, None]
        visited = (rest / mix)[:, None] + np.cumsum(resp, axis=1)
        num = np.zeros(len(lam))
        den = np.zeros(len(lam))
        np.add.at(num, slots, (count_col * resp).ravel())
        np.add.at(den, slots, (count_col * visited).ravel())
        if em_log:
            assert ll >= em_log[-1] - 1e-9 * max(1.0, abs(em_log[-1])), \
                "EM held-out log-likelihood decreased"
        em_log.append(ll)
        lam = np.where(den > 0, np.clip(num / np.maximum(den, 1e-300), 0.0,
                                        config.lambda_max), lam)
        if em_converged(em_log, config.em_tolerance):
            break
    bucket_lambdas = {b: float(lam[bucket_pos[b]]) for b in buckets}
    return SmoothedModel(schema, tree, bucket_lambdas, heldout_used=True,
                         em_log=em_log)
