"""Reference implementations that only the tests use.

Each is the plain, one-thing-at-a-time form of something the package does
faster or does not need: the tests compare the package against them, or
build fixtures with them.
"""

import math

import numpy as np

from dtparser.classtree import _loss_context, _merge_loss_row, _mi_terms
from dtparser.corpus import RawLeaf
from dtparser.derivation import (KIND_LABEL, KIND_TAG, TAG_LABEL, _pending,
                                 apply_action, initial_state, to_raw_tree)
from dtparser.dtm import DTNode, FlatTree, _entropy_bits, count_bucket, walk
from dtparser.errors import IllegalAction, NoEvents


def encode_events(events, schema):
    """The (codes, nulls, future indices) columns that `dtm.grow` takes,
    of `events`, (history, future) pairs whose histories are tuples: each
    history encoded slot by slot by `ModelSchema.encode_histories`."""
    vals, nulls = schema.encode_histories([history for history, _ in events])
    futures = np.array([schema.future_index[future] for _, future in events],
                       dtype=np.int64)
    return vals, nulls, futures


def reference_grow(events, schema, config):
    """`dtm.grow` of (history, future) `events`, scoring each question of a
    node alone: its yes mask, a `bincount` of each side and the exact
    gain, keeping the first question whose gain is strictly the largest
    and above 0."""
    if not events:
        raise NoEvents(f"no events to grow a {schema.kind} model from")
    vals, nulls, futures = encode_events(events, schema)
    questions = schema.questions()
    n_futures = len(schema.futures)

    def split(idx, depth):
        counts = np.bincount(futures[idx], minlength=n_futures)
        node = DTNode(counts)
        if len(idx) < config.min_events or depth >= config.max_depth:
            return node, ()
        here = _entropy_bits(counts)
        if here == 0.0:
            return node, ()
        best_gain = 0.0
        best_qi = None
        best_mask = None
        for qi, q in enumerate(questions):
            mask = q.answer_array(vals[idx, q.slot], nulls[idx, q.slot])
            n_yes = int(mask.sum())
            if n_yes == 0 or n_yes == len(idx):
                continue
            yes_counts = np.bincount(futures[idx[mask]], minlength=n_futures)
            no_counts = counts - yes_counts
            gain = here - (n_yes * _entropy_bits(yes_counts)
                           + (len(idx) - n_yes) * _entropy_bits(no_counts)) / len(idx)
            if gain > best_gain:
                best_gain = gain
                best_qi = qi
                best_mask = mask
        if best_qi is None or best_gain < config.min_gain:
            return node, ()
        node.question = questions[best_qi]
        return node, ((idx[best_mask], depth + 1),
                      (idx[~best_mask], depth + 1))

    return FlatTree.build(schema, split, (np.arange(len(events)), 0))


def as_forced_order_tree(schema, questions, events):
    """Split the (history, future) `events` on the given questions in
    exactly the given order.

    Every leaf then holds the events sharing one full answer pattern, so
    its relative frequencies are exactly the empirical conditional table
    for that history; the question order cannot change them.  A branch
    no event reaches becomes a zero-count leaf.
    """
    if not events:
        raise NoEvents(f"no events for a forced-order {schema.kind} model")
    vals, nulls, futures = encode_events(events, schema)
    n_futures = len(schema.futures)

    def split(idx, qpos):
        node = DTNode(np.bincount(futures[idx], minlength=n_futures))
        if qpos == len(questions) or len(idx) == 0:
            return node, ()
        q = questions[qpos]
        mask = q.answer_array(vals[idx, q.slot], nulls[idx, q.slot])
        node.question = q
        return node, ((idx[mask], qpos + 1), (idx[~mask], qpos + 1))

    return FlatTree.build(schema, split, (np.arange(len(events)), 0))


def reference_em(tree, heldout, schema, config):
    """`dtm.smooth`'s EM fit one (leaf, future) group at a time: the
    bucket lambdas, keyed by count bucket, and the held-out
    log-likelihood of every iteration.  `heldout` holds (history, future)
    pairs and is not empty.  A node with no events has a lambda of 0, as
    in `dtm.interpolate`, and takes no part in the update."""
    buckets = sorted({count_bucket(n) for n in tree.nodes})
    groups = {}
    for history, future in heldout:
        key = (walk(tree, history), schema.future_index[future])
        groups[key] = groups.get(key, 0) + 1

    bucket_pos = {b: i for i, b in enumerate(buckets)}
    paths = {}
    for leaf_id in {leaf_id for leaf_id, _ in groups}:
        path = [leaf_id]
        while tree.parent[path[0]] >= 0:
            path.insert(0, tree.parent[path[0]])
        paths[leaf_id] = (
            np.stack([tree.nodes[i].empirical() for i in path]),
            np.array([bucket_pos[count_bucket(tree.nodes[i])] for i in path]),
            np.array([tree.nodes[i].total > 0 for i in path]))

    lam = np.full(len(buckets), min(0.5, config.lambda_max))
    uniform = 1.0 / len(schema.futures)
    em_log = []
    for _ in range(config.em_max_iterations):
        num = np.zeros(len(buckets))
        den = np.zeros(len(buckets))
        ll = 0.0
        for (leaf_id, future), count in groups.items():
            emp_rows, slots, seen = paths[leaf_id]
            lam_path = np.where(seen, lam[slots], 0.0)
            one_minus = 1.0 - lam_path
            suffix = np.cumprod(one_minus[::-1])[::-1]  # prod_{i>=j}(1-lam)
            deeper = np.append(suffix[1:], 1.0)         # prod_{i>j}(1-lam)
            weights = lam_path * deeper
            emp = emp_rows[:, future]
            contrib = weights * emp
            mix = contrib.sum() + suffix[0] * uniform
            ll += count * math.log(mix)
            resp = contrib / mix
            resp_uniform = suffix[0] * uniform / mix
            visited = resp_uniform + np.cumsum(resp)
            np.add.at(num, slots[seen], (count * resp)[seen])
            np.add.at(den, slots[seen], (count * visited)[seen])
        done = bool(em_log) and abs(ll - em_log[-1]) <= \
            config.em_tolerance * max(1.0, abs(em_log[-1]))
        em_log.append(ll)
        lam = np.where(den > 0, np.clip(num / np.maximum(den, 1e-300), 0.0,
                                        config.lambda_max), lam)
        if done:
            break
    return {b: float(lam[bucket_pos[b]]) for b in buckets}, em_log


def replay(words, actions, ctx):
    """Run a (kind, value) action sequence from scratch; the final state."""
    state = initial_state(words, ctx)
    for action in actions:
        state = apply_action(state, action)
    return state


def decode(words, events, ctx):
    """Rebuild the tree encoded by `events` over `words`."""
    state = replay(words, [(e.kind, e.future) for e in events], ctx)
    if not state.complete:
        raise IllegalAction("event sequence does not complete a tree")
    return to_raw_tree(state.stack[0])


def max_unary_chain(tree):
    """Most deeply stacked unary constituents anywhere in `tree`, walked
    from the root with the run of unary constituents directly above each
    node: the oracle of `derivation.max_unary_chain`'s fold."""
    best = 0
    stack = [(tree, 0)]  # (node, unary constituents directly above it)
    while stack:
        node, above = stack.pop()
        best = max(best, above)
        if not isinstance(node, RawLeaf):
            run = above + 1 if len(node.children) == 1 else 0
            stack.extend((child, run) for child in node.children)
    return best


def merge_losses(m):
    """Loss of average MI for merging every class pair of count matrix `m`.

    Returns a k x k array; entry (a, b) with a < b is the MI drop from
    merging classes a and b.  Other entries are +inf.  This recomputes
    everything at O(k^3), row by row with `classtree._merge_loss_row`;
    `classtree.build_class_tree` keeps the losses up to date instead.
    """
    k = m.shape[0]
    losses = np.full((k, k), np.inf)
    if m.sum() == 0:
        iu = np.triu_indices(k, 1)
        losses[iu] = 0.0
        return losses
    context = _loss_context(m)
    for a in range(k - 1):
        losses[a, a + 1:] = _merge_loss_row(m, a, context)
    return losses


class Merge:
    """A node of a merge hierarchy: the classes `left` and `right` merged;
    a class that was never merged is its symbol."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


def assign_codes(tree, budget):
    """(codes, depth, truncated) of a merge hierarchy, walked from its
    root: the first merge operand branches to 0, and once the depth
    reaches the budget both operands keep their parent's code.  The oracle of the
    codes `classtree.build_class_tree` reads off its merge list."""
    codes = {}
    depth = 0
    truncated = False
    stack = [(tree, 0, 0)]  # (node, bits, depth)
    while stack:
        node, bits, d = stack.pop()
        if isinstance(node, Merge):
            if d >= budget:
                truncated = True
                stack.append((node.left, bits, d))
                stack.append((node.right, bits, d))
            else:
                stack.append((node.left, bits, d + 1))
                stack.append((node.right, bits | (1 << d), d + 1))
        else:
            codes[node] = bits
            depth = max(depth, d)
    return codes, depth, truncated


def average_mutual_information(matrix):
    """MI (bits) between left and right class of an adjacent pair, under
    the empirical distribution of `matrix` (class x class bigram counts)."""
    m = np.asarray(matrix, dtype=float)
    total = m.sum()
    if total == 0:
        return 0.0
    pl = m.sum(axis=1)
    pr = m.sum(axis=0)
    return float(_mi_terms(m, pl[:, None], pr[None, :], total).sum())


_NULL_SLOTS = (None, None, None, None, None, None)


def _node_slots(node):
    label = node.label if not node.is_leaf else TAG_LABEL
    return (node.word, node.tag, label, node.extension,
            len(node.children), node.width)


def _untagged_slots(state, i):
    # Word not yet reached by the derivation: only its surface form is known.
    if 0 <= i < len(state.words):
        return (state.words[i], None, None, None, 0, 1)
    return _NULL_SLOTS


def extract_history(state, kind=None):
    """The history of the pending decision, every slot written out by hand
    in the order of `derivation.slot_layout`: the oracle of the readers
    that `derivation` generates from its layout table."""
    actual_kind, target = _pending(state, kind)
    stack = state.stack
    if actual_kind == KIND_TAG:
        i = target
        cur = (state.words[i], None, TAG_LABEL, None, 0, 1)
        lefts = [stack[-1] if len(stack) >= 1 else None,
                 stack[-2] if len(stack) >= 2 else None]
        right_at = i + 1
        children = (None, None, None, None)
    else:
        node = target
        if actual_kind == KIND_LABEL:
            # Head word and tag are unknown until the label picks the head.
            cur = (None, None, None, None, len(node.children), node.width)
        else:
            cur = _node_slots(node)
        lefts = [stack[-2] if len(stack) >= 2 else None,
                 stack[-3] if len(stack) >= 3 else None]
        right_at = node.end + 1
        kids = node.children
        children = (kids[0] if len(kids) >= 1 else None,
                    kids[1] if len(kids) >= 2 else None,
                    kids[-1] if len(kids) >= 1 else None,
                    kids[-2] if len(kids) >= 2 else None)

    slots = list(cur)
    for nb in lefts:
        slots.extend(_node_slots(nb) if nb is not None else _NULL_SLOTS)
    slots.extend(_untagged_slots(state, right_at))
    slots.extend(_untagged_slots(state, right_at + 1))
    for kid in children:
        slots.extend(_node_slots(kid) if kid is not None else _NULL_SLOTS)

    if actual_kind == KIND_TAG:
        i = target
        for back in (1, 2):
            if i - back >= 0:
                slots.append(state.words[i - back])
                slots.append(state.tagged[i - back])
            else:
                slots.extend((None, None))
    return tuple(slots)
