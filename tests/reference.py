"""Reference implementations that only the tests use.

Each is the plain, one-thing-at-a-time form of something the package does
faster or does not need: the tests compare the package against them, or
build fixtures with them.
"""

import numpy as np

from dtparser.classtree import _mi_terms
from dtparser.derivation import apply_action, initial_state, to_raw_tree
from dtparser.dtm import DTNode, FlatTree, _entropy_bits
from dtparser.errors import IllegalAction, NoEvents


def reference_grow(events, schema, config):
    """`dtm.grow` scoring each question of a node alone: its yes mask, a
    `bincount` of each side and the exact gain, keeping the first question
    whose gain is strictly the largest and above 0."""
    if not events:
        raise NoEvents(f"no events to grow a {schema.kind} model from")
    vals, nulls, futures = schema.encode_events(events)
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
    """Split on the given questions in exactly the given order.

    Every leaf then holds the events sharing one full answer pattern, so
    its relative frequencies are exactly the empirical conditional table
    for that history; the question order cannot change them.  A branch
    no event reaches becomes a zero-count leaf.
    """
    if not events:
        raise NoEvents(f"no events for a forced-order {schema.kind} model")
    vals, nulls, futures = schema.encode_events(events)
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
