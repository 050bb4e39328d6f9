"""Derivation encoding: the canonical decision sequence and its histories.

The expected event sequences and history tuples below were worked out by
hand from the decision policy (build each subtree left to right, bottom
up; a node's extension follows its completion; the root extension comes
last) and double-checked against an independent recursive enumeration.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import toylang
from reference import decode, replay
from dtparser.corpus import (RawLeaf, RawTree, format_tree, parse_tree,
                             sentence_words)
from dtparser.derivation import (KIND_EXTENSION, KIND_LABEL,
                                 KIND_TAG, TAG_LABEL, DerivationContext,
                                 HistoryView, apply_action, encode, extract_history,
                                 initial_state, legal_actions, max_unary_chain,
                                 slot_layout, to_raw_tree, word_histories)
from dtparser.dtm import UNKNOWN
from dtparser.errors import (DeadEnd, EmptyInput, IllegalAction,
                             NonContiguousTree, UnaryChainTooLong)
from dtparser.headfinder import default_head_rules, parse_head_rules

EXAMPLE = """
(S (N Each_DD1 code_NN1
      (Tn used_VVN
          (P by_II (N the_AT PC_NN1))))
   (V is_VBZ listed_VVN))
"""

# The full decision sequence of the example tree: 8 tags, 6 labels and 14
# extensions, one per node, in bottom-up left-to-right order.
EXAMPLE_DECISIONS = [
    ("tag", "DD1"), ("extension", "right"),
    ("tag", "NN1"), ("extension", "up"),
    ("tag", "VVN"), ("extension", "right"),
    ("tag", "II"), ("extension", "right"),
    ("tag", "AT"), ("extension", "right"),
    ("tag", "NN1"), ("extension", "left"),
    ("label", "N"), ("extension", "left"),
    ("label", "P"), ("extension", "left"),
    ("label", "Tn"), ("extension", "left"),
    ("label", "N"), ("extension", "right"),
    ("tag", "VBZ"), ("extension", "right"),
    ("tag", "VVN"), ("extension", "left"),
    ("label", "V"), ("extension", "left"),
    ("label", "S"), ("extension", "root"),
]


def example_ctx(u_max=4):
    return DerivationContext(tags=("AT", "DD1", "II", "NN1", "VBZ", "VVN"),
                             labels=("N", "P", "S", "Tn", "V"),
                             heads=default_head_rules(), u_max=u_max)


def toy_ctx(u_max=toylang.RANDOM_U_MAX):
    return DerivationContext(tags=toylang.RANDOM_TAGS,
                             labels=toylang.RANDOM_LABELS,
                             heads=default_head_rules(), u_max=u_max)


NULL6 = (None,) * 6


def test_slot_layout():
    for kind in (KIND_LABEL, KIND_EXTENSION):
        assert len(slot_layout(kind)) == 54
    tag_slots = slot_layout(KIND_TAG)
    assert len(tag_slots) == 58
    assert tag_slots[0] == ("cur.word", "word")
    assert tag_slots[5] == ("cur.width", "width")
    assert tag_slots[6] == ("l1.word", "word")
    assert tag_slots[30] == ("cl1.word", "word")
    assert tag_slots[54] == ("w-1.word", "word")
    assert tag_slots[57] == ("w-2.tag", "tag")


def test_example_event_sequence():
    events = encode(parse_tree(EXAMPLE), example_ctx())
    assert [(e.kind, e.future) for e in events] == EXAMPLE_DECISIONS
    kinds = [e.kind for e in events]
    assert kinds.count(KIND_TAG) == 8
    assert kinds.count(KIND_LABEL) == 6
    assert kinds.count(KIND_EXTENSION) == 14


def test_one_word_event_sequence():
    ctx = DerivationContext(tags=("T",), labels=("X",),
                            heads=default_head_rules(), u_max=4)
    events = encode(parse_tree("(X a_T)"), ctx)
    assert [(e.kind, e.future) for e in events] == [
        ("tag", "T"), ("extension", "unary"),
        ("label", "X"), ("extension", "root")]


def test_first_tag_history():
    # Tagging "Each": nothing is built yet, so only the word itself and
    # the two untagged words to its right are visible.
    events = encode(parse_tree(EXAMPLE), example_ctx())
    assert events[0].history == (
        ("Each", None, TAG_LABEL, None, 0, 1)  # cur
        + NULL6 + NULL6                        # l1, l2
        + ("code", None, None, None, 0, 1)     # r1: surface word only
        + ("used", None, None, None, 0, 1)     # r2
        + NULL6 * 4                            # cl1, cl2, cr1, cr2
        + (None, None, None, None))            # w-1, w-2 extras


def test_extension_history_of_inner_constituent():
    # Event 13 extends the freshly labelled (N the_AT PC_NN1).  Its head
    # is PC (rightmost); its children are visible from both ends, the two
    # active nodes to the left are the words "by" and "used", and the two
    # words to the right are still untagged.
    events = encode(parse_tree(EXAMPLE), example_ctx())
    assert (events[13].kind, events[13].future) == (KIND_EXTENSION, "left")
    assert events[13].history == (
        ("PC", "NN1", "N", None, 2, 2)              # cur
        + ("by", "II", TAG_LABEL, "right", 0, 1)    # l1
        + ("used", "VVN", TAG_LABEL, "right", 0, 1) # l2
        + ("is", None, None, None, 0, 1)            # r1
        + ("listed", None, None, None, 0, 1)        # r2
        + ("the", "AT", TAG_LABEL, "right", 0, 1)   # cl1
        + ("PC", "NN1", TAG_LABEL, "left", 0, 1)    # cl2 (= last of 2)
        + ("PC", "NN1", TAG_LABEL, "left", 0, 1)    # cr1
        + ("the", "AT", TAG_LABEL, "right", 0, 1))  # cr2


def test_tag_history_midway():
    # Event 20 tags "is".  The whole left half of the sentence has been
    # reduced to one N node headed by PC, and the tag extras expose the
    # two previous words with their assigned tags.
    events = encode(parse_tree(EXAMPLE), example_ctx())
    assert (events[20].kind, events[20].future) == (KIND_TAG, "VBZ")
    assert events[20].history == (
        ("is", None, TAG_LABEL, None, 0, 1)      # cur
        + ("PC", "NN1", "N", "right", 3, 6)      # l1: the finished subject
        + NULL6                                  # l2
        + ("listed", None, None, None, 0, 1)     # r1
        + NULL6                                  # r2: past sentence end
        + NULL6 * 4                              # word nodes have no children
        + ("PC", "NN1", "the", "AT"))            # w-1, w-2


def test_decode_rebuilds_the_tree():
    tree = parse_tree(EXAMPLE)
    ctx = example_ctx()
    events = encode(tree, ctx)
    words = ["Each", "code", "used", "by", "the", "PC", "is", "listed"]
    assert decode(words, events, ctx) == tree


def test_encode_decode_round_trip_random_trees():
    rng = random.Random(23)
    ctx = toy_ctx()
    for _ in range(200):
        tree = toylang.random_tree(rng)
        words = [l.word for l in _leaves(tree)]
        rebuilt = decode(words, encode(tree, ctx), ctx)
        assert format_tree(rebuilt) == format_tree(tree)


# SHA-256 of the encode events of the 150 random trees behind the pinned
# random-tree model in test_modelfile, one repr((kind, history, future))
# line per event.
RANDOM_EVENTS_SHA256 = \
    "24a2520e4dcf1cdbd62065c4d4e70f0bea65e377a1ad5958badb9ec7c8352ee9"


def test_random_tree_events_are_pinned():
    ctx = toy_ctx()
    digest = hashlib.sha256()
    for tree in toylang.random_corpus(150, 41):
        for event in encode(tree, ctx):
            line = repr((event.kind, event.history, event.future)) + "\n"
            digest.update(line.encode("utf-8"))
    assert digest.hexdigest() == RANDOM_EVENTS_SHA256


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_encoded_histories_match_the_oracle_on_random_trees(seed):
    """Every event's history, and every slot of the lazy view of the same
    state, equals the hand-written oracle's, for all three kinds."""
    tree = toylang.random_tree(random.Random(seed))
    ctx = toy_ctx()
    state = initial_state([leaf.word for leaf in _leaves(tree)], ctx)
    kinds = set()
    for event in encode(tree, ctx):
        assert event.history == reference.extract_history(state, event.kind)
        view = HistoryView(state, event.kind)
        assert tuple(view[i] for i in range(len(view))) == event.history
        kinds.add(event.kind)
        state = apply_action(state, (event.kind, event.future))
    assert kinds == {KIND_TAG, KIND_LABEL, KIND_EXTENSION}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_word_histories_agree_with_the_word_at_every_position(seed):
    """Each slot of a word's real tag history, and of the history of its
    word node's extension right after, equals the slot `word_histories`
    generates for the word, or the generated slot is UNKNOWN."""
    events = encode(toylang.random_tree(random.Random(seed)), toy_ctx())
    for event, after in zip(events, events[1:]):
        if event.kind != KIND_TAG:
            continue
        assert after.kind == KIND_EXTENSION
        word = event.history[0]
        generated = word_histories(word, UNKNOWN)
        assert generated[0][0] == generated[1][0] == word
        for real, fixed in zip((event.history, after.history), generated):
            assert len(real) == len(fixed)
            assert all(g is UNKNOWN or g == r for r, g in zip(real, fixed))


def _leaves(tree):
    if isinstance(tree, RawLeaf):
        return [tree]
    out = []
    for c in tree.children:
        out.extend(_leaves(c))
    return out


def test_distinct_decision_sequences_build_distinct_trees():
    ctx = DerivationContext(tags=("T",), labels=("A", "B"),
                            heads=default_head_rules(), u_max=1)
    seen = {}

    def explore(state, decisions):
        if state.complete:
            tree = format_tree(to_raw_tree(state.stack[0]))
            assert tree not in seen.values()
            seen[decisions] = tree
            return
        try:
            kind, values = legal_actions(state)
        except DeadEnd:
            return
        for value in values:
            explore(apply_action(state, (kind, value)),
                    decisions + ((kind, value),))

    explore(initial_state(["u", "v", "w"], ctx), ())
    assert len(seen) > 10  # the sentence is genuinely ambiguous
    assert len(set(seen.values())) == len(seen)


# --- legal actions ---

def test_initial_decision_is_tagging():
    state = initial_state(["u", "v"], toy_ctx())
    kind, values = legal_actions(state)
    assert kind == KIND_TAG
    assert values == toylang.RANDOM_TAGS


def test_word_node_extensions():
    state = initial_state(["u", "v"], toy_ctx())
    state = apply_action(state, ("tag", "T1"))
    kind, values = legal_actions(state)
    # covers a prefix: may open a constituent or grow a unary chain, but
    # cannot be a root (words never are) nor close anything.
    assert (kind, values) == (KIND_EXTENSION, ("right", "unary"))


def test_middle_node_extensions():
    state = replay(["u", "v", "w"],
                   [("tag", "T1"), ("extension", "right"), ("tag", "T1")],
                   toy_ctx())
    kind, values = legal_actions(state)
    assert (kind, values) == (KIND_EXTENSION, ("right", "left", "up", "unary"))


def test_whole_span_constituent_extensions():
    ctx = toy_ctx(u_max=2)
    state = replay(["u"], [("tag", "T1"), ("extension", "unary"),
                           ("label", "A")], ctx)
    kind, values = legal_actions(state)
    assert (kind, values) == (KIND_EXTENSION, ("unary", "root"))
    # once the unary budget is spent only the root extension remains
    state = replay(["u"], [("tag", "T1"), ("extension", "unary"),
                           ("label", "A"), ("extension", "unary"),
                           ("label", "B")], ctx)
    assert legal_actions(state) == (KIND_EXTENSION, ("root",))


def test_label_decision_offers_every_label():
    state = replay(["u", "v"],
                   [("tag", "T1"), ("extension", "right"), ("tag", "T2"),
                    ("extension", "left")], toy_ctx())
    assert legal_actions(state) == (KIND_LABEL, toylang.RANDOM_LABELS)


def test_whole_span_word_dead_ends_without_unary_budget():
    ctx = toy_ctx(u_max=0)
    state = apply_action(initial_state(["u"], ctx), ("tag", "T1"))
    with pytest.raises(DeadEnd):
        legal_actions(state)


def test_stranded_words_dead_end():
    # both words opened constituents that nothing can ever close
    state = replay(["u", "v"],
                   [("tag", "T1"), ("extension", "right"), ("tag", "T2"),
                    ("extension", "right")], toy_ctx())
    with pytest.raises(DeadEnd):
        legal_actions(state)


def test_complete_state_accepts_nothing():
    ctx = toy_ctx()
    state = replay(["u"], [("tag", "T1"), ("extension", "unary"),
                           ("label", "A"), ("extension", "root")], ctx)
    assert state.complete
    with pytest.raises(IllegalAction):
        legal_actions(state)
    with pytest.raises(IllegalAction):
        extract_history(state)
    with pytest.raises(IllegalAction):
        HistoryView(state)


def test_illegal_action_rejected():
    state = initial_state(["u", "v"], toy_ctx())
    with pytest.raises(IllegalAction):
        apply_action(state, ("extension", "right"))
    with pytest.raises(IllegalAction):
        apply_action(state, ("tag", "NOT-A-TAG"))


def test_extract_history_checks_kind():
    state = initial_state(["u"], toy_ctx())
    with pytest.raises(IllegalAction):
        extract_history(state, KIND_LABEL)
    with pytest.raises(IllegalAction):
        HistoryView(state, KIND_LABEL)


def test_nodes_and_states_are_immutable():
    state = apply_action(initial_state(["u", "v"], toy_ctx()), ("tag", "T1"))
    node = state.stack[-1]
    with pytest.raises(AttributeError):
        node.word = "w"
    with pytest.raises(AttributeError):
        node.note = "a new attribute"
    with pytest.raises(AttributeError):
        state.complete = True
    with pytest.raises(AttributeError):
        state.note = "a new attribute"
    assert (node.word, node.tag, node.is_leaf, node.width) == \
        ("u", "T1", True, 1)
    assert not state.complete


# --- misc ---

def test_empty_sentence():
    with pytest.raises(EmptyInput):
        initial_state([], toy_ctx())


def test_unary_chain_cap():
    tree = parse_tree("(A (B w_T))")
    ctx = DerivationContext(tags=("T",), labels=("A", "B"),
                            heads=default_head_rules(), u_max=1)
    with pytest.raises(UnaryChainTooLong):
        encode(tree, ctx)
    deep = DerivationContext(tags=("T",), labels=("A", "B"),
                             heads=default_head_rules(), u_max=2)
    assert decode(["w"], encode(tree, deep), deep) == tree


def test_symbols_spelled_unary_build_no_unary_chain():
    # only a unary *extension* stacks a unary constituent
    tree = parse_tree("(unary w_unary v_unary)")
    ctx = DerivationContext(tags=("unary",), labels=("unary",),
                            heads=default_head_rules(), u_max=0)
    assert decode(["w", "v"], encode(tree, ctx), ctx) == tree


def test_empty_constituent_is_not_a_tree():
    tree = RawTree("A", (RawLeaf("w", "T1"), RawTree("B", ())))
    with pytest.raises(NonContiguousTree):
        encode(tree, toy_ctx())


def test_max_unary_chain():
    assert max_unary_chain(parse_tree(EXAMPLE)) == 0
    assert max_unary_chain(parse_tree("(A (B w_T))")) == 2
    assert max_unary_chain(parse_tree("(S (A (B w_T)) (C u_T v_T))")) == 2


def test_max_unary_chain_of_trees_deeper_than_the_recursion_limit():
    assert max_unary_chain(toylang.unary_chain(toylang.DEEP)) == toylang.DEEP
    assert max_unary_chain(toylang.right_branching(toylang.DEEP)) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_max_unary_chain_equals_the_reference_walk(seed, max_depth):
    tree = toylang.random_tree(random.Random(seed), max_depth)
    assert max_unary_chain(tree) == reference.max_unary_chain(tree)


@pytest.mark.parametrize("make", [toylang.unary_chain,
                                  toylang.right_branching],
                         ids=["unary-chain", "right-branching"])
def test_trees_deeper_than_the_recursion_limit_encode_and_decode(make):
    tree = make(toylang.DEEP)
    ctx = DerivationContext(tags=("T",), labels=("A",),
                            heads=default_head_rules(), u_max=toylang.DEEP)
    events = encode(tree, ctx)
    words = ["w"] * (1 if make is toylang.unary_chain else toylang.DEEP + 1)
    # One tag per word, one label per constituent, one extension per node.
    assert len(events) == 2 * (len(words) + toylang.DEEP)
    assert events[-1].future == "root"
    assert decode(words, events, ctx) == tree


@pytest.mark.parametrize("make", [toylang.unary_chain,
                                  toylang.right_branching],
                         ids=["unary-chain", "right-branching"])
def test_to_raw_tree_of_trees_deeper_than_the_recursion_limit(make):
    tree = make(toylang.DEEP)
    ctx = DerivationContext(tags=("T",), labels=("A",),
                            heads=default_head_rules(), u_max=toylang.DEEP)
    words = sentence_words(tree)
    state = replay(words, [(e.kind, e.future) for e in encode(tree, ctx)],
                   ctx)
    root = state.stack[0]
    assert (root.count, root.width, root.end) == \
        (len(tree.children), len(words), len(words) - 1)
    assert to_raw_tree(root) == tree


def test_bare_leaf_is_not_a_tree():
    with pytest.raises(NonContiguousTree):
        encode(RawLeaf("w", "T"), toy_ctx())


def test_incomplete_event_sequence_rejected():
    tree = parse_tree(EXAMPLE)
    ctx = example_ctx()
    events = encode(tree, ctx)
    with pytest.raises(IllegalAction):
        decode([l.word for l in _leaves(tree)], events[:-1], ctx)


def test_first_event_history():
    ctx = DerivationContext(tags=("T",), labels=("X",),
                            heads=default_head_rules(), u_max=4)
    event = encode(parse_tree("(X a_T)"), ctx)[0]
    assert (event.kind, event.future) == ("tag", "T")
    names = [name for name, _ in slot_layout(event.kind)]
    shown = {name: value for name, value in zip(names, event.history)
             if value is not None}
    assert shown == {"cur.word": "a", "cur.label": "<tag>", "cur.nch": 0,
                     "cur.width": 1}


def test_head_word_propagates_through_labels():
    # with rightmost-head rules the head of every toy constituent is its
    # last word; spot-check via the label decision's effect on the stack
    state = replay(["u", "v"],
                   [("tag", "T1"), ("extension", "right"), ("tag", "T2"),
                    ("extension", "left"), ("label", "A")], toy_ctx())
    node = state.stack[-1]
    assert (node.word, node.tag, node.label) == ("v", "T2", "A")

    rules = DerivationContext(tags=("T1", "T2"), labels=("A",),
                              heads=parse_head_rules("A from-left T1\n"),
                              u_max=4)
    state = replay(["u", "v"],
                   [("tag", "T1"), ("extension", "right"), ("tag", "T2"),
                    ("extension", "left"), ("label", "A")], rules)
    assert state.stack[-1].word == "u"
