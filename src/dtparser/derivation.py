"""Bottom-up, left-to-right derivations of parse trees.

A parse tree is built by a unique sequence of decisions over an *active
list* of nodes covering the sentence.  Initially the active nodes are the
untagged words.  The decision point is always the leftmost active node
with an unset feature; a word is assigned its tag and then its extension,
a freshly built constituent its label and then its extension.  The
extension says how a node attaches to its parent:

* ``right`` -- the node is the first child of a constituent,
* ``left``  -- the node is the last child of a constituent,
* ``up``    -- the node is neither the first nor the last child,
* ``unary`` -- the node is the only child of a unary constituent,
* ``root``  -- the node is the root of the tree.

Assigning ``left`` closes the pending constituent: the new parent takes
the maximal chain of ``up`` nodes plus one ``right`` node immediately to
the left, which always exists for a legal action.  Assigning ``unary``
builds a one-child parent on the spot.  The parent's head word and head
tag are copied from the head child, which the head rules pick once the
parent's label is known.

Every decision is recorded as a DerivationEvent carrying the decision
kind, the conditioning history and the chosen value, so a tree and its
event sequence determine each other exactly.  A tree's decisions are its
postorder: a word's tag, or a constituent's label after all of its
children, each followed by the node's extension, which its position
among its siblings fixes.  `encode` replays that postorder through
`apply_action`, which checks that every action is the legal next one.

History slot layout
-------------------

All three decision kinds share one layout: for each queried node, in the
order current, first/second active node to the left, first/second active
node to the right, first/second child of the current node from the left,
first/second child from the right, the six values

    word, tag, label, extension, child count, span width

giving 54 slots.  Tag decisions append four more: the surface word and
assigned tag at sentence positions i-1 and i-2 (58 slots).  Unset and
out-of-range values are None.  Untagged words right of the decision point
expose only their surface word; their tag/label/extension read None.
Word nodes reached by the derivation carry the reserved pseudo-label
``TAG_LABEL`` in label slots.

The layout is read two ways.  `extract_history` builds every slot of a
decision's history as one tuple: the bulk path, which `encode` uses to
turn treebank trees into training events, and the oracle for the other
way.  `HistoryView` is a read-only view of the same slots that computes one
slot when it is indexed, through per-kind slot readers built once from
`slot_layout`; search scores a decision through it, since a model's
tree walk reads only the few slots its questions ask.

Nodes and states are immutable named tuples, so successor states share
every node they do not change.
"""

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .corpus import RawLeaf, RawTree, sentence_words
from .errors import (DeadEnd, EmptyInput, IllegalAction, NonContiguousTree,
                     UnaryChainTooLong)

EXTENSIONS = ("right", "left", "up", "unary", "root")
KIND_TAG = "tag"
KIND_LABEL = "label"
KIND_EXTENSION = "extension"
KINDS = (KIND_TAG, KIND_LABEL, KIND_EXTENSION)

TAG_LABEL = "<tag>"  # reserved pseudo-label of word-level nodes

_QUERIED_NODES = ("cur", "l1", "l2", "r1", "r2", "cl1", "cl2", "cr1", "cr2")
_FEATURES = (("word", "word"), ("tag", "tag"), ("label", "label"),
             ("ext", "extension"), ("nch", "count"), ("width", "width"))
_TAG_EXTRAS = (("w-1.word", "word"), ("w-1.tag", "tag"),
               ("w-2.word", "word"), ("w-2.tag", "tag"))


def slot_layout(kind):
    """The (name, value kind) pairs of every history slot, in order."""
    slots = [(f"{node}.{feat}", vkind)
             for node in _QUERIED_NODES
             for feat, vkind in _FEATURES]
    if kind == KIND_TAG:
        slots.extend(_TAG_EXTRAS)
    return tuple(slots)


class Node(NamedTuple):
    """One active node: a (possibly still featureless) subtree."""

    word: str          # head word; surface word at word nodes
    tag: object        # str or None
    label: object      # str or None; word nodes stay None
    extension: object  # str or None
    start: int         # first covered word index, 0-based
    end: int           # last covered word index, inclusive
    children: tuple    # of Node, empty for word nodes
    unary_chain: int   # consecutive unary constituents built below

    @property
    def is_leaf(self):
        return not self.children

    @property
    def width(self):
        return self.end - self.start + 1


@dataclass(frozen=True, slots=True)
class DerivationContext:
    """Per-corpus constants shared by every state: inventories, head rules
    and the unary chain cap."""

    tags: tuple
    labels: tuple
    heads: object  # HeadRuleTable
    u_max: int


class DerivationState(NamedTuple):
    ctx: DerivationContext
    words: tuple
    stack: tuple   # built active nodes, left to right
    tagged: tuple  # tags assigned so far, one per covered word
    complete: bool


@dataclass(frozen=True)
class DerivationEvent:
    kind: str
    history: tuple
    future: str


def initial_state(words, ctx):
    if not words:
        raise EmptyInput("cannot derive an empty sentence")
    return DerivationState(ctx=ctx, words=tuple(words), stack=(), tagged=(),
                           complete=False)


def pending_decision(state):
    """The pending decision: (kind, node or word index).  Raises
    IllegalAction on a complete state, and DeadEnd on a live one with no
    decision point left."""
    if state.complete:
        raise IllegalAction("derivation already complete")
    if state.stack:
        top = state.stack[-1]
        if top.children and top.label is None:
            return KIND_LABEL, top
        if top.extension is None:
            return KIND_EXTENSION, top
    nxt = len(state.tagged)
    if nxt < len(state.words):
        return KIND_TAG, nxt
    raise DeadEnd("no decision point left in an incomplete derivation")


def legal_actions(state, decision=None):
    """The pending decision kind and its legal candidate values; pass
    `decision`, `pending_decision(state)`, if it is already known.

    Raises DeadEnd when the state is live but no action is legal (or no
    decision point exists), which marks a prunable hypothesis.
    """
    kind, target = decision or pending_decision(state)
    if kind == KIND_TAG:
        return kind, tuple(state.ctx.tags)
    if kind == KIND_LABEL:
        return kind, tuple(state.ctx.labels)

    node = target
    whole = node.start == 0 and node.end == len(state.words) - 1
    left = state.stack[-2] if len(state.stack) >= 2 else None
    candidates = []
    if not whole:
        candidates.append("right")
    if left is not None and left.extension in ("right", "up"):
        candidates.append("left")
        candidates.append("up")
    if node.unary_chain < state.ctx.u_max:
        candidates.append("unary")
    # The root must be a labelled constituent covering the whole sentence.
    if whole and len(state.stack) == 1 and not node.is_leaf:
        candidates.append("root")
    if not candidates:
        raise DeadEnd("no legal extension")
    return kind, tuple(candidates)


def apply_action(state, action, validate=True):
    """The successor state after one (kind, value) decision."""
    kind, value = action
    if validate:
        legal_kind, candidates = legal_actions(state)  # may raise DeadEnd
        if kind != legal_kind or value not in candidates:
            raise IllegalAction(f"action {action!r} not legal here "
                                f"(expected {legal_kind} in {candidates})")
    ctx, words, stack, tagged, _ = state
    if kind == KIND_TAG:
        i = len(tagged)
        leaf = Node(words[i], value, None, None, i, i, (), 0)
        return DerivationState(ctx, words, stack + (leaf,), tagged + (value,),
                               False)

    top = stack[-1]
    if kind == KIND_LABEL:
        symbols = [c.label if not c.is_leaf else c.tag for c in top.children]
        head = top.children[ctx.heads.head_child(value, symbols)]
        node = Node(head.word, head.tag, value, None, top.start, top.end,
                    top.children, top.unary_chain)
        return DerivationState(ctx, words, stack[:-1] + (node,), tagged,
                               False)

    node = Node(top.word, top.tag, top.label, value, top.start, top.end,
                top.children, top.unary_chain)
    if value in ("right", "up"):
        return DerivationState(ctx, words, stack[:-1] + (node,), tagged,
                               False)
    if value == "root":
        return DerivationState(ctx, words, stack[:-1] + (node,), tagged, True)

    if value == "unary":
        children = (node,)
        chain = node.unary_chain + 1
        base = len(stack) - 1
    else:  # left: absorb the chain of up-nodes and the opening right-node
        chain_nodes = [node]
        i = len(stack) - 2
        while i >= 0 and stack[i].extension == "up":
            chain_nodes.append(stack[i])
            i -= 1
        assert i >= 0 and stack[i].extension == "right", \
            "legal 'left' always closes back to a 'right' node"
        chain_nodes.append(stack[i])
        children = tuple(reversed(chain_nodes))
        chain = 0
        base = i
    parent = Node(None, None, None, None, children[0].start, children[-1].end,
                  children, chain)
    return DerivationState(ctx, words, stack[:base] + (parent,), tagged,
                           False)


# --- history extraction ---

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


def _pending(state, kind):
    """The pending decision, which `kind`, when given, must name; a state
    with none raises IllegalAction."""
    try:
        dec = pending_decision(state)
    except DeadEnd as exc:
        raise IllegalAction(f"no pending decision: {exc}") from None
    if kind is not None and kind != dec[0]:
        raise IllegalAction(f"pending decision is {dec[0]}, not {kind}")
    return dec


def extract_history(state, kind=None):
    """The conditioning history for the pending decision, as a slot tuple.

    See the module docstring for the layout.  `kind` is only checked
    against the actual pending decision when given.
    """
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


class HistoryView:
    """The history of `state`'s pending decision as a read-only sequence
    whose slot i is computed when it is read, and equals
    `extract_history(state, kind)[i]`; `kind` is checked as there, unless
    `decision`, `pending_decision(state)`, is given instead.  A tree walk
    reads only the few slots its questions ask."""

    __slots__ = ("_readers", "words", "tagged", "stack", "kids", "right")

    def __init__(self, state, kind=None, decision=None):
        kind, target = decision or _pending(state, kind)
        self._readers = _SLOT_READERS[kind]
        self.words = state.words
        self.tagged = state.tagged
        self.stack = state.stack
        if kind == KIND_TAG:
            self.kids = ()
            self.right = target + 1
        else:
            self.kids = target.children
            self.right = target.end + 1  # the first word right of the node

    def __len__(self):
        return len(self._readers)

    def __getitem__(self, slot):
        return self._readers[slot](self)


# Reader of one feature of a built node, by feature name (see _node_slots).
_NODE_FEATURES = {
    "word": attrgetter("word"),
    "tag": attrgetter("tag"),
    "label": lambda node: node.label if node.children else TAG_LABEL,
    "ext": attrgetter("extension"),
    "nch": lambda node: len(node.children),
    "width": lambda node: node.end - node.start + 1,
}


def _constant(value):
    return lambda view: value


def _built(where, k, feat):
    """Slot reader: feature `feat` of node `k` of a view's `stack` or
    `kids` (`where`), None when there is no such node."""
    nodes_of = attrgetter(where)
    read = _NODE_FEATURES[feat]
    need = k + 1 if k >= 0 else -k

    def reader(view):
        nodes = nodes_of(view)
        return read(nodes[k]) if len(nodes) >= need else None
    return reader


def _untagged(d, feat):
    """Slot reader: feature `feat` of the word `d` places past the first
    word right of the decision, which only its surface form shows (see
    _untagged_slots); None past the sentence."""
    if feat == "word":
        def reader(view):
            j = view.right + d
            return view.words[j] if j < len(view.words) else None
        return reader
    value = {"nch": 0, "width": 1}.get(feat)
    return lambda view: value if view.right + d < len(view.words) else None


def _behind(b, feat):
    """Slot reader: the word or tag (`feat`) `b` places left of the word
    being tagged, None before the sentence."""
    seq = attrgetter("words" if feat == "word" else "tagged")

    def reader(view):
        j = view.right - 1 - b
        return seq(view)[j] if j >= 0 else None
    return reader


def _slot_readers(kind):
    """One reader per slot of `slot_layout(kind)`, in order."""
    left = 1 if kind == KIND_TAG else 2  # nearest built node left: stack[-left]
    readers = {
        "l1": lambda feat: _built("stack", -left, feat),
        "l2": lambda feat: _built("stack", -left - 1, feat),
        "r1": lambda feat: _untagged(0, feat),
        "r2": lambda feat: _untagged(1, feat),
        "cl1": lambda feat: _built("kids", 0, feat),
        "cl2": lambda feat: _built("kids", 1, feat),
        "cr1": lambda feat: _built("kids", -1, feat),
        "cr2": lambda feat: _built("kids", -2, feat),
        "w-1": lambda feat: _behind(1, feat),
        "w-2": lambda feat: _behind(2, feat),
    }
    if kind == KIND_TAG:  # the word being tagged
        cur = {"tag": None, "label": TAG_LABEL, "ext": None, "nch": 0,
               "width": 1}
        readers["cur"] = lambda feat: (_behind(0, feat) if feat == "word"
                                       else _constant(cur[feat]))
    elif kind == KIND_LABEL:  # head word and tag wait for the label
        readers["cur"] = lambda feat: (_built("stack", -1, feat)
                                       if feat in ("nch", "width")
                                       else _constant(None))
    else:
        readers["cur"] = lambda feat: _built("stack", -1, feat)
    return tuple(readers[node](feat) for node, feat in
                 (name.split(".") for name, _ in slot_layout(kind)))


_SLOT_READERS = {kind: _slot_readers(kind) for kind in KINDS}


def word_histories(word, unknown):
    """The histories of `word`'s tag decision and of its word node's own
    extension decision, with `unknown` in every slot but the current
    node's: wherever the word stands, `extract_history` fixes that node
    as the word node, all but its tag at the extension decision."""
    around = (unknown,) * ((len(_QUERIED_NODES) - 1) * len(_FEATURES))
    tag = ((word, None, TAG_LABEL, None, 0, 1) + around
           + (unknown,) * len(_TAG_EXTRAS))
    extension = (word, unknown, TAG_LABEL, None, 0, 1) + around
    return tag, extension


# --- encoding trees to events and back ---

def _postorder(tree):
    """The (kind, value) actions that derive `tree`: its postorder, a
    word's tag or, after all of its children, a constituent's label, each
    followed by the extension that its position among its siblings fixes."""
    if isinstance(tree, RawLeaf):
        raise NonContiguousTree("a bare tagged word is not a tree")
    order = []  # preorder, right child first: its reverse is the postorder
    stack = [(tree, "root")]
    while stack:
        node, extension = stack.pop()
        order.append((node, extension))
        if not isinstance(node, RawLeaf):
            kids = node.children
            if not kids:
                raise NonContiguousTree("internal node with no children")
            attach = (("unary",) if len(kids) == 1 else
                      ("right",) + ("up",) * (len(kids) - 2) + ("left",))
            stack.extend(zip(kids, attach))
    for node, extension in reversed(order):
        yield ((KIND_TAG, node.tag) if isinstance(node, RawLeaf)
               else (KIND_LABEL, node.label))
        yield KIND_EXTENSION, extension


def encode(tree, ctx):
    """The unique event sequence whose replay reconstructs `tree`.

    Returns a list of DerivationEvent.  Raises UnaryChainTooLong when the
    tree stacks more unary constituents than the context allows.
    """
    state = initial_state(sentence_words(tree), ctx)
    events = []
    for kind, value in _postorder(tree):
        if kind == KIND_EXTENSION and value == "unary":
            chain = state.stack[-1].unary_chain
            if chain >= ctx.u_max:
                raise UnaryChainTooLong(
                    f"tree stacks {chain + 1} unary constituents, "
                    f"cap is {ctx.u_max}")
        events.append(DerivationEvent(kind=kind,
                                      history=extract_history(state, kind),
                                      future=value))
        state = apply_action(state, (kind, value))
    return events


def to_raw_tree(node):
    """Strip derivation bookkeeping from a completed constituent."""
    order, stack = [], [node]  # preorder, right child first
    while stack:
        order.append(stack.pop())
        stack.extend(order[-1].children)
    built = []  # finished subtrees whose parent is still to come
    for node in reversed(order):  # the postorder
        if node.is_leaf:
            built.append(RawLeaf(word=node.word, tag=node.tag))
        else:
            first = len(built) - len(node.children)
            built[first:] = [RawTree(label=node.label,
                                     children=tuple(built[first:]))]
    return built[0]


def max_unary_chain(tree):
    """Most deeply stacked unary constituents anywhere in `tree`."""
    best = 0
    stack = [(tree, 0)]  # (node, unary constituents directly above it)
    while stack:
        node, above = stack.pop()
        best = max(best, above)
        if not isinstance(node, RawLeaf):
            run = above + 1 if len(node.children) == 1 else 0
            stack.extend((child, run) for child in node.children)
    return best
