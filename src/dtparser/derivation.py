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
"""

from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True)
class Node:
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


@dataclass(frozen=True, slots=True)
class DerivationState:
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


def _decision(state):
    """The pending decision: (kind, node-or-word-index), or None."""
    if state.complete:
        return None
    if state.stack:
        top = state.stack[-1]
        if top.children and top.label is None:
            return KIND_LABEL, top
        if top.extension is None:
            return KIND_EXTENSION, top
    nxt = len(state.tagged)
    if nxt < len(state.words):
        return KIND_TAG, nxt
    return None


def legal_actions(state):
    """The pending decision kind and its legal candidate values.

    Raises DeadEnd when the state is live but no action is legal (or no
    decision point exists), which marks a prunable hypothesis.
    """
    dec = _decision(state)
    if dec is None:
        if state.complete:
            raise IllegalAction("derivation already complete")
        raise DeadEnd("no decision point left in an incomplete derivation")
    kind, target = dec
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
    if kind == KIND_TAG:
        i = len(state.tagged)
        leaf = Node(word=state.words[i], tag=value, label=None, extension=None,
                    start=i, end=i, children=(), unary_chain=0)
        return DerivationState(ctx=state.ctx, words=state.words,
                               stack=state.stack + (leaf,),
                               tagged=state.tagged + (value,), complete=False)

    top = state.stack[-1]
    if kind == KIND_LABEL:
        symbols = [c.label if not c.is_leaf else c.tag for c in top.children]
        head = top.children[state.ctx.heads.head_child(value, symbols)]
        node = Node(word=head.word, tag=head.tag, label=value, extension=None,
                    start=top.start, end=top.end, children=top.children,
                    unary_chain=top.unary_chain)
        return DerivationState(ctx=state.ctx, words=state.words,
                               stack=state.stack[:-1] + (node,),
                               tagged=state.tagged, complete=False)

    node = Node(word=top.word, tag=top.tag, label=top.label, extension=value,
                start=top.start, end=top.end, children=top.children,
                unary_chain=top.unary_chain)
    if value in ("right", "up"):
        stack = state.stack[:-1] + (node,)
        return DerivationState(ctx=state.ctx, words=state.words, stack=stack,
                               tagged=state.tagged, complete=False)
    if value == "root":
        return DerivationState(ctx=state.ctx, words=state.words,
                               stack=state.stack[:-1] + (node,),
                               tagged=state.tagged, complete=True)

    if value == "unary":
        children = (node,)
        chain = node.unary_chain + 1
        base = len(state.stack) - 1
    else:  # left: absorb the chain of up-nodes and the opening right-node
        chain_nodes = [node]
        i = len(state.stack) - 2
        while i >= 0 and state.stack[i].extension == "up":
            chain_nodes.append(state.stack[i])
            i -= 1
        assert i >= 0 and state.stack[i].extension == "right", \
            "legal 'left' always closes back to a 'right' node"
        chain_nodes.append(state.stack[i])
        children = tuple(reversed(chain_nodes))
        chain = 0
        base = i
    parent = Node(word=None, tag=None, label=None, extension=None,
                  start=children[0].start, end=children[-1].end,
                  children=children, unary_chain=chain)
    return DerivationState(ctx=state.ctx, words=state.words,
                           stack=state.stack[:base] + (parent,),
                           tagged=state.tagged, complete=False)


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


def extract_history(state, kind=None):
    """The conditioning history for the pending decision, as a slot tuple.

    See the module docstring for the layout.  `kind` is only checked
    against the actual pending decision when given.
    """
    dec = _decision(state)
    if dec is None:
        raise IllegalAction("no pending decision to condition on")
    actual_kind, target = dec
    if kind is not None and kind != actual_kind:
        raise IllegalAction(f"pending decision is {actual_kind}, not {kind}")

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
