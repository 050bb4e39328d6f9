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

`decision` is the one place these rules are written.  Every legal
action leaves a state that can still be completed: a node that ends at
the last word is offered neither ``right`` nor ``up``, which need a
sibling to its right.  So the one live state with no legal action is a
one-word sentence's word node when the unary chain cap is 0.

Every decision is recorded as a DerivationEvent carrying the decision
kind, the rows of its conditioning history and the chosen value, so a
tree and its event sequence determine each other exactly.  A tree's
decisions are its postorder: a word's tag, or a constituent's label
after all of its children, each followed by the node's extension, which
its position among its siblings fixes.  `replay` steps through that
postorder, checks that each action is legal, and is what `encode` and
`derivation_logprob` read.

History slot layout
-------------------

A decision's history is one row per queried node (the current node, the
first and second active node to its left and word to its right, the first
two and last two children of the current node) of the six features

    word, tag, label, extension, child count, span width

giving 54 slots; a tag decision adds the word and tag of the two words
before the one it tags (58 slots).  A missing node or value is None.  A
built node's row is its first six fields: a word node holds the
pseudo-label ``TAG_LABEL``, and a constituent whose label is pending has
no head or extension yet, so it shows only its child count and width.
The word being tagged, and the words right of the decision, which no
node covers yet, show their surface form and a word's shape, and the
first also ``TAG_LABEL``.

One table, `_LAYOUT`, says for each decision kind where each queried node
is found and which of those cases it is, and every reader of the layout
is generated from it: `slot_layout`'s names and `slot_sources`' (node,
feature) place of each slot; the row readers, with which `encode` turns
treebank trees into training events and `extract_history` writes out a
history whole; `slot_readers`, one reader per slot, with which search's
tree walks (`dtm.walk`) read only the slots they ask straight from the
frame that `decision` returns; and `word_histories`, which bounds the
search.

An event holds its history as rows, not slots: the index of each
queried node's row in a `RowTable`, which holds each distinct row once,
so a corpus's rows are encoded once and every model's slot columns are
gathered from those codes (`dtm.encode_rows`, `dtm.ModelSchema.gather`).
`RowView` reads an event's slots from its rows, as `slot_readers` read a
state's from its frame, and `DerivationEvent.history` writes them out as
a tuple.

Nodes and states are immutable named tuples, so successor states share
every node they do not change.
"""

from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from typing import NamedTuple

from .corpus import RawLeaf, RawTree, fold, sentence_words
from .errors import (DeadEnd, EmptyInput, IllegalAction, NonContiguousTree,
                     UnaryChainTooLong)

EXTENSIONS = ("right", "left", "up", "unary", "root")
KIND_TAG = "tag"
KIND_LABEL = "label"
KIND_EXTENSION = "extension"
KINDS = (KIND_TAG, KIND_LABEL, KIND_EXTENSION)

TAG_LABEL = "<tag>"  # reserved pseudo-label of word-level nodes


class Node(NamedTuple):
    """One active node: a (possibly still featureless) subtree.  Its
    first six fields are its row of history slots."""

    word: str          # head word; surface word at word nodes
    tag: object        # str or None
    label: object      # str or None; TAG_LABEL at word nodes
    extension: object  # str or None
    count: int         # number of children
    width: int         # number of covered words
    end: int           # last covered word index, inclusive
    children: tuple    # of Node, empty for word nodes
    unary_chain: int   # consecutive unary constituents built below

    @property
    def is_leaf(self):
        return not self.children


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


class DerivationEvent(NamedTuple):
    """One decision of a derivation: its kind, the rows its history reads,
    as indices into `table` in the layout's node order, and the value
    taken."""

    kind: str
    rows: tuple
    future: str
    table: object  # RowTable

    @property
    def history(self):
        """The history as a tuple of slots, the event's rows expanded:
        `extract_history` of the state the decision was taken in."""
        rows = self.table.rows
        return tuple(chain.from_iterable(rows[i] for i in self.rows))


def initial_state(words, ctx):
    if not words:
        raise EmptyInput("cannot derive an empty sentence")
    return DerivationState(ctx=ctx, words=tuple(words), stack=(), tagged=(),
                           complete=False)


def decision(state):
    """The pending decision: its kind, its legal values in candidate
    order, and the frame `slot_readers(kind)` read its history from.
    Raises IllegalAction on a complete state, and DeadEnd on a live one
    with no decision point or no legal value (a prunable hypothesis)."""
    if state.complete:
        raise IllegalAction("derivation already complete")
    ctx, words, stack, tagged, _ = state
    if stack:
        top = stack[-1]
        frame = (words, tagged, stack, top.children, top.end + 1)
        if top.label is None:
            return KIND_LABEL, ctx.labels, frame
        if top.extension is None:
            inner = top.end + 1 < len(words)  # words right of the node
            candidates = []
            if inner:
                candidates.append("right")
            if len(stack) >= 2 and stack[-2].extension in ("right", "up"):
                candidates.append("left")
                if inner:
                    candidates.append("up")
            if top.unary_chain < ctx.u_max:
                candidates.append("unary")
            # The root is a labelled constituent covering the sentence.
            if top.width == len(words) and len(stack) == 1 and top.children:
                candidates.append("root")
            if not candidates:
                raise DeadEnd("no legal extension")
            return KIND_EXTENSION, tuple(candidates), frame
    i = len(tagged)
    if i < len(words):
        return KIND_TAG, ctx.tags, (words, tagged, stack, (), i + 1)
    raise DeadEnd("no decision point left in an incomplete derivation")


def pending_decision(state):
    """The pending decision as (kind, node or word index), raising as
    `decision` does."""
    kind, _, frame = decision(state)
    return kind, (frame[_RIGHT] - 1 if kind == KIND_TAG else state.stack[-1])


def legal_actions(state):
    """The pending decision kind and its legal candidate values, raising
    as `decision` does."""
    kind, candidates, _ = decision(state)
    return kind, candidates


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
        leaf = Node(words[i], value, TAG_LABEL, None, 0, 1, i, (), 0)
        return DerivationState(ctx, words, stack + (leaf,), tagged + (value,),
                               False)

    top = stack[-1]
    if kind == KIND_LABEL:
        symbols = [c.label if not c.is_leaf else c.tag for c in top.children]
        head = top.children[ctx.heads.head_child(value, symbols)]
        node = Node(head.word, head.tag, value, None, top.count, top.width,
                    top.end, top.children, top.unary_chain)
        return DerivationState(ctx, words, stack[:-1] + (node,), tagged,
                               False)

    node = Node(top.word, top.tag, top.label, value, top.count, top.width,
                top.end, top.children, top.unary_chain)
    if value in ("right", "up"):
        return DerivationState(ctx, words, stack[:-1] + (node,), tagged,
                               False)
    if value == "root":
        return DerivationState(ctx, words, stack[:-1] + (node,), tagged, True)

    if value == "unary":
        base, chain = len(stack) - 1, node.unary_chain + 1
    else:  # left: absorb the chain of up-nodes and the opening right-node
        base, chain = len(stack) - 2, 0
        while base > 0 and stack[base].extension == "up":
            base -= 1
        assert stack[base].extension == "right", \
            "legal 'left' always closes back to a 'right' node"
    children = stack[base:-1] + (node,)
    width = node.end - children[0].end + children[0].width
    parent = Node(None, None, None, None, len(children), width, node.end,
                  children, chain)
    return DerivationState(ctx, words, stack[:base] + (parent,), tagged,
                           False)


# --- history extraction ---

# A decision's history is read from its frame, which `decision` builds:
# the words, the tags assigned so far, the active stack, the current
# node's children (none when a word is being tagged) and the first word
# right of the decision.
_WORDS, _TAGGED, _STACK, _KIDS, _RIGHT = range(5)


# The features of a queried node, in slot order, and their value kinds.
# How a node shows them is its case: a function of where the node is found
# that returns frame readers, one of the node's whole row, for the bulk
# history, and one per feature it shows (the first n), for tree walks.
_FEATURES = {"word": "word", "tag": "tag", "label": "label",
             "ext": "extension", "nch": "count", "width": "width"}
_ROW = len(_FEATURES)  # a built Node's first fields are its row
_NONE = (None,) * _ROW


def _built(where):
    """A built node, node k of the frame's stack or kids, if it is there."""
    seq, k = where
    need = k + 1 if k >= 0 else -k

    def row(frame):
        nodes = frame[seq]
        return nodes[k][:_ROW] if len(nodes) >= need else _NONE

    def slot(j):
        def reader(frame):
            nodes = frame[seq]
            return nodes[k][j] if len(nodes) >= need else None
        return reader
    return row, tuple(map(slot, range(_ROW)))


def _word(rest, d):
    """A word seen by its position, `d` places right of the frame's first
    word right of the decision, rather than through a node: it shows its
    surface form, its tag once it has one, and `rest`, the values of its
    features after those two; None outside the sentence."""
    absent = (None,) * (2 + len(rest))

    def row(frame):
        words, tagged, _, _, right = frame
        j = right + d
        if 0 <= j < len(words):
            return (words[j], tagged[j] if j < len(tagged) else None) + rest
        return absent

    def slot(seq):
        def reader(frame):
            values = frame[seq]
            j = frame[_RIGHT] + d
            return values[j] if 0 <= j < len(values) else None
        return reader

    def shown(value):
        return lambda frame: (value if 0 <= frame[_RIGHT] + d
                              < len(frame[_WORDS]) else None)
    return row, (slot(_WORDS), slot(_TAGGED)) + tuple(map(shown, rest))


_UNTAGGED = partial(_word, (None, None, 0, 1))  # not reached yet
_TAGGING = partial(_word, (TAG_LABEL, None, 0, 1))  # being tagged
_BEHIND = partial(_word, ())  # tagged, left of the word being tagged

# The history layout: for each decision kind, each queried node in slot
# order, its case, and where that case finds it in the frame.
_AROUND = (("r1", _UNTAGGED, 0), ("r2", _UNTAGGED, 1),
           ("cl1", _built, (_KIDS, 0)), ("cl2", _built, (_KIDS, 1)),
           ("cr1", _built, (_KIDS, -1)), ("cr2", _built, (_KIDS, -2)))
_ON_NODE = (("cur", _built, (_STACK, -1)), ("l1", _built, (_STACK, -2)),
            ("l2", _built, (_STACK, -3)), *_AROUND)
_LAYOUT = {
    KIND_TAG: (("cur", _TAGGING, -1),
               ("l1", _built, (_STACK, -1)), ("l2", _built, (_STACK, -2)),
               *_AROUND, ("w-1", _BEHIND, -2), ("w-2", _BEHIND, -3)),
    KIND_LABEL: _ON_NODE, KIND_EXTENSION: _ON_NODE,
}

# Per kind: each queried node's name, row reader and slot readers; the
# row readers; the slot readers; and the slots' names and value kinds.
_READERS = {kind: tuple((node, *case(where)) for node, case, where in layout)
            for kind, layout in _LAYOUT.items()}
_ROWS = {kind: tuple(row for _, row, _ in readers)
         for kind, readers in _READERS.items()}
_SLOTS = {kind: tuple(read for _, _, slots in readers for read in slots)
          for kind, readers in _READERS.items()}
_NAMES = {kind: tuple((f"{node}.{feat}", vkind) for node, _, slots in readers
                      for (feat, vkind), _ in zip(_FEATURES.items(), slots))
          for kind, readers in _READERS.items()}
# Per kind: each slot's (queried node, feature) position in its rows.
_SOURCES = {kind: tuple((n, f) for n, (_, _, slots) in enumerate(readers)
                        for f in range(len(slots)))
            for kind, readers in _READERS.items()}

# The value kind of each feature of a row, in row order.
ROW_KINDS = tuple(_FEATURES.values())


def slot_layout(kind):
    """The (name, value kind) pairs of every history slot, in order."""
    return _NAMES[kind]


def slot_sources(kind):
    """The (node, feature) pair of every history slot, in order: slot i
    of an event's history is feature f of its row n."""
    return _SOURCES[kind]


def slot_readers(kind):
    """A reader per history slot: slot i of a `kind` decision's history is
    `slot_readers(kind)[i](frame)`, `frame` as `decision` returns it."""
    return _SLOTS[kind]


def _pending(state, kind):
    """`decision(state)`, whose kind must be `kind` when it is given; a
    state with no pending decision raises IllegalAction."""
    try:
        pending = decision(state)
    except DeadEnd as exc:
        raise IllegalAction(f"no pending decision: {exc}") from None
    if kind is not None and kind != pending[0]:
        raise IllegalAction(f"pending decision is {pending[0]}, not {kind}")
    return pending


def extract_history(state, kind=None):
    """The history of the pending decision as a tuple, read a queried node
    at a time; `kind` is checked against the pending decision when given."""
    kind, _, frame = _pending(state, kind)
    slots = []
    for row in _ROWS[kind]:
        slots += row(frame)
    return tuple(slots)


def word_histories(word, unknown):
    """The histories of `word`'s tag decision and of its word node's own
    extension decision, with `unknown` in every slot but the current
    node's, and in its tag at the extension decision.  Wherever the word
    stands, the layout reads that node alike, so it is read here in a
    one-word sentence, whose word node a unary chain cap of 1 lets extend."""
    tagging = initial_state((word,), DerivationContext((), (), None, 1))
    extending = apply_action(tagging, (KIND_TAG, unknown), validate=False)
    histories = []
    for state in (tagging, extending):
        kind, _, frame = decision(state)
        (_, cur, shown), *_ = _READERS[kind]  # the layout's first node
        histories.append(cur(frame)
                         + (unknown,) * (len(_SLOTS[kind]) - len(shown)))
    return tuple(histories)


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


def replay(tree, ctx):
    """Each (state, kind, value) of `tree`'s derivation: its actions in
    order, each with the state it is taken in, and each checked to be the
    legal next one before it is yielded.  Raises UnaryChainTooLong when
    the tree stacks more unary constituents than the context allows."""
    state = initial_state(sentence_words(tree), ctx)
    for kind, value in _postorder(tree):
        if kind == KIND_EXTENSION and value == "unary":
            chain = state.stack[-1].unary_chain
            if chain >= ctx.u_max:
                raise UnaryChainTooLong(
                    f"tree stacks {chain + 1} unary constituents, "
                    f"cap is {ctx.u_max}")
        after = apply_action(state, (kind, value))  # checks it is legal
        yield state, kind, value
        state = after


class RowTable:
    """The distinct rows that encoded events read, each held once: `rows`
    in the order first read, so an event's row indices are stable as the
    table grows."""

    __slots__ = ("rows", "_index")

    def __init__(self):
        self.rows = []
        self._index = {}  # row -> its index in `rows`


class RowView:
    """The history of `event` as a read-only sequence whose slot i is read
    from its rows when it is indexed, and equals `event.history[i]`."""

    __slots__ = ("_rows", "_refs", "_sources")

    def __init__(self, event):
        self._rows = event.table.rows
        self._refs = event.rows
        self._sources = _SOURCES[event.kind]

    def __len__(self):
        return len(self._sources)

    def __getitem__(self, slot):
        node, feature = self._sources[slot]
        return self._rows[self._refs[node]][feature]


def encode(tree, ctx, table=None):
    """The unique event sequence whose replay reconstructs `tree`: a list
    of DerivationEvent, one per step of `replay`.  Each queried node's row
    is read once, by the layout's row readers, and recorded in `table`
    (a fresh RowTable unless given), which holds equal rows once."""
    table = RowTable() if table is None else table
    index = table._index
    add = index.setdefault
    events = []
    for state, kind, value in replay(tree, ctx):
        frame = decision(state)[2]
        refs = tuple([add(row(frame), len(index)) for row in _ROWS[kind]])
        events.append(DerivationEvent(kind, refs, value, table))
    table.rows.extend(islice(index, len(table.rows), None))
    return events


def to_raw_tree(node):
    """Strip derivation bookkeeping from a completed constituent."""
    return fold(node, lambda leaf: RawLeaf(word=leaf.word, tag=leaf.tag),
                lambda node, kids: RawTree(label=node.label,
                                           children=tuple(kids)))


def max_unary_chain(tree):
    """Most deeply stacked unary constituents anywhere in `tree`, folded
    as (unary constituents stacked from a node down, the most below it)."""
    def inner(node, kids):
        run = kids[0][0] + 1 if len(kids) == 1 else 0
        return run, max(run, *(best for _, best in kids))
    return fold(tree, lambda leaf: (0, 0), inner)[1]
