"""Bracketed treebank I/O, vocabularies, and grow/heldout corpus splits.

Two on-disk tree formats are supported:

* ``underscore`` -- leaves are ``word_TAG`` tokens::

      (S (N Each_DD1 code_NN1) (V is_VBZ listed_VVN))

* ``penn`` -- leaves are ``(TAG word)`` groups::

      (S (N (DD1 Each) (NN1 code)) (V (VBZ is) (VVN listed)))

Both parse to the same in-memory representation.  Tokens may be any
non-empty string without whitespace or parentheses; there is no escape
mechanism.  In the underscore format the tag is whatever follows the
*last* underscore, so words may themselves contain underscores.

No tree is walked by recursion, so a tree of any depth reads, writes,
scores, compares, hashes and prints.  `postorder(tree)` yields ``(node,
start, end)`` for every node after its children, with the first and last
word positions it covers, counted from 0.  A node is a word when its
`is_leaf` is true, so a derivation's nodes are walked alike.
`fold(tree, leaf, inner)` builds a tree's value bottom-up from its words'
and children's values.  `format_tree`, `leaves`, PARSEVAL and RawTree's
==, hash() and repr() build on the two.
"""

import logging
import random
import re
from collections import Counter
from dataclasses import dataclass, field

from .config import FORMATS, check  # FORMATS re-exported
from .errors import (EmptyConstituent, EmptyCorpus, MissingTag,
                     UnbalancedBrackets, read_text)

log = logging.getLogger(__name__)

UNK = "<unk>"

_TOKEN_RE = re.compile(r"\(|\)|[^()\s]+")


@dataclass(frozen=True)
class RawLeaf:
    word: str
    tag: str
    is_leaf = True  # not a field


@dataclass(frozen=True, eq=False, repr=False)
class RawTree:
    """A constituent; its ==, hash() and repr() walk `postorder`."""

    label: str
    children: tuple  # of RawTree | RawLeaf, left to right
    is_leaf = False  # not a field; a constituent, even with no children

    def _shape(self):
        """Each node in postorder: a leaf, or a constituent's label and
        child count.  The sequence determines the tree."""
        return [node if isinstance(node, RawLeaf)
                else (node.label, len(node.children))
                for node, _, _ in postorder(self)]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._shape() == other._shape()

    def __hash__(self):
        return hash(tuple(self._shape()))

    def __repr__(self):
        def inner(node, kids):
            kids = ", ".join(kids) + ("," if len(kids) == 1 else "")
            return f"RawTree(label={node.label!r}, children=({kids}))"
        return fold(self, repr, inner)


def parse_trees(text, fmt="underscore"):
    """Parse every top-level bracketed expression in `text`.

    Returns a list of RawTree.  Raises UnbalancedBrackets, MissingTag or
    EmptyConstituent on malformed input; positions are character offsets.
    """
    check("format", fmt)
    trees = []
    stack = []  # open groups: [open position, label, children, bare tokens]
    for m in _TOKEN_RE.finditer(text):
        tok, pos = m.group(), m.start()
        if stack and stack[-1][1] is None:  # the token after '(' is its label
            if tok in ("(", ")"):
                raise EmptyConstituent(stack[-1][0],
                                       "constituent without a label")
            stack[-1][1] = tok
        elif tok == "(":
            stack.append([pos, None, [], []])
        elif not stack:
            raise UnbalancedBrackets(pos, f"expected '(' but found {tok!r}")
        elif tok == ")":
            open_pos, label, children, bare = stack.pop()
            if bare:  # a penn preterminal: exactly one bare token, no groups
                if children or len(bare) > 1:
                    raise MissingTag(*(bare[-1] if children else bare[0]))
                node = RawLeaf(word=bare[0][0], tag=label)
            elif not children:
                raise EmptyConstituent(open_pos)
            else:
                node = RawTree(label=label, children=tuple(children))
            (stack[-1][2] if stack else trees).append(node)
        elif fmt == "penn":
            stack[-1][3].append((tok, pos))
        else:  # word_TAG, split at the last underscore
            word, sep, tag = tok.rpartition("_")
            if not sep or not word or not tag:
                raise MissingTag(tok, pos)
            stack[-1][2].append(RawLeaf(word=word, tag=tag))
    if stack:
        raise UnbalancedBrackets(stack[-1][0], "unclosed '('")
    return trees


def parse_tree(text, fmt="underscore"):
    """Parse exactly one tree."""
    trees = parse_trees(text, fmt)
    if len(trees) != 1:
        raise UnbalancedBrackets(0, f"expected exactly one tree, found {len(trees)}")
    return trees[0]


def postorder(tree):
    """Every node of `tree` after its children, left to right, as
    (node, start, end): the first and last word position it covers,
    counted from 0; a node whose `is_leaf` is true is a word.  An
    explicit stack, so any depth is walked."""
    position = 0
    stack = [(None, 0, iter((tree,)))]  # a frame above the root
    while stack:
        node, start, kids = stack[-1]
        for child in kids:
            if child.is_leaf:
                yield child, position, position
                position += 1
            else:
                stack.append((child, position, iter(child.children)))
                break
        else:
            stack.pop()
            if stack:
                yield node, start, position - 1


def fold(tree, leaf, inner):
    """`tree`'s value, built bottom-up over `postorder`: `leaf(word)` at
    each word and `inner(node, values)` at each other node, given the
    list of its children's values."""
    done = []  # values of finished nodes whose parent is still open
    for node, _, _ in postorder(tree):
        if node.is_leaf:
            done.append(leaf(node))
        else:
            first = len(done) - len(node.children)
            done[first:] = [inner(node, done[first:])]
    return done[0]


def format_tree(tree, fmt="underscore"):
    """Render a tree back to its bracketed text form."""
    check("format", fmt)
    leaf = ((lambda word: f"{word.word}_{word.tag}") if fmt == "underscore"
            else (lambda word: f"({word.tag} {word.word})"))
    return fold(tree, leaf,
                lambda node, kids: f"({node.label} {' '.join(kids)})")


def read_treebank(path, fmt="underscore"):
    return parse_trees(read_text(path), fmt)


def write_treebank(trees, path, fmt="underscore"):
    with open(path, "w", encoding="utf-8") as fh:
        for tree in trees:
            fh.write(format_tree(tree, fmt) + "\n")


def leaves(tree):
    """All RawLeaf nodes of `tree`, left to right."""
    return [node for node, _, _ in postorder(tree) if isinstance(node, RawLeaf)]


def internal_nodes(tree):
    """All RawTree nodes of `tree`, preorder."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if not isinstance(node, RawLeaf):
            out.append(node)
            stack.extend(reversed(node.children))
    return out


def sentence_words(tree):
    return [leaf.word for leaf in leaves(tree)]


def sentence_tags(tree):
    return [leaf.tag for leaf in leaves(tree)]


@dataclass
class Vocabularies:
    """Symbol tables shared by every model.

    Words occurring fewer than `unk_threshold` times are only representable
    as the reserved UNK symbol, which always comes first in `words`; a
    treebank word spelled like UNK is UNK itself, never a kept word.
    """

    words: list            # kept words, words[0] == UNK
    word_counts: dict      # training counts of the kept words
    tags: list
    labels: list
    unk_threshold: int
    _kept: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._kept = frozenset(self.words)

    def word_symbol(self, word):
        """Map a surface word to its modelled symbol (UNK when rare/unseen)."""
        return word if word in self._kept else UNK


def build_vocabularies(trees, unk_threshold=3):
    """Collect word/tag/label inventories from training trees."""
    if not trees:
        raise EmptyCorpus("cannot build vocabularies from an empty corpus")
    word_counts = Counter()
    tags = set()
    labels = set()
    for tree in trees:
        for leaf in leaves(tree):
            word_counts[leaf.word] += 1
            tags.add(leaf.tag)
        for node in internal_nodes(tree):
            labels.add(node.label)
    kept = sorted(w for w, c in word_counts.items()
                  if c >= unk_threshold and w != UNK)
    return Vocabularies(
        words=[UNK] + kept,
        word_counts={w: word_counts[w] for w in kept},
        tags=sorted(tags),
        labels=sorted(labels),
        unk_threshold=unk_threshold,
    )


def split_corpus(trees, grow_fraction=0.9, seed=0):
    """Deterministically split trees into (grow, heldout) sets.

    The split is by whole trees; each input tree lands in exactly one side.
    Order within each side follows the original corpus order.
    """
    check("grow_fraction", grow_fraction)
    if not trees:
        raise EmptyCorpus("cannot split an empty corpus")
    indices = list(range(len(trees)))
    random.Random(seed).shuffle(indices)
    n_grow = min(max(round(len(trees) * grow_fraction), 1), len(trees))
    grow_idx = sorted(indices[:n_grow])
    smooth_idx = sorted(indices[n_grow:])
    if not smooth_idx:
        log.warning("corpus split left no heldout trees (%d trees, fraction %.3f)",
                    len(trees), grow_fraction)
    return [trees[i] for i in grow_idx], [trees[i] for i in smooth_idx]
