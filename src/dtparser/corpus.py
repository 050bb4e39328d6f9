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
"""

import logging
import random
import re
from collections import Counter
from dataclasses import dataclass, field

from .errors import (EmptyConstituent, EmptyCorpus, FractionOutOfRange,
                     MissingTag, UnbalancedBrackets)

log = logging.getLogger(__name__)

FORMATS = ("underscore", "penn")
UNK = "<unk>"

_TOKEN_RE = re.compile(r"\(|\)|[^()\s]+")


@dataclass(frozen=True)
class RawLeaf:
    word: str
    tag: str


@dataclass(frozen=True)
class RawTree:
    label: str
    children: tuple  # of RawTree | RawLeaf, left to right


def _check_format(fmt):
    if fmt not in FORMATS:
        raise ValueError(f"unknown treebank format {fmt!r}, expected one of {FORMATS}")


def parse_trees(text, fmt="underscore"):
    """Parse every top-level bracketed expression in `text`.

    Returns a list of RawTree.  Raises UnbalancedBrackets, MissingTag or
    EmptyConstituent on malformed input; positions are character offsets.
    """
    _check_format(fmt)
    tokens = [(m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    trees = []
    i = 0
    while i < len(tokens):
        tok, pos = tokens[i]
        if tok != "(":
            raise UnbalancedBrackets(pos, f"expected '(' but found {tok!r}")
        tree, i = _parse_group(tokens, i, fmt)
        trees.append(tree)
    return trees


def parse_tree(text, fmt="underscore"):
    """Parse exactly one tree."""
    trees = parse_trees(text, fmt)
    if len(trees) != 1:
        raise UnbalancedBrackets(0, f"expected exactly one tree, found {len(trees)}")
    return trees[0]


def _parse_group(tokens, i, fmt):
    # tokens[i] is the opening parenthesis of this group
    open_pos = tokens[i][1]
    i += 1
    if i >= len(tokens):
        raise UnbalancedBrackets(open_pos, "unclosed '('")
    label, label_pos = tokens[i]
    if label in ("(", ")"):
        raise EmptyConstituent(open_pos, "constituent without a label")
    i += 1

    children = []
    bare = []  # (token, pos) terminals seen directly under this label
    while True:
        if i >= len(tokens):
            raise UnbalancedBrackets(open_pos, "unclosed '('")
        tok, pos = tokens[i]
        if tok == ")":
            i += 1
            break
        if tok == "(":
            child, i = _parse_group(tokens, i, fmt)
            children.append(child)
        else:
            i += 1
            if fmt == "underscore":
                children.append(_parse_leaf_token(tok, pos))
            else:
                bare.append((tok, pos))

    if fmt == "penn" and bare:
        # A preterminal is a label with exactly one bare token and no groups.
        if children or len(bare) > 1:
            tok, pos = bare[0] if not children else bare[-1]
            raise MissingTag(tok, pos)
        return RawLeaf(word=bare[0][0], tag=label), i

    if not children:
        raise EmptyConstituent(open_pos)
    return RawTree(label=label, children=tuple(children)), i


def _parse_leaf_token(token, position):
    word, sep, tag = token.rpartition("_")
    if not sep or not word or not tag:
        raise MissingTag(token, position)
    return RawLeaf(word=word, tag=tag)


def format_tree(tree, fmt="underscore"):
    """Render a tree back to its bracketed text form."""
    _check_format(fmt)
    if isinstance(tree, RawLeaf):
        if fmt == "underscore":
            return f"{tree.word}_{tree.tag}"
        return f"({tree.tag} {tree.word})"
    inner = " ".join(format_tree(c, fmt) for c in tree.children)
    return f"({tree.label} {inner})"


def read_treebank(path, fmt="underscore"):
    with open(path, encoding="utf-8") as fh:
        return parse_trees(fh.read(), fmt)


def write_treebank(trees, path, fmt="underscore"):
    with open(path, "w", encoding="utf-8") as fh:
        for tree in trees:
            fh.write(format_tree(tree, fmt) + "\n")


def leaves(tree):
    """All RawLeaf nodes of `tree`, left to right."""
    if isinstance(tree, RawLeaf):
        return [tree]
    out = []
    for child in tree.children:
        out.extend(leaves(child))
    return out


def internal_nodes(tree):
    """All RawTree nodes of `tree`, preorder."""
    if isinstance(tree, RawLeaf):
        return []
    out = [tree]
    for child in tree.children:
        out.extend(internal_nodes(child))
    return out


def sentence_words(tree):
    return [leaf.word for leaf in leaves(tree)]


def sentence_tags(tree):
    return [leaf.tag for leaf in leaves(tree)]


@dataclass
class Vocabularies:
    """Symbol tables shared by every model.

    Words occurring fewer than `unk_threshold` times are only representable
    as the reserved UNK symbol, which always comes first in `words`.
    """

    words: list            # kept words, words[0] == UNK
    word_counts: dict      # raw training counts, including rare words
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
    kept = sorted(w for w, c in word_counts.items() if c >= unk_threshold)
    return Vocabularies(
        words=[UNK] + kept,
        word_counts=dict(word_counts),
        tags=sorted(tags),
        labels=sorted(labels),
        unk_threshold=unk_threshold,
    )


def split_corpus(trees, grow_fraction=0.9, seed=0):
    """Deterministically split trees into (grow, heldout) sets.

    The split is by whole trees; each input tree lands in exactly one side.
    Order within each side follows the original corpus order.
    """
    if not 0.0 < grow_fraction < 1.0:
        raise FractionOutOfRange(f"grow fraction must be in (0, 1), got {grow_fraction}")
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
