"""A tiny unambiguous grammar for generating test corpora.

Every word belongs to exactly one tag, prepositional phrases always
attach to the verb phrase, and names form unary noun phrases, so a
trained model can reconstruct training trees essentially perfectly.
Sentences run from one word ((S (NP (NNP rex)))) up to eleven.
"""

import random

from dtparser.corpus import RawLeaf, RawTree

WORDS = {
    "DT": ("the", "a"),
    "JJ": ("big", "red", "old"),
    "NN": ("dog", "cat", "ball", "park", "bone"),
    "NNP": ("rex", "mia"),
    "VB": ("sees", "likes", "finds", "sleeps", "runs"),
    "IN": ("in", "near"),
}

TAGS = tuple(sorted(WORDS))
LABELS = ("NP", "PP", "S", "VP")


def _leaf(rng, tag):
    return RawLeaf(word=rng.choice(WORDS[tag]), tag=tag)


def _np(rng, names=True):
    r = rng.random()
    if names and r < 0.3:
        return RawTree("NP", (_leaf(rng, "NNP"),))
    if r < 0.75:
        return RawTree("NP", (_leaf(rng, "DT"), _leaf(rng, "NN")))
    return RawTree("NP", (_leaf(rng, "DT"), _leaf(rng, "JJ"), _leaf(rng, "NN")))


def _pp(rng):
    return RawTree("PP", (_leaf(rng, "IN"), _np(rng, names=False)))


def _vp(rng):
    r = rng.random()
    if r < 0.3:
        return RawTree("VP", (_leaf(rng, "VB"),))
    if r < 0.75:
        return RawTree("VP", (_leaf(rng, "VB"), _np(rng)))
    return RawTree("VP", (_leaf(rng, "VB"), _np(rng), _pp(rng)))


def sentence(rng):
    if rng.random() < 0.08:
        return RawTree("S", (RawTree("NP", (_leaf(rng, "NNP"),)),))
    return RawTree("S", (_np(rng), _vp(rng)))


def corpus(n, seed):
    rng = random.Random(seed)
    return [sentence(rng) for _ in range(n)]


def short_sentences(n, seed, max_words=8):
    """`n` sentences of at most `max_words` words, as word lists."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        tree = sentence(rng)
        words = [leaf.word for leaf in _tree_leaves(tree)]
        if len(words) <= max_words:
            out.append(words)
    return out


def _tree_leaves(tree):
    if isinstance(tree, RawLeaf):
        return [tree]
    out = []
    for child in tree.children:
        out.extend(_tree_leaves(child))
    return out


# --- arbitrary (non-grammar) random trees, for round-trip tests ---

RANDOM_WORDS = ("u", "v", "w", "x", "y", "z")
RANDOM_TAGS = ("T1", "T2", "T3")
RANDOM_LABELS = ("A", "B", "C")
RANDOM_U_MAX = 3


def random_tree(rng, max_depth=4):
    """A random well-formed tree with unary chains at most RANDOM_U_MAX."""

    def node(depth, chain_budget):
        if depth >= max_depth:
            return RawLeaf(rng.choice(RANDOM_WORDS), rng.choice(RANDOM_TAGS))
        k = rng.choice((1, 1, 2, 2, 2, 3))
        if k == 1 and chain_budget == 0:
            k = 2
        if k == 1:
            children = (child(depth, chain_budget - 1),)
        else:
            children = tuple(child(depth, RANDOM_U_MAX) for _ in range(k))
        return RawTree(rng.choice(RANDOM_LABELS), children)

    def child(depth, chain_budget):
        if rng.random() < 0.4:
            return RawLeaf(rng.choice(RANDOM_WORDS), rng.choice(RANDOM_TAGS))
        return node(depth + 1, chain_budget)

    return node(0, RANDOM_U_MAX)


def random_corpus(n, seed):
    """`n` random trees from one seeded generator."""
    rng = random.Random(seed)
    return [random_tree(rng) for _ in range(n)]


# --- trees deeper than Python's recursion limit ---

DEEP = 1200


def unary_chain(depth):
    """`depth` unary A constituents stacked over the one word w_T."""
    tree = RawLeaf("w", "T")
    for _ in range(depth):
        tree = RawTree("A", (tree,))
    return tree


def right_branching(depth):
    """`depth` nested A constituents, each a word w_T then the next one
    down; the innermost holds two words."""
    tree = RawTree("A", (RawLeaf("w", "T"), RawLeaf("w", "T")))
    for _ in range(depth - 1):
        tree = RawTree("A", (RawLeaf("w", "T"), tree))
    return tree
