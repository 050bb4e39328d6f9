"""Seeded treebank generators for the benchmark workloads.

Two grammars, both producing `dtparser.corpus.RawTree` values:

* the toy grammar: every word has exactly one tag, PPs always attach to
  the verb phrase and names form unary noun phrases, so a trained model
  is nearly deterministic and search expands about one hypothesis per
  decision;
* the ambiguous grammar: a Zipfian open-class vocabulary in which some
  words are both nouns and verbs, PPs that attach to the object NP or to
  the VP, noun compounds, and optional tag noise on training trees, so
  search keeps many hypotheses alive.

The generators live here rather than in the test suite so that editing
a test helper cannot move the benchmark.
"""

import random

from dtparser.corpus import RawLeaf, RawTree, leaves


def words_of(tree):
    return [leaf.word for leaf in leaves(tree)]


# --- toy grammar ---

TOY_WORDS = {
    "DT": ("the", "a"),
    "JJ": ("big", "red", "old"),
    "NN": ("dog", "cat", "ball", "park", "bone"),
    "NNP": ("rex", "mia"),
    "VB": ("sees", "likes", "finds", "sleeps", "runs"),
    "IN": ("in", "near"),
}


def _toy_leaf(rng, tag):
    return RawLeaf(word=rng.choice(TOY_WORDS[tag]), tag=tag)


def _toy_np(rng, names=True):
    r = rng.random()
    if names and r < 0.3:
        return RawTree("NP", (_toy_leaf(rng, "NNP"),))
    if r < 0.75:
        return RawTree("NP", (_toy_leaf(rng, "DT"), _toy_leaf(rng, "NN")))
    return RawTree("NP", (_toy_leaf(rng, "DT"), _toy_leaf(rng, "JJ"),
                          _toy_leaf(rng, "NN")))


def _toy_vp(rng):
    r = rng.random()
    if r < 0.3:
        return RawTree("VP", (_toy_leaf(rng, "VB"),))
    if r < 0.75:
        return RawTree("VP", (_toy_leaf(rng, "VB"), _toy_np(rng)))
    pp = RawTree("PP", (_toy_leaf(rng, "IN"), _toy_np(rng, names=False)))
    return RawTree("VP", (_toy_leaf(rng, "VB"), _toy_np(rng), pp))


def toy_tree(rng):
    if rng.random() < 0.08:
        return RawTree("S", (RawTree("NP", (_toy_leaf(rng, "NNP"),)),))
    return RawTree("S", (_toy_np(rng), _toy_vp(rng)))


def toy_corpus(n, seed):
    rng = random.Random(seed)
    return [toy_tree(rng) for _ in range(n)]


def toy_refill(tree, rng):
    """`tree` with every word drawn afresh for its tag."""
    if isinstance(tree, RawLeaf):
        return _toy_leaf(rng, tree.tag)
    return RawTree(tree.label, tuple(toy_refill(c, rng)
                                     for c in tree.children))


# --- ambiguous grammar ---

class Lexicon:
    """Open-class words with Zipfian frequencies, plus closed classes.

    The word forms are fixed; only sampling depends on the seed.  The
    first SHARED noun ranks and the first SHARED verb ranks are the same
    word forms, so those words are noun/verb ambiguous.
    """

    NOUNS, VERBS, ADJECTIVES, SHARED = 240, 120, 60, 60
    CLOSED = {
        "DT": ("the", "a", "every", "some"),
        "IN": ("in", "on", "with", "near", "by"),
        "NNP": ("ann", "bo", "cy", "di", "ed", "flo"),
    }

    def __init__(self):
        common = [f"nv{i:03d}" for i in range(self.SHARED)]
        nouns = [f"n{i:03d}" for i in range(self.NOUNS - self.SHARED)]
        verbs = [f"v{i:03d}" for i in range(self.VERBS - self.SHARED)]
        self.open = {
            # interleave so ambiguous words sit across the frequency range
            "NN": _interleave(common, nouns),
            "VB": _interleave(common, verbs),
            "JJ": [f"j{i:03d}" for i in range(self.ADJECTIVES)],
        }
        self._weights = {tag: [1.0 / (rank + 1) for rank in range(len(ws))]
                         for tag, ws in self.open.items()}
        self.tags = sorted(list(self.open) + list(self.CLOSED))

    def word(self, rng, tag):
        if tag in self.CLOSED:
            return rng.choice(self.CLOSED[tag])
        return rng.choices(self.open[tag], weights=self._weights[tag])[0]


def _interleave(first, second):
    out = []
    for i in range(max(len(first), len(second))):
        out.extend(xs[i] for xs in (second, first) if i < len(xs))
    return out


class AmbiguousGrammar:
    """S -> NP VP; NP -> NNP | DT NN | DT JJ NN | DT NN NN | NP PP;
    VP -> VB | VB NP | VB NP PP | VB PP; PP -> IN NP.

    `VB NP PP` against `VB (NP NP PP)` is the PP-attachment ambiguity;
    noun/verb-ambiguous words and `DT NN NN` compounds make tagging
    ambiguous.  PP recursion stops after MAX_PP levels per phrase.
    """

    MAX_PP = 1

    def __init__(self):
        self.lexicon = Lexicon()

    def _leaf(self, rng, tag):
        return RawLeaf(word=self.lexicon.word(rng, tag), tag=tag)

    def _np(self, rng, pp_budget):
        r = rng.random()
        if pp_budget > 0 and r < 0.18:
            return RawTree("NP", (self._np(rng, pp_budget - 1),
                                  self._pp(rng, pp_budget - 1)))
        r = rng.random()
        if r < 0.2:
            return RawTree("NP", (self._leaf(rng, "NNP"),))
        if r < 0.6:
            return RawTree("NP", (self._leaf(rng, "DT"),
                                  self._leaf(rng, "NN")))
        if r < 0.85:
            return RawTree("NP", (self._leaf(rng, "DT"), self._leaf(rng, "JJ"),
                                  self._leaf(rng, "NN")))
        return RawTree("NP", (self._leaf(rng, "DT"), self._leaf(rng, "NN"),
                              self._leaf(rng, "NN")))

    def _pp(self, rng, pp_budget):
        return RawTree("PP", (self._leaf(rng, "IN"), self._np(rng, pp_budget)))

    def _vp(self, rng):
        r = rng.random()
        verb = self._leaf(rng, "VB")
        if r < 0.15:
            return RawTree("VP", (verb,))
        if r < 0.55:
            return RawTree("VP", (verb, self._np(rng, self.MAX_PP)))
        if r < 0.85:
            return RawTree("VP", (verb, self._np(rng, 0),
                                  self._pp(rng, self.MAX_PP)))
        return RawTree("VP", (verb, self._pp(rng, self.MAX_PP)))

    def tree(self, rng):
        return RawTree("S", (self._np(rng, self.MAX_PP), self._vp(rng)))

    def corpus(self, n, rng, noise=0.0):
        """`n` trees; with probability `noise` each leaf's tag is replaced
        by a different tag drawn uniformly."""
        trees = [self.tree(rng) for _ in range(n)]
        if noise > 0.0:
            trees = [self._noisy(t, rng, noise) for t in trees]
        return trees

    def _noisy(self, tree, rng, noise):
        if isinstance(tree, RawLeaf):
            if rng.random() >= noise:
                return tree
            tag = rng.choice([t for t in self.lexicon.tags if t != tree.tag])
            return RawLeaf(word=tree.word, tag=tag)
        return RawTree(tree.label, tuple(self._noisy(c, rng, noise)
                                         for c in tree.children))

    def refill(self, tree, rng):
        """`tree` with every word drawn afresh for its tag."""
        if isinstance(tree, RawLeaf):
            return self._leaf(rng, tree.tag)
        return RawTree(tree.label, tuple(self.refill(c, rng)
                                         for c in tree.children))

    def sentences(self, n, rng, lengths):
        """`n` clean trees whose lengths cycle through `lengths`, so every
        seed gets the same length profile."""
        wanted = [lengths[i % len(lengths)] for i in range(n)]
        pools = {length: [] for length in lengths}
        out = []
        for length in wanted:
            while not pools[length]:
                tree = self.tree(rng)
                k = len(words_of(tree))
                if k in pools:
                    pools[k].append(tree)
            out.append(pools[length].pop(0))
        return out
