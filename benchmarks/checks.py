"""Output checks, made outside the timed region.

The parse checks return the indices of the sentences that failed them and
the training check returns how many checks failed, so the benchmark can
count failed operations against attempted ones.  The checks compare against computations that do not go through the search
(rescoring, the exhaustive enumeration, a bracket scorer written here)
or against properties the method must have.
"""

import math

import numpy as np

from dtparser import corpus, derivation, models, parseval, search
from dtparser.errors import DTParserError


def brackets(tree):
    """The set of (label, start, end) spans of the constituents of `tree`,
    root included; words are not constituents."""
    spans = set()

    def walk(node, start):
        if not hasattr(node, "children"):
            return start + 1
        end = start
        for child in node.children:
            end = walk(child, end)
        spans.add((node.label, start, end - 1))
        return end

    walk(tree, 0)
    return spans


def f1(correct, gold, test):
    if correct == 0:
        return 0.0
    precision, recall = correct / test, correct / gold
    return 100.0 * 2 * precision * recall / (precision + recall)


def check_parses(model_set, golds, results, exhaustive_ids):
    """Checks on one parse per gold tree; `results[i]` is the SearchResult
    for the words of `golds[i]`.

    Returns the failed indices, and (index, gold, test, bracket counts)
    for every parse that passed, for `score_with_parseval`.
    """
    failed = set()
    scores = []
    for i, (gold, result) in enumerate(zip(golds, results)):
        words = [leaf.word for leaf in corpus.leaves(gold)]
        if result.status != search.STATUS_OPTIMAL or result.tree is None:
            failed.add(i)
            continue
        if [leaf.word for leaf in corpus.leaves(result.tree)] != words:
            failed.add(i)
            continue
        try:
            rescored = models.derivation_logprob(model_set, result.tree)
            gold_logprob = models.derivation_logprob(model_set, gold)
        except DTParserError:
            failed.add(i)
            continue
        if rescored != result.logprob or gold_logprob > result.logprob:
            failed.add(i)
        gold_b, test_b = brackets(gold), brackets(result.tree)
        mine = (len(gold_b & test_b), len(gold_b), len(test_b))
        scores.append((i, gold, result.tree, mine))
    for i in exhaustive_ids:
        if i in failed:
            continue
        words = [leaf.word for leaf in corpus.leaves(golds[i])]
        oracle = search.exhaustive_parse(model_set, words)
        if (oracle.logprob != results[i].logprob
                or corpus.format_tree(oracle.tree)
                != corpus.format_tree(results[i].tree)):
            failed.add(i)
    return failed, scores


def score_with_parseval(scores):
    """Score the (index, gold, test, expected counts) tuples with
    `parseval.score_pair`, asking for unique brackets, which is what the
    set-based scorer above counts.  Returns the indices whose counts
    disagree and the (correct, gold, test) totals."""
    failed = set()
    totals = [0, 0, 0]
    for i, gold, test, expected in scores:
        s = parseval.score_pair(gold, test, include_root=True, multiset=False)
        got = (s.correct_labelled, s.gold_constituents, s.test_constituents)
        if got != expected:
            failed.add(i)
        for k in range(3):
            totals[k] += got[k]
    return failed, totals


def check_trained(trained, loaded, grow_trees, heldout_trees, max_events):
    """Train-side checks; returns the number of checks that failed.

    * each model's root count equals the events counted straight from the
      raw grow trees: words for `tag`, constituents for `label`, both for
      `extension`;
    * every stored leaf distribution is positive and sums to 1 within 1e-9;
    * the loaded models predict bit-identically to the trained ones on
      up to `max_events` held-out histories of each kind.
    """
    failures = 0
    n_words = sum(len(corpus.leaves(t)) for t in grow_trees)
    n_nodes = sum(len(corpus.internal_nodes(t)) for t in grow_trees)
    expected = {derivation.KIND_TAG: n_words, derivation.KIND_LABEL: n_nodes,
                derivation.KIND_EXTENSION: n_words + n_nodes}
    for model_set in (trained, loaded):
        for kind, count in expected.items():
            if model_set.models[kind].root.total != count:
                failures += 1
    for model in loaded.models.values():
        for node, dist in zip(model.nodes, model.smoothed):
            if node.is_leaf and (
                    dist is None or dist.min() <= 0.0
                    or not math.isclose(dist.sum(), 1.0, rel_tol=0.0,
                                        abs_tol=1e-9)):
                failures += 1
    ctx = loaded.context()
    seen = {kind: 0 for kind in derivation.KINDS}
    for tree in heldout_trees:
        for event in derivation.encode(tree, ctx):
            if seen[event.kind] >= max_events:
                continue
            seen[event.kind] += 1
            a = trained.models[event.kind].predict(event.history)
            b = loaded.models[event.kind].predict(event.history)
            if not np.array_equal(a, b):
                failures += 1
    if min(seen.values()) == 0:
        failures += 1  # nothing was compared
    return failures
