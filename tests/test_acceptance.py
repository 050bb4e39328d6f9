"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` for a pass/fail line per
criterion.  The licensed-treebank criterion (9) only runs when
DTPARSER_WSJ_TRAIN / DTPARSER_WSJ_TEST point at bracketed section files;
it takes hours and stays out of CI.
"""

import math
import os
import random
import time
from collections import Counter

import numpy as np
import pytest

import toylang
from reference import as_forced_order_tree, decode
from dtparser import derivation, models, modelfile, parseval, search
from dtparser.config import Config
from dtparser.corpus import format_tree, leaves, read_treebank, split_corpus
from dtparser.derivation import DerivationContext
from dtparser.dtm import smooth, walk
from dtparser.headfinder import default_head_rules
from dtparser.search import STATUS_MEMORY, STATUS_OPTIMAL

import test_dtm
import test_parseval


def _parse_all(model_set, sentences, config):
    return [search.parse(model_set, words, config) for words in sentences]


def test_criterion_1_search_matches_exhaustive_enumeration(toy_model_set,
                                                           config):
    start = time.monotonic()
    sentences = toylang.short_sentences(200, 101, max_words=8)
    agreed = 0
    for words in sentences:
        got = search.parse(toy_model_set, words, config)
        oracle = search.exhaustive_parse(toy_model_set, words)
        assert got.status == STATUS_OPTIMAL
        assert format_tree(got.tree) == format_tree(oracle.tree)
        assert got.logprob == pytest.approx(oracle.logprob, rel=1e-12)
        agreed += 1
    elapsed = time.monotonic() - start
    assert agreed == len(sentences) == 200
    assert elapsed < 600
    print(f"PASS criterion 1: 200/200 optimal parses equal exhaustive "
          f"enumeration ({elapsed:.1f}s)")


def test_criterion_2_derivations_are_a_bijection(toy_treebank, toy_model_set):
    ctx = toy_model_set.context()
    for tree in toy_treebank:
        events = derivation.encode(tree, ctx)
        rebuilt = decode([l.word for l in leaves(tree)], events, ctx)
        assert format_tree(rebuilt).encode() == format_tree(tree).encode()

    random_ctx = DerivationContext(tags=toylang.RANDOM_TAGS,
                                   labels=toylang.RANDOM_LABELS,
                                   heads=default_head_rules(),
                                   u_max=toylang.RANDOM_U_MAX)
    rng = random.Random(424)
    for _ in range(1000):
        tree = toylang.random_tree(rng)
        events = derivation.encode(tree, random_ctx)
        rebuilt = decode([l.word for l in leaves(tree)], events,
                         random_ctx)
        assert format_tree(rebuilt).encode() == format_tree(tree).encode()
    print("PASS criterion 2: encode/decode reproduced 50 treebank trees and "
          "1000 random trees byte-identically")


def test_criterion_3_forced_order_tree_equals_the_ngram_table():
    schema, events = test_dtm.tagging_fixture(5000, seed=31)
    flat = as_forced_order_tree(schema, schema.questions(), events)
    table = {}
    for history, future in events:
        table.setdefault(history, Counter())[future] += 1
    for history, futures in table.items():
        node = flat.nodes[walk(flat, history)]
        assert node.counts.tolist() == [futures.get(f, 0)
                                        for f in schema.futures]
    print(f"PASS criterion 3: fixed-order tree reproduced the empirical "
          f"conditional table on all {len(table)} observed histories of "
          f"5000 events")


def test_criterion_4_smoothing_contracts(toy_model_set):
    for kind, model in toy_model_set.models.items():
        for node, dist in zip(model.nodes, model.smoothed):
            if node.is_leaf:  # only a leaf keeps its distribution
                assert dist.sum() == pytest.approx(1.0, abs=1e-9)
                assert dist.min() > 0.0
        assert model.heldout_used
        for earlier, later in zip(model.em_log, model.em_log[1:]):
            assert later >= earlier - 1e-9 * max(1.0, abs(earlier))

    schema, tree, heldout = test_dtm.em_fixture()
    model = smooth(tree, heldout, schema, test_dtm.CFG)
    emp = {"root": {"x": 0.5, "y": 0.375, "z": 0.125},
           "yes": {"x": 1.0, "y": 0.0, "z": 0.0},
           "no": {"x": 0.0, "y": 0.75, "z": 0.25}}
    counts = {("yes", "x"): 4, ("yes", "y"): 2, ("no", "y"): 2, ("no", "x"): 1}

    def loglik(lam_leaf, lam_root):
        total = 0.0
        for (leaf, f), count in counts.items():
            mid = lam_root * emp["root"][f] + (1 - lam_root) / 3
            p = lam_leaf * emp[leaf][f] + (1 - lam_leaf) * mid
            if p <= 0.0:
                return -math.inf
            total += count * math.log(p)
        return total

    _, grid_leaf, grid_root = max(
        (loglik(a / 100, b / 100), a / 100, b / 100)
        for a in range(101) for b in range(101))
    assert model.bucket_lambdas[3] == pytest.approx(grid_leaf, abs=0.02)
    assert model.bucket_lambdas[4] == pytest.approx(grid_root, abs=0.02)
    print(f"PASS criterion 4: distributions normalized and positive, "
          f"held-out log-likelihood non-decreasing, EM lambdas "
          f"({model.bucket_lambdas[3]:.3f}, {model.bucket_lambdas[4]:.3f}) "
          f"within 0.02 of the grid optimum ({grid_leaf:.2f}, {grid_root:.2f})")


def test_criterion_5_training_trees_are_reconstructed(toy_treebank,
                                                      toy_model_set, config):
    exact = 0
    tags_right = words_total = 0
    for tree in toy_treebank:
        words = [l.word for l in leaves(tree)]
        result = search.parse(toy_model_set, words, config)
        if format_tree(result.tree) == format_tree(tree):
            exact += 1
        score = parseval.score_pair(tree, result.tree)
        tags_right += score.tags_correct
        words_total += score.length
    exact_rate = 100.0 * exact / len(toy_treebank)
    tagging = 100.0 * tags_right / words_total
    assert exact_rate >= 95.0
    assert tagging >= 99.0
    print(f"PASS criterion 5: {exact}/{len(toy_treebank)} training trees "
          f"exactly reconstructed ({exact_rate:.0f}%), tagging accuracy "
          f"{tagging:.1f}%")


def test_criterion_6_parseval_fixture_suite():
    from dtparser.corpus import parse_tree
    for name, (gold, test, expected) in sorted(test_parseval.PAIRS.items()):
        score = parseval.score_pair(parse_tree(gold), parse_tree(test))
        got = (score.gold_constituents, score.test_constituents,
               score.correct_unlabelled, score.correct_labelled,
               score.crossings)
        assert got == expected, name
    micro = parseval.aggregate(
        [parseval.score_pair(parse_tree(g), parse_tree(t))
         for g, t, _ in (test_parseval.PAIRS["micro-a"],
                         test_parseval.PAIRS["micro-b"])],
        ranges=((1, 10),))
    assert micro.cell("Precision", (1, 10)) == pytest.approx(400 / 6)
    assert micro.cell("Recall", (1, 10)) == pytest.approx(400 / 6)
    print("PASS criterion 6: all hand-scored bracket fixtures and the "
          "two-sentence micro-average reproduced exactly")


def test_criterion_7_memory_cap_reporting(toy_treebank, toy_model_set,
                                          config):
    sentences = [[l.word for l in leaves(t)] for t in toy_treebank]
    roomy = config.replace(max_hypotheses=10 ** 6)
    results = _parse_all(toy_model_set, sentences, roomy)
    assert all(r.status == STATUS_OPTIMAL for r in results)

    tight = config.replace(max_hypotheses=10 ** 3)
    stressed = sentences + [[f"q{i}" for i in range(15)]]
    capped = _parse_all(toy_model_set, stressed, tight)
    assert all(r.tree is not None for r in capped)
    memory = sum(r.status == STATUS_MEMORY for r in capped)
    assert memory >= 1
    assert all(r.status in (STATUS_OPTIMAL, STATUS_MEMORY) for r in capped)
    print(f"PASS criterion 7: 50/50 optimal under the 10^6 cap; "
          f"{memory} sentence(s) degraded to {STATUS_MEMORY} under the "
          f"10^3 cap without crashing")


def test_criterion_8_persistence_is_bit_exact(toy_treebank, toy_model_set,
                                              tmp_path):
    path = tmp_path / "toy.model"
    modelfile.save_model_set(toy_model_set, Config(), path)
    loaded = modelfile.load_model_set(path)
    ctx = toy_model_set.context()
    pools = {kind: [] for kind in derivation.KINDS}
    for tree in toy_treebank:
        for event in derivation.encode(tree, ctx):
            pools[event.kind].append(event.history)
    rng = random.Random(5)
    for kind, pool in pools.items():
        histories = rng.sample(pool, 100) if len(pool) >= 100 else \
            rng.choices(pool, k=100)
        for history in histories:
            before = toy_model_set.models[kind].predict(history)
            after = loaded.models[kind].predict(history)
            assert before.tobytes() == after.tobytes()
    print("PASS criterion 8: reloaded models predict bit-identically on "
          "100 sampled histories per model")


@pytest.mark.skipif(
    not (os.environ.get("DTPARSER_WSJ_TRAIN")
         and os.environ.get("DTPARSER_WSJ_TEST")),
    reason="licensed treebank not supplied "
           "(set DTPARSER_WSJ_TRAIN and DTPARSER_WSJ_TEST)")
def test_criterion_9_licensed_treebank_accuracy():
    config = Config(format="penn")
    train_trees = read_treebank(os.environ["DTPARSER_WSJ_TRAIN"], "penn")
    test_trees = read_treebank(os.environ["DTPARSER_WSJ_TEST"], "penn")
    grow, heldout = split_corpus(train_trees, config.grow_fraction,
                                 config.seed)
    model_set = models.train(grow, heldout, config)
    scores = []
    for gold in test_trees:
        words = [l.word for l in leaves(gold)]
        if not 4 <= len(words) <= 40:
            continue
        result = search.parse(model_set, words, config)
        if result.tree is not None:
            scores.append(parseval.score_pair(gold, result.tree))
    report = parseval.aggregate(scores, ranges=((4, 40),))
    precision = report.cell("Precision", (4, 40))
    recall = report.cell("Recall", (4, 40))
    tagging = report.cell("Tagging Accuracy", (4, 40))
    assert abs(precision - 86.3) <= 4.0
    assert abs(recall - 85.8) <= 4.0
    assert tagging >= 94.0
    print(f"PASS criterion 9: precision {precision:.1f}%, recall "
          f"{recall:.1f}%, tagging {tagging:.1f}% on the licensed test set")
