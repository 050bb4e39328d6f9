"""The three linked decision-tree models and the training pipeline.

Training replays every tree of both splits once into its derivation
events and routes them by decision kind: word-tagging events train the
tag model (one per word), constituent-labelling events the label model
(one per internal node), and attachment events the extension model (one
per node).  An event records its history as the rows it reads, in one
`derivation.RowTable` for the whole training run, and each distinct row
is encoded once (`dtm.encode_rows`).  Each model is grown on the grow
split, from slot columns gathered from those codes
(`dtm.ModelSchema.gather`), and interpolation-smoothed on the held-out
split, whose events it walks through `derivation.RowView`s of their rows.

The three future vocabularies are the tag set, the label set and the
five extensions.  Histories are encoded through class trees built from
training co-occurrence: adjacent words (rare words folded into the
unknown symbol), adjacent tags, and adjacent sibling constituent symbols
(word-level siblings count as the reserved tag pseudo-label).  The five
extensions use a small fixed code since they have no useful statistics
to cluster.
"""

import logging
import math
from collections import Counter
from dataclasses import dataclass, field

from . import classtree, derivation, dtm
from .corpus import (UNK, RawLeaf, build_vocabularies, internal_nodes,
                     sentence_tags, sentence_words)
from .errors import BadSetting, DTParserError, IllegalAction
from .headfinder import default_head_rules

log = logging.getLogger(__name__)

SCHEMA_VERSION = 3
DEFAULT_U_MAX = 4


@dataclass
class ModelSet:
    """Everything a trained parser needs, frozen after training."""

    vocab: object
    heads: object
    class_trees: dict              # value kind -> ClassTree
    models: dict                   # decision kind -> SmoothedModel
    u_max: int
    _ctx: object = field(default=None, init=False, repr=False, compare=False)
    _word_bounds: dict = field(default_factory=dict, init=False,
                               repr=False, compare=False)

    def context(self):
        if self._ctx is None:
            self._ctx = derivation.DerivationContext(
                tags=tuple(self.vocab.tags), labels=tuple(self.vocab.labels),
                heads=self.heads, u_max=self.u_max)
        return self._ctx

    def word_bound(self, word):
        """Upper bounds, as log probabilities, on the tag decision of
        `word` and on the extension decision of its word node, wherever
        the word stands in whatever sentence.  Computed on a word's first
        use and cached by its class code, which is all of the word the
        models can read."""
        code = self.class_trees["word"].codes[word]
        bound = self._word_bounds.get(code)
        if bound is None:
            tag, extension = derivation.word_histories(word, dtm.UNKNOWN)
            bound = tuple(
                math.log(dtm.max_leaf_probability(model.tree, history,
                                                  model.smoothed))
                for model, history in (
                    (self.models[derivation.KIND_TAG], tag),
                    (self.models[derivation.KIND_EXTENSION], extension)))
            self._word_bounds[code] = bound
        return bound


def make_schema(kind, vocab, class_trees):
    futures = {
        derivation.KIND_TAG: vocab.tags,
        derivation.KIND_LABEL: vocab.labels,
        derivation.KIND_EXTENSION: derivation.EXTENSIONS,
    }[kind]
    return dtm.ModelSchema(kind=kind, slots=derivation.slot_layout(kind),
                           encoders=class_trees, futures=futures)


# The symbol a class tree codes an unlisted one as: the word tree's only.
CLASS_FALLBACKS = {"word": UNK}


def class_symbols(vocab):
    """The symbols each class tree must give a code, by value kind."""
    return {"word": vocab.words, "tag": vocab.tags,
            "label": vocab.labels + [derivation.TAG_LABEL],
            "extension": derivation.EXTENSIONS}


def build_classes(trees, config):
    """The vocabularies of `trees`, and word, tag, label and extension
    class trees from their bigrams."""
    vocab = build_vocabularies(trees, config.unk_threshold)
    bigrams = {"word": Counter(), "tag": Counter(), "label": Counter()}
    for tree in trees:
        runs = [("word", [vocab.word_symbol(w) for w in sentence_words(tree)]),
                ("tag", sentence_tags(tree))]
        runs += [("label", [derivation.TAG_LABEL if isinstance(child, RawLeaf)
                            else child.label for child in node.children])
                 for node in internal_nodes(tree)]
        for kind, run in runs:
            bigrams[kind].update(zip(run, run[1:]))
    window = config.cluster_window
    symbols = class_symbols(vocab)
    return vocab, {
        "word": classtree.build_class_tree(
            symbols["word"], bigrams["word"], config.word_bits,
            window=window, fallback=CLASS_FALLBACKS["word"]),
        "tag": classtree.build_class_tree(
            symbols["tag"], bigrams["tag"], config.tag_bits, window=window),
        "label": classtree.build_class_tree(
            symbols["label"], bigrams["label"], config.label_bits,
            window=window),
        "extension": classtree.fixed_class_tree(
            symbols["extension"], config.extension_bits),
    }


def observed_u_max(trees):
    longest = max((derivation.max_unary_chain(t) for t in trees), default=0)
    return longest if longest > 0 else DEFAULT_U_MAX


def _encode_corpus(trees, ctx, table, what):
    """The events of `trees` by decision kind, their rows in `table`."""
    routed = {kind: [] for kind in derivation.KINDS}
    for index, tree in enumerate(trees):
        try:
            for event in derivation.encode(tree, ctx, table):
                routed[event.kind].append(event)
        except DTParserError as exc:
            raise type(exc)(f"{what} sentence {index}: {exc}") from exc
    return routed


def train(grow_trees, smooth_trees, config, heads=None, classes=None):
    """Train tag/label/extension models from an already split corpus.

    `classes` is the (vocabularies, class trees) pair `build_classes`
    builds from the union of both splits, unless given (as
    `modelfile.load_classes` returns it).  The classes fix
    `unk_threshold` and each `*_bits` setting: one that `config` states
    otherwise raises BadSetting.
    """
    all_trees = list(grow_trees) + list(smooth_trees)
    vocab, class_trees = classes or build_classes(all_trees, config)
    fixed = {f"{kind}_bits": tree.budget for kind, tree in class_trees.items()}
    for key, value in {"unk_threshold": vocab.unk_threshold, **fixed}.items():
        if getattr(config, key) != value:
            raise BadSetting(f"setting {key}={getattr(config, key)!r}, but "
                             f"the classes were built with {key}={value!r}")
    if heads is None:
        heads = default_head_rules()
    u_max = config.u_max if config.u_max > 0 else observed_u_max(all_trees)

    model_set = ModelSet(vocab=vocab, heads=heads, class_trees=class_trees,
                         models={}, u_max=u_max)
    ctx = model_set.context()
    table = derivation.RowTable()
    grow_events = _encode_corpus(grow_trees, ctx, table, "grow")
    heldout_events = _encode_corpus(smooth_trees, ctx, table, "heldout")
    row_codes = dtm.encode_rows(table.rows, derivation.ROW_KINDS, class_trees)

    models = model_set.models
    for kind in derivation.KINDS:
        schema = make_schema(kind, vocab, class_trees)
        log.info("growing %s model from %d events", kind, len(grow_events[kind]))
        try:
            tree = dtm.grow(schema.gather(row_codes, grow_events[kind],
                                          derivation.slot_sources(kind)),
                            schema, config)
            heldout = [(derivation.RowView(event), event.future)
                       for event in heldout_events[kind]]
            models[kind] = dtm.smooth(tree, heldout, schema, config)
        except DTParserError as exc:
            raise type(exc)(f"{kind} model: {exc}") from exc
        log.info("%s model: %d nodes, %d lambda buckets%s", kind,
                 len(models[kind].nodes), len(models[kind].bucket_lambdas),
                 "" if models[kind].heldout_used else " (no held-out data)")
    return model_set


def action_scores(model_set, state):
    """The pending decision kind and each legal value's score: the natural
    log of its probability.

    Probabilities come straight from the decision-tree model; values made
    illegal by the derivation rules are dropped without renormalising, so
    a partial derivation's probability never understates its completions.
    The model's tree walk reads the history through a
    `derivation.HistoryView`, which computes only the slots it asks.
    """
    decision = derivation.pending_decision(state)  # both may raise DeadEnd
    kind, candidates = derivation.legal_actions(state, decision)
    model = model_set.models[kind]
    leaf = dtm.walk(model.tree,
                    derivation.HistoryView(state, decision=decision))
    index = model.schema.future_index
    logs = model.log_row(leaf)
    return kind, [(value, logs[index[value]]) for value in candidates]


def score_action(model_set, state, action):
    """log P(action | state), as `action_scores` scores it; the action
    must be legal here."""
    kind, value = action
    legal_kind, scored = action_scores(model_set, state)
    if kind != legal_kind:
        raise IllegalAction(f"pending decision is {legal_kind}, not {kind}")
    for candidate, score in scored:
        if candidate == value:
            return score
    raise IllegalAction(f"{value!r} is not legal here")


def derivation_logprob(model_set, tree):
    """Natural-log probability the models assign to `tree`'s derivation,
    each action of its `derivation.replay` scored by `score_action`."""
    total = 0.0
    for state, kind, value in derivation.replay(tree, model_set.context()):
        total += score_action(model_set, state, (kind, value))
    return total
