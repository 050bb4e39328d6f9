"""The three workloads, their rounds of operations, and their metrics.

See README.md for what each workload runs and why.
"""

import hashlib
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

import checks
import grammars
from tracing import Tracer
from dtparser import corpus, modelfile, models, search
from dtparser.config import Config

clock = time.perf_counter

SETUP_REPEATS = 3          # at least; and until SETUP_MIN_S have passed
SETUP_MIN_S = 5.0
LOAD_REPEATS = 5           # at least; and until LOAD_MIN_S have passed,
LOAD_MIN_S = 0.05          # since a load takes milliseconds
EXHAUSTIVE_CHECKS = 20     # per run, sentences of few words only
HELDOUT_HISTORIES = 500    # per model kind, for the reload check

# The shapes (structure and tags) of the sentences to parse come from fixed
# seeds and the workload seed draws their words, so runs on different seeds
# do the same amount of work.  Every workload trains from a fixed treebank,
# so every seed measures the same training and the same model.
SHAPES_SEED = "shapes"
TRAIN_MODEL_SEED = 1
AMBIGUOUS_MODEL_SEED = 1
TOY_MODEL_SEED = 7


@dataclass
class Spec:
    """What one workload runs; see README.md for why each value."""

    name: str
    config: object
    model_trees: object          # () -> training trees
    sentences: object            # seed -> gold trees to parse
    exhaustive_max_words: int
    passes: int                  # passes over the sentences per round
    training: bool = False       # train workload: its set-up does not train,
                                 # and its per-layer figures cover training


@dataclass
class Run:
    """Everything measured in one run, before it is turned into metrics."""

    latencies: list = field(default_factory=list)   # seconds per sentence
    train_s: list = field(default_factory=list)
    load_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    f1: float = 0.0


def specs():

    ambiguous = grammars.AmbiguousGrammar()

    def ambiguous_trees(n, name, seed, lengths=None):
        """`n` trees of fixed shapes with words drawn from `seed`."""
        shapes = random.Random(f"{SHAPES_SEED}:{name}")
        if lengths is None:
            trees = ambiguous.corpus(n, shapes)
        else:
            trees = ambiguous.sentences(n, shapes, lengths)
        words = random.Random(f"{name}:{seed}")
        return [ambiguous.refill(tree, words) for tree in trees]

    def toy_trees(n, name, seed):
        shapes = grammars.toy_corpus(n, f"{SHAPES_SEED}:{name}")
        words = random.Random(f"{name}:{seed}")
        return [grammars.toy_refill(tree, words) for tree in shapes]

    return {
        "train": Spec(
            name="train",
            config=Config(cluster_window=64),
            model_trees=lambda: ambiguous_trees(500, "train",
                                                TRAIN_MODEL_SEED),
            sentences=lambda seed: ambiguous_trees(
                200, "train-eval", seed, lengths=(4, 5, 6, 7, 8, 9, 10)),
            exhaustive_max_words=7,
            training=True,
            passes=3),
        "parse-ambiguous": Spec(
            name="parse-ambiguous",
            config=Config(min_events=64, max_depth=4, cluster_window=64),
            model_trees=lambda: ambiguous.corpus(
                400, random.Random(AMBIGUOUS_MODEL_SEED), noise=0.25),
            sentences=lambda seed: ambiguous_trees(
                200, "ambiguous", seed, lengths=(6, 7, 8)),
            exhaustive_max_words=7,
            passes=2),
        "parse-toy": Spec(
            name="parse-toy",
            config=Config(unk_threshold=1, min_events=2, cluster_window=64),
            model_trees=lambda: grammars.toy_corpus(500, TOY_MODEL_SEED),
            sentences=lambda seed: toy_trees(1000, "toy", seed),
            exhaustive_max_words=8,
            passes=2),
    }


# --- the operations ---

def train_from_file(treebank_path, model_path, config):
    """The `dtparser train` path: read, split, train, save."""
    trees = corpus.read_treebank(treebank_path, config.format)
    grow, heldout = corpus.split_corpus(trees, config.grow_fraction,
                                        config.seed)
    model_set = models.train(grow, heldout, config)
    modelfile.save_model_set(model_set, config, model_path)
    return model_set, grow, heldout


def parse_all(model_set, config, word_lists, latencies):
    """Parse one sentence at a time, as `dtparser parse` does, appending
    each sentence's latency; returns comparable (text, logprob, status,
    expanded) tuples and the SearchResults."""
    outputs, results = [], []
    for words in word_lists:
        start = clock()
        result = search.parse(model_set, words, config)
        text = (corpus.format_tree(result.tree, config.format)
                if result.tree is not None else None)
        latencies.append(clock() - start)
        outputs.append((text, result.logprob, result.status, result.expanded))
        results.append(result)
    return outputs, results


class Workload:
    """One run of one workload: its inputs, its rounds and their checks."""

    def __init__(self, spec, seed, workdir):
        self.spec = spec
        self.seed = seed
        self.treebank = os.path.join(workdir, "train.txt")
        self.model_path = os.path.join(workdir, "model.json")
        self.run = Run()
        self.first = None          # outputs of the first pass
        self.first_results = None  # and its SearchResults
        self.differ = []           # per later pass: sentences unlike the first
        self.digest = None         # the first model file's SHA-256
        self.train_failed = 0      # failed checks of the first training run
        self.train_differ = 0      # later model files unlike the first
        self.tracer = None         # set during the traced half of a run

    def setup(self):
        """Generate inputs; for the parse workloads also train, save and
        load the model.  Repeated, each repeat timed, so that a set-up of
        milliseconds still yields a steady median."""
        spec = self.spec
        began = clock()
        while (len(self.run.setup_s) < SETUP_REPEATS
               or clock() - began < SETUP_MIN_S):
            start = clock()
            corpus.write_treebank(spec.model_trees(), self.treebank)
            self.golds = spec.sentences(self.seed)
            self.word_lists = [grammars.words_of(t) for t in self.golds]
            if not spec.training:
                t0 = clock()
                train_from_file(self.treebank, self.model_path, spec.config)
                self.run.train_s.append(clock() - t0)
                self.model_set = self.load()
            self.run.setup_s.append(clock() - start)
        rng = random.Random(f"exhaustive:{spec.name}:{self.seed}")
        short = [i for i, words in enumerate(self.word_lists)
                 if len(words) <= spec.exhaustive_max_words]
        self.exhaustive_ids = sorted(rng.sample(
            short, min(EXHAUSTIVE_CHECKS, len(short))))

    def load(self):
        """Load the model file at least LOAD_REPEATS times and for at least
        LOAD_MIN_S, timing each load."""
        began = clock()
        loads = 0
        while loads < LOAD_REPEATS or clock() - began < LOAD_MIN_S:
            start = clock()
            model_set = modelfile.load_model_set(self.model_path)
            self.run.load_s.append(clock() - start)
            loads += 1
        return model_set

    def _model_digest(self):
        with open(self.model_path, "rb") as fh:
            return hashlib.sha256(fh.read()).digest()

    def round(self):
        """One round of operations: train, save and load the model, then
        parse the sentences.  Returns the seconds of the part that the
        per-layer figures cover: training and loading on `train`, the
        parses on the parse workloads, whose figures then show search
        alone.

        Training runs in every round on every workload, so that `train_s`,
        like every other timing, is sampled across the whole run.  Every
        model file must equal the first one, and every pass over the
        sentences after the first must give the first pass's outputs;
        `check` checks the first pass itself.
        """
        spec, run = self.spec, self.run
        self._trace(spec.training)
        t0 = clock()
        trained, grow, heldout = train_from_file(
            self.treebank, self.model_path, spec.config)
        run.train_s.append(clock() - t0)
        self.model_set = self.load()
        train_s = clock() - t0
        self._trace(False)
        run.attempted += 1
        digest = self._model_digest()
        if self.digest is None:
            self.digest = digest
            self.train_failed = checks.check_trained(
                trained, self.model_set, grow, heldout, HELDOUT_HISTORIES)
        elif digest != self.digest:
            self.train_differ += 1
        parse_s = 0.0
        for _ in range(spec.passes):
            before = len(run.latencies)
            self._trace(not spec.training)
            outputs, results = parse_all(self.model_set, spec.config,
                                         self.word_lists, run.latencies)
            self._trace(False)
            parse_s += sum(run.latencies[before:])
            run.attempted += len(outputs)
            if self.first is None:
                self.first, self.first_results = outputs, results
            else:
                self.differ.append({i for i, (a, b)
                                    in enumerate(zip(outputs, self.first))
                                    if a != b})
        run.rounds += 1
        return train_s if spec.training else parse_s

    def _trace(self, on):
        """Switch the wrappers on or off in the traced half of a run."""
        if self.tracer is not None:
            self.tracer.active = on

    def check(self):
        """Check the first pass's parses and count every failed operation
        of the run.  A check that fails in the first pass or on the first
        training run fails in each repeat of it.  Of the checks, only
        `parseval` is traced."""
        failed, scores = checks.check_parses(
            self.model_set, self.golds, self.first_results,
            self.exhaustive_ids)
        self._trace(True)
        mismatched, totals = checks.score_with_parseval(scores)
        self._trace(False)
        failed |= mismatched
        self.run.failed = len(failed) + sum(len(failed | differ)
                                            for differ in self.differ)
        self.run.failed += (self.run.rounds if self.train_failed
                            else self.train_differ)
        self.run.f1 = checks.f1(*totals)


def measure(workload, seconds):
    """Whole rounds until `seconds` have passed; returns (rounds, timed s)."""
    rounds, timed = 0, 0.0
    start = clock()
    while rounds == 0 or clock() - start < seconds:
        timed += workload.round()
        rounds += 1
    return rounds, timed


def plain_run(workload, seconds):
    """Measure with no wrapper installed; the end-to-end metrics."""
    measure(workload, seconds)
    workload.check()
    return end_to_end(workload.run, len(workload.word_lists))


def traced_run(workload, seconds):
    """Half the time untraced, half traced; the per-layer metrics."""
    run = workload.run
    plain_rounds, plain_s = measure(workload, seconds / 2)
    plain_ops = len(run.latencies)
    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    try:
        traced_rounds, traced_s = measure(workload, seconds / 2)
        traced_ops = len(run.latencies) - plain_ops
        if workload.spec.training:
            plain_ops, traced_ops = plain_rounds, traced_rounds
        workload.check()
    finally:
        tracer.uninstall()
        workload.tracer = None
    overhead = 100.0 * ((traced_s / traced_ops) / (plain_s / plain_ops) - 1.0)
    return per_layer(tracer, traced_ops, overhead)


# --- metrics ---

def _metric(value, unit):
    return {"value": value, "unit": unit}


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run, n_sentences):
    """Each timing is the fastest of its repeats in the run: a sentence is
    parsed in every pass, and training and loading repeat too.  Other
    tenants of a shared machine only ever slow a repeat down, so the
    fastest one is the steadiest estimate of the program's own cost.
    Set-up, which is not repeated for its own sake, reports its median."""
    best = [min(run.latencies[i::n_sentences]) for i in range(n_sentences)]
    return {
        "setup_s": _metric(statistics.median(run.setup_s), "s"),
        "train_s": _metric(min(run.train_s), "s"),
        "model_load_s": _metric(min(run.load_s), "s"),
        "sentences_per_s": _metric(n_sentences / sum(best), "sentences/s"),
        "latency_p50_ms": _metric(1000 * statistics.median(best), "ms"),
        "latency_p95_ms": _metric(1000 * _percentile(best, 95), "ms"),
        "labelled_f1": _metric(run.f1, "%"),
        "peak_rss_mb": _metric(resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


PER_LAYER_TIMES = (
    "corpus.read_treebank", "corpus.build_vocabularies", "corpus.format_tree",
    "classtree.build", "derivation.encode", "derivation.legal_actions",
    "derivation.extract_history", "derivation.apply_action",
    "derivation.to_raw_tree", "dtm.grow", "dtm.smooth",
    "dtm.encode_history", "dtm.walk", "models.action_scores",
    "modelfile.save", "modelfile.load", "search.parse")
PER_LAYER_CALLS = ("derivation.apply_action", "dtm.encode_history",
                   "dtm.walk", "models.action_scores")
PER_LAYER_COUNTS = ("classtree.symbols", "derivation.events", "dtm.nodes",
                    "dtm.em_iterations", "modelfile.bytes")


def per_layer(tracer, ops, overhead_pct):
    """Per-operation self times and counts from the traced rounds; an
    operation is one sentence parsed, or one round of `train`."""
    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in PER_LAYER_TIMES:
        out[f"{name}_s"] = _metric(tracer.self_s[name] / ops, "s")
    for name in PER_LAYER_CALLS:
        out[f"{name}_calls"] = _metric(tracer.calls[name] / ops, "count")
    for name in PER_LAYER_COUNTS:
        out[name] = _metric(tracer.counts[name] / ops, "count")
    expanded = tracer.counts["search.expanded"]
    out["search.expanded_per_sentence"] = _metric(
        ratio(expanded, tracer.calls["search.parse"]), "count")
    out["search.expanded_per_decision"] = _metric(
        ratio(expanded, tracer.counts["search.decisions"]), "count")
    out["search.expanded_per_s"] = _metric(
        ratio(expanded, tracer.total_s["search.parse"]), "1/s")
    out["parseval.score_pair_s"] = _metric(
        ratio(tracer.self_s["parseval.score_pair"],
              tracer.calls["parseval.score_pair"]), "s")
    out["trace.overhead_pct"] = _metric(overhead_pct, "%")
    return out


