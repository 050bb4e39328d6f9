"""Command-line interface.

Commands::

    dtparser classes  TREEBANK -o CLASSES      build vocabulary class trees
    dtparser train    TREEBANK -o MODEL        train tag/label/extension models
    dtparser parse    MODEL [INPUT]            parse one sentence per line
    dtparser eval     GOLD TEST                bracket-scoring report (CSV)
    dtparser report   GOLD TEST                eval plus a per-length profile

Shared flags: ``--format`` (treebank format), ``--seed``, ``--config``
(key=value file; command-line flags win).  Exit codes: 0 success, 1 usage,
2 data error (bad input files, input that is not UTF-8, malformed trees,
model mismatches, a setting outside its domain or unlike the ``--classes``
it fixes), 3 internal error, for ``parse`` any ERROR line printed.
"""

import argparse
import dataclasses
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack

from . import corpus, dtm, models, parseval, search
from .config import Config, load_config
from .corpus import read_treebank, split_corpus
from .errors import AlignmentMismatch, DTParserError, EmptyCorpus, decode_utf8
from .headfinder import default_head_rules, load_head_rules
from .modelfile import (load_classes, load_model_set, save_classes,
                        save_model_set)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser():
    parser = _ArgumentParser(prog="dtparser",
                             description="decision-tree treebank parser")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(p):
        p.add_argument("--format", default=None, help="treebank format, "
                       f"{' or '.join(corpus.FORMATS)} (default underscore)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for the corpus split")
        p.add_argument("--config", metavar="PATH", default=None,
                       help="key=value settings file")

    p = sub.add_parser("classes", help="build class trees from a treebank")
    common(p)
    p.add_argument("treebank")
    p.add_argument("-o", "--out", required=True, help="classes file to write")
    p.add_argument("--export-text", metavar="DIR", default=None,
                   help="also write symbol/bitstring text tables here")
    p.add_argument("--unk-threshold", type=int, default=None)

    p = sub.add_parser("train", help="train models from a treebank")
    common(p)
    p.add_argument("treebank")
    p.add_argument("-o", "--out", required=True, help="model file to write")
    p.add_argument("--classes", metavar="PATH", default=None,
                   help="classes file from a `classes` run (rebuilt if absent)")
    p.add_argument("--head-rules", metavar="PATH", default=None,
                   help="head rule table (default: rightmost child heads)")
    p.add_argument("--grow-fraction", type=float, default=None,
                   help="fraction of trees used for growing (rest smooths)")
    p.add_argument("--unk-threshold", type=int, default=None)
    p.add_argument("--u-max", type=int, default=None,
                   help="unary chain cap (default: longest observed)")

    p = sub.add_parser("parse", help="parse sentences, one per line")
    common(p)
    p.add_argument("model")
    p.add_argument("input", nargs="?", default=None,
                   help="sentence file (default stdin)")
    p.add_argument("-o", "--out", default=None, help="output file (default stdout)")
    p.add_argument("--max-length", type=int, default=None,
                   help="skip sentences longer than this (default 40)")
    p.add_argument("--max-hypotheses", type=int, default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="parse sentences in parallel (output keeps input order)")

    for name, extra in (("eval", "bracket-score a test treebank against gold"),
                        ("report", "eval plus a per-sentence-length profile")):
        p = sub.add_parser(name, help=extra)
        common(p)
        p.add_argument("gold")
        p.add_argument("test")
        p.add_argument("-o", "--out", default=None,
                       help="aggregate CSV file (default stdout)")
        p.add_argument("--sentences", metavar="PATH", default=None,
                       help="also write a per-sentence TSV here")
        p.add_argument("--ranges", default=None,
                       help="length ranges, e.g. 4:40,4:25,10:20")
        p.add_argument("--no-root", dest="include_root", action="store_const",
                       const=False,
                       help="exclude the root constituent from scoring")
        p.add_argument("--unique", dest="multiset", action="store_const",
                       const=False, help="count duplicated constituents once")
    return parser


def _load_settings(args):
    """Defaults, overlaid by --config, overlaid by explicit flags: each
    flag whose destination is named after a setting."""
    config = load_config(args.config) if args.config else Config()
    return config.replace(**{f.name: getattr(args, f.name)
                             for f in dataclasses.fields(Config)
                             if getattr(args, f.name, None) is not None})


# --- classes ---

def cmd_classes(args, config, out):
    trees = read_treebank(args.treebank, config.format)
    if not trees:
        raise EmptyCorpus(f"{args.treebank}: no trees")
    vocab, class_trees = models.build_classes(trees, config)
    save_classes(vocab, class_trees, args.out)
    if args.export_text:
        os.makedirs(args.export_text, exist_ok=True)
        for kind, tree in class_trees.items():
            with open(os.path.join(args.export_text, f"{kind}.classes"),
                      "w", encoding="utf-8") as fh:
                fh.write(tree.export_text())
    distinct = {word for tree in trees for word in corpus.sentence_words(tree)}
    print(f"trees: {len(trees)}", file=out)
    print(f"vocabulary: {len(vocab.words) - 1} of {len(distinct)} "
          f"distinct words kept (plus the unknown-word symbol), "
          f"{len(vocab.tags)} tags, {len(vocab.labels)} labels", file=out)
    for kind in ("word", "tag", "label", "extension"):
        tree = class_trees[kind]
        note = " (truncated)" if tree.truncated else ""
        print(f"{kind} classes: {len(tree.codes)} symbols, depth {tree.depth} "
              f"of {tree.budget} bits{note}", file=out)
    return EXIT_OK


# --- train ---

def cmd_train(args, config, out):
    trees = read_treebank(args.treebank, config.format)
    if not trees:
        raise EmptyCorpus(f"{args.treebank}: no trees")
    classes = load_classes(args.classes) if args.classes else None
    heads = (load_head_rules(args.head_rules) if args.head_rules
             else default_head_rules())

    grow_trees, smooth_trees = split_corpus(trees, config.grow_fraction,
                                            config.seed)
    model_set = models.train(grow_trees, smooth_trees, config, heads=heads,
                             classes=classes)
    save_model_set(model_set, config, args.out)

    n_leaves = sum(len(corpus.leaves(t)) for t in trees)
    n_internal = sum(len(corpus.internal_nodes(t)) for t in trees)
    print(f"trees: {len(trees)} ({len(grow_trees)} grow, "
          f"{len(smooth_trees)} heldout)", file=out)
    print(f"tag events: {n_leaves}", file=out)
    print(f"label events: {n_internal}", file=out)
    print(f"extension events: {n_leaves + n_internal}", file=out)
    for kind in ("tag", "label", "extension"):
        model = model_set.models[kind]
        if not model.heldout_used:
            note = " (fixed lambdas: no heldout events)"
        else:
            stop = ("met em_tolerance"
                    if dtm.em_converged(model.em_log, config.em_tolerance)
                    else f"stopped at em_max_iterations="
                         f"{config.em_max_iterations}")
            note = f", {len(model.em_log)} EM iterations ({stop})"
        print(f"{kind} model: {len(model.nodes)} nodes, "
              f"{len(model.bucket_lambdas)} lambda buckets{note}", file=out)
    print(f"unary chain cap: {model_set.u_max}", file=out)
    return EXIT_OK


# --- parse ---

SKIP_MARKER = "SKIP"
NOPARSE_MARKER = "NOPARSE"
ERROR_MARKER = "ERROR"

_worker_state = {}


def _worker_init(model_path, config):
    _worker_state["model"] = load_model_set(model_path)
    _worker_state["config"] = config


def _worker_parse(words):
    return _parse_line(_worker_state["model"], words, _worker_state["config"])


def _parse_line(model_set, words, config):
    """One output line for one sentence.  It never raises: a sentence
    whose parse fails unexpectedly comes back as an ERROR line, and its
    traceback goes to the log, so the rest of the batch still parses."""
    if not words:
        return f"{SKIP_MARKER}\t\tempty line"
    if len(words) > config.max_length:
        return (f"{SKIP_MARKER}\t\t{len(words)} words exceed the "
                f"{config.max_length}-word limit")
    try:
        result = search.parse(model_set, words, config)
        if result.tree is None:
            return f"{NOPARSE_MARKER}\t\t{result.status}"
        text = corpus.format_tree(result.tree, config.format)
    except Exception as exc:  # one sentence must not sink the batch
        log.exception("parsing %r failed", " ".join(words))
        reason = " ".join(f"{type(exc).__name__}: {exc}".split())
        return f"{ERROR_MARKER}\t\t{reason}"
    return f"{text}\t{result.logprob:.6f}\t{result.status}"


def _sentences(fh, undecodable):
    """The words of each line of `fh.read().splitlines()`, read lazily.  A
    binary `fh` is decoded as UTF-8 a line at a time; a line that is not
    UTF-8 ends the input, and its error is appended to `undecodable`, so
    the lines before it are parsed before it is raised."""
    name = getattr(fh, "name", "<stdin>")
    for lineno, chunk in enumerate(fh, start=1):
        if isinstance(chunk, bytes):
            try:
                chunk = decode_utf8(chunk, name, lineno)
            except DTParserError as exc:
                undecodable.append(exc)
                return
        yield from (line.split() for line in chunk.splitlines())


def cmd_parse(args, config, out):
    undecodable = []
    with ExitStack() as stack:
        fh = (stack.enter_context(open(args.input, "rb"))
              if args.input and args.input != "-"
              else getattr(sys.stdin, "buffer", sys.stdin))
        jobs = _sentences(fh, undecodable)
        # Loaded here even for the workers, so a bad file exits 2 at once.
        model_set = load_model_set(args.model)
        if config.workers > 1:  # the pool reads every line ahead
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=config.workers, initializer=_worker_init,
                initargs=(args.model, config)))
            results = pool.map(_worker_parse, jobs, chunksize=8)
        else:
            results = (_parse_line(model_set, words, config) for words in jobs)
        failed = False
        for line in results:  # in input order, each as soon as it is done
            print(line, file=out, flush=True)
            failed |= line.startswith(f"{ERROR_MARKER}\t")
    if undecodable:
        raise undecodable[0]
    return EXIT_INTERNAL if failed else EXIT_OK


# --- eval / report ---

def _parse_ranges(text):
    ranges = []
    for part in text.split(","):
        lo, sep, hi = part.strip().partition(":")
        try:
            if not sep:
                raise ValueError(part)
            ranges.append((int(lo), int(hi)))
        except ValueError:
            raise DTParserError(
                f"bad length range {part.strip()!r}; expected LO:HI") from None
    return tuple(ranges)


def _score_treebanks(args, config):
    gold = read_treebank(args.gold, config.format)
    test = read_treebank(args.test, config.format)
    if len(gold) != len(test):
        raise AlignmentMismatch(
            min(len(gold), len(test)),
            f"gold has {len(gold)} trees, test has {len(test)}")
    scores = []
    for i, (g, t) in enumerate(zip(gold, test)):
        try:
            scores.append(parseval.score_pair(
                g, t, include_root=config.include_root,
                multiset=config.multiset))
        except DTParserError as exc:
            raise AlignmentMismatch(i, str(exc)) from exc
    return scores


def _write_sentence_tsv(scores, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sentence\tlength\tgold\ttest\tcorrect\tcorrect_labelled"
                 "\tcrossings\ttags_correct\n")
        for i, s in enumerate(scores):
            fh.write(f"{i}\t{s.length}\t{s.gold_constituents}"
                     f"\t{s.test_constituents}\t{s.correct_unlabelled}"
                     f"\t{s.correct_labelled}\t{s.crossings}"
                     f"\t{s.tags_correct}\n")


def cmd_eval(args, config, out, with_lengths=False):
    scores = _score_treebanks(args, config)
    ranges = (_parse_ranges(args.ranges) if args.ranges
              else parseval.DEFAULT_RANGES)
    if args.sentences:
        _write_sentence_tsv(scores, args.sentences)
    report = parseval.aggregate(scores, ranges)
    out.write(parseval.render_csv(report))
    if with_lengths:
        out.write("\nLength,Crossings Per Sentence,Precision,Recall,Frequency\n")
        for length, freq, crossings, precision, recall in \
                parseval.per_length_rows(scores):
            out.write(f"{length},{crossings:.2f},{precision:.1f}%,"
                      f"{recall:.1f}%,{freq}\n")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")

    commands = {
        "classes": cmd_classes,
        "train": cmd_train,
        "parse": cmd_parse,
        "eval": cmd_eval,
        "report": lambda *a: cmd_eval(*a, with_lengths=True),
    }
    try:
        config = _load_settings(args)  # before any file is written
        out_path = getattr(args, "out", None)
        if args.command in ("parse", "eval", "report") and out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                return commands[args.command](args, config, fh)
        return commands[args.command](args, config, sys.stdout)
    except (DTParserError, OSError) as exc:
        print(f"dtparser {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:  # pragma: no cover - defensive
        import traceback
        traceback.print_exc()
        print(f"dtparser {args.command}: internal error", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
