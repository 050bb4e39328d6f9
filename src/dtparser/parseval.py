"""Bracket scoring: precision, recall, crossings, tagging accuracy.

A constituent is a (span, label) pair taken over the internal nodes of a
tree; word-level tag nodes never count.  Spans are inclusive word-index
pairs.  Unary chains contribute one constituent per level, and matching
is multiset matching (a bracket in the test parse can only match as many
identical gold brackets as the gold parse has).  Precision is matched
test constituents over all test constituents, recall the same over gold
constituents, and a test constituent *crosses* when it overlaps some
gold constituent's span without either containing the other.

Aggregation is micro-averaged: sums of correct/proposed/gold counts over
sentences, reported for configurable sentence-length ranges.
"""

import logging
from collections import Counter
from dataclasses import dataclass

from .corpus import RawLeaf, leaves, postorder
from .errors import WordMismatch

log = logging.getLogger(__name__)

DEFAULT_RANGES = ((4, 40), (4, 25), (10, 20))

ROW_LABELS = (
    "Comparisons",
    "Avg. Sent. Length",
    "Treebank Constituents",
    "Parse Constituents",
    "Tagging Accuracy",
    "Crossings Per Sentence",
    "Sent. with 0 Crossings",
    "Sent. with 1 Crossing",
    "Sent. with 2 Crossings",
    "Precision",
    "Recall",
    "Labelled Precision",
    "Labelled Recall",
)


@dataclass(frozen=True)
class SentenceScore:
    length: int
    gold_constituents: int
    test_constituents: int
    correct_unlabelled: int
    correct_labelled: int
    crossings: int
    tags_correct: int


def constituents(tree, include_root=True, multiset=True):
    """(start, end, label) triples over internal nodes, root optional.

    With `multiset=False`, duplicated (span, label) triples -- unary
    chains repeating a label -- collapse to one.
    """
    spans = [(start, end, node.label)
             for node, start, end in postorder(tree)
             if not isinstance(node, RawLeaf)]
    if not include_root:
        spans.pop()  # the root comes last in postorder
    if not multiset:
        spans = list(dict.fromkeys(spans))
    return spans


def _crosses(span, gold_spans):
    s, e = span
    for gs, ge in gold_spans:
        if s < gs <= e < ge or gs < s <= ge < e:
            return True
    return False


def score_pair(gold, test, include_root=True, multiset=True):
    """Score one test tree against its gold tree."""
    gold_leaves, test_leaves = leaves(gold), leaves(test)
    gold_words = [l.word for l in gold_leaves]
    test_words = [l.word for l in test_leaves]
    if gold_words != test_words:
        raise WordMismatch(f"gold words {gold_words!r} != test words {test_words!r}")

    gold_cons = constituents(gold, include_root, multiset)
    test_cons = constituents(test, include_root, multiset)
    gold_spans = Counter((s, e) for s, e, _ in gold_cons)
    test_spans = Counter((s, e) for s, e, _ in test_cons)
    gold_labelled = Counter(gold_cons)
    test_labelled = Counter(test_cons)

    correct_unlabelled = sum((test_spans & gold_spans).values())
    correct_labelled = sum((test_labelled & gold_labelled).values())
    unique_gold_spans = set(gold_spans)
    crossings = sum(1 for s, e, _ in test_cons if _crosses((s, e), unique_gold_spans))

    tags_correct = sum(1 for g, t in zip(gold_leaves, test_leaves)
                       if g.tag == t.tag)
    return SentenceScore(length=len(gold_words),
                         gold_constituents=len(gold_cons),
                         test_constituents=len(test_cons),
                         correct_unlabelled=correct_unlabelled,
                         correct_labelled=correct_labelled,
                         crossings=crossings,
                         tags_correct=tags_correct)


def tagging_accuracy(scores):
    total = sum(s.length for s in scores)
    return 100.0 * sum(s.tags_correct for s in scores) / total if total else 0.0


@dataclass
class Report:
    """Aggregate rows (see ROW_LABELS) per sentence-length range."""

    ranges: tuple           # (lo, hi) pairs actually reported
    columns: dict           # (lo, hi) -> {row label: float}

    def cell(self, row, range_):
        return self.columns[range_][row]


def _aggregate_range(scores):
    n = len(scores)
    gold = sum(s.gold_constituents for s in scores)
    test = sum(s.test_constituents for s in scores)
    pct = lambda num, den: 100.0 * num / den if den else 0.0
    return {
        "Comparisons": float(n),
        "Avg. Sent. Length": sum(s.length for s in scores) / n,
        "Treebank Constituents": gold / n,
        "Parse Constituents": test / n,
        "Tagging Accuracy": tagging_accuracy(scores),
        "Crossings Per Sentence": sum(s.crossings for s in scores) / n,
        "Sent. with 0 Crossings": pct(sum(s.crossings == 0 for s in scores), n),
        "Sent. with 1 Crossing": pct(sum(s.crossings <= 1 for s in scores), n),
        "Sent. with 2 Crossings": pct(sum(s.crossings <= 2 for s in scores), n),
        "Precision": pct(sum(s.correct_unlabelled for s in scores), test),
        "Recall": pct(sum(s.correct_unlabelled for s in scores), gold),
        "Labelled Precision": pct(sum(s.correct_labelled for s in scores), test),
        "Labelled Recall": pct(sum(s.correct_labelled for s in scores), gold),
    }


def aggregate(scores, ranges=DEFAULT_RANGES):
    """Micro-averaged report over length ranges; empty ranges are dropped
    with a warning."""
    kept = []
    columns = {}
    for lo, hi in ranges:
        subset = [s for s in scores if lo <= s.length <= hi]
        if not subset:
            log.warning("no sentences of length %d-%d; range omitted", lo, hi)
            continue
        kept.append((lo, hi))
        columns[lo, hi] = _aggregate_range(subset)
    return Report(ranges=tuple(kept), columns=columns)


def render_csv(report):
    """The aggregate table as CSV, one column per length range."""
    header = ["Measure"] + [f"{lo}-{hi}" for lo, hi in report.ranges]
    lines = [",".join(header)]
    for row in ROW_LABELS:
        cells = [row]
        for range_ in report.ranges:
            value = report.cell(row, range_)
            if row == "Comparisons":
                cells.append(str(int(value)))
            elif "Crossings Per" in row or "Constituents" in row or "Length" in row:
                cells.append(f"{value:.2f}")
            else:
                cells.append(f"{value:.1f}%")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def per_length_rows(scores):
    """(length, frequency, mean crossings, precision, recall) per observed
    sentence length, for length-profile reports."""
    by_length = {}
    for s in scores:
        by_length.setdefault(s.length, []).append(s)
    rows = []
    for length, subset in sorted(by_length.items()):
        row = _aggregate_range(subset)
        rows.append((length, len(subset), row["Crossings Per Sentence"],
                     row["Precision"], row["Recall"]))
    return rows
