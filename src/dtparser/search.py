"""Search for the highest-probability derivation of a sentence.

`parse` is one best-first (A*) loop.  A hypothesis is a partial
derivation with log probability `logprob`; the heap pops the one with the
largest `logprob + h`, where `h` bounds from above the log probability
its remaining decisions can add.  Only two kinds of decision are bounded
below 1: every untagged word still owes a tag decision and then the
extension decision of its own word node, and `ModelSet.word_bound` gives,
per word, the largest leaf probability either model can reach from the
history slots that the word alone fixes.  `h` sums those bounds over the
words still owing them; labels and constituent extensions count as 1.

The search certifies the optimum because `h` never underestimates what a
completion can score (every leaf the real history reaches is one of the
leaves the bound ranges over, and every probability is at most 1) and
because it drops by exactly the bound of each decision it settles, so
`logprob + h` never rises along a derivation.  Hence once the top of the
heap falls below the best complete parse found so far, by more than
float rounding, no hypothesis left can complete to one as good, and the
loop stops.  A popped hypothesis whose `logprob` alone is below that
parse's is dropped unexpanded.

Equal-probability complete parses are tie-broken toward the
lexicographically smallest decision sequence; pruning keeps
equal-scoring partials alive so the tie-break is exact.

If the number of live hypotheses ever exceeds `max_hypotheses` the
search stops certifying and instead greedily rolls the best live
hypothesis out to a completion, reporting `search-error-memory` (with a
parse whenever one can still be finished).  The rollout's greedy step
breaks equal log probabilities toward the lexicographically largest
action value, unlike the exact search and `exhaustive_parse`, which break
them toward the smallest.

`exhaustive_parse` is an independent check on all of this: a plain
depth-first enumeration of every legal decision sequence with only the
safe never-discards-an-optimum bound applied.

Scores are natural-log probabilities throughout: `models.action_scores`
gives each legal decision its log probability, read from the reached
leaf's row of logs, and a successor's `logprob` is its parent's plus
that score.

Expanding a hypothesis scores every legal successor but keeps each one
only as an entry, a plain (log probability, `h`, parent, kind, value)
tuple.  An entry becomes a hypothesis record, whose derivation state is
built when it is made, only where search keeps it: when `parse` pops it
and it survives both incumbent checks, when the memory fallback rolls it
out, and when `exhaustive_parse` descends into it.  So most successors,
which are never popped, cost one tuple and no state.  Search order and
results do not depend on when states are built.
"""

import heapq
import itertools
import logging
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from . import derivation
from .errors import (DeadEnd, EmptyInput, EnumerationBudgetExceeded,
                     SentenceTooLong)
from .models import action_scores

log = logging.getLogger(__name__)

STATUS_OPTIMAL = "optimal"
STATUS_MEMORY = "search-error-memory"
STATUS_NO_PARSE = "no-parse"


@dataclass(frozen=True)
class SearchResult:
    tree: object       # RawTree, or None when no parse was completed
    logprob: float     # natural log; -inf when tree is None
    status: str
    expanded: int      # hypotheses expanded, memory fallback included


class _Hypothesis(NamedTuple):
    """One kept partial derivation: its state, then the fields of the
    successor entry it was made from."""

    state: object
    logprob: float
    h: float
    parent: object
    kind: object
    value: object

    def decisions(self):
        values = []
        node = self
        while node.parent is not None:
            values.append(node.value)
            node = node.parent
        return tuple(reversed(values))


class _Best:
    """The incumbent complete parse, with the lexicographic tie-break."""

    def __init__(self):
        self.hyp = None
        self.logprob = -math.inf
        self._decisions = None

    def offer(self, hyp):
        if hyp.logprob < self.logprob:
            return
        decisions = hyp.decisions()
        if self.hyp is None or hyp.logprob > self.logprob \
                or decisions < self._decisions:
            self.hyp, self.logprob, self._decisions = \
                hyp, hyp.logprob, decisions


def _expand(model_set, hyp, bound=None):
    """The successor entries of `hyp`, one (logprob, h, hyp, kind, value)
    per legal action, each `h` under `bound` (0 without one); empty at a
    dead end."""
    try:
        kind, scored = action_scores(model_set, hyp.state)
    except DeadEnd:
        return []
    h = 0.0 if bound is None else bound.after(hyp, kind)
    return [(hyp.logprob + score, h, hyp, kind, value)
            for value, score in scored]


def _record(entry):
    """The hypothesis a successor entry stands for, its state built."""
    _, _, parent, kind, value = entry
    return _Hypothesis(derivation.apply_action(parent.state, (kind, value),
                                               validate=False), *entry)


def _result(best, status, expanded):
    tree = (None if best.hyp is None
            else derivation.to_raw_tree(best.hyp.state.stack[0]))
    return SearchResult(tree=tree, logprob=best.logprob, status=status,
                        expanded=expanded)


class _OutsideBound:
    """`h` for the hypotheses of one sentence, from its words' bounds."""

    def __init__(self, model_set, words):
        bounds = [model_set.word_bound(word) for word in words]
        # untagged[i]: words i.. untagged, nothing else owed;
        # tagged[i]: word i just tagged, its extension still owed.
        self.untagged = [0.0] * (len(words) + 1)
        for i in range(len(words) - 1, -1, -1):
            self.untagged[i] = (self.untagged[i + 1]
                                + bounds[i][0] + bounds[i][1])
        self.tagged = [self.untagged[i + 1] + bounds[i][1]
                       for i in range(len(words))]

    def after(self, hyp, kind):
        """`h` of every successor of `hyp`, whose pending decision is of
        `kind`."""
        if kind == derivation.KIND_TAG:
            return self.tagged[len(hyp.state.tagged)]
        if hyp.kind == derivation.KIND_TAG:  # the tagged word's extension
            return self.untagged[len(hyp.state.tagged)]
        return hyp.h


def parse(model_set, words, config):
    """The optimal parse of `words`, unless memory runs out first."""
    if not words:
        raise EmptyInput("cannot parse an empty sentence")
    if len(words) > config.max_length:
        raise SentenceTooLong(f"sentence of {len(words)} words exceeds the "
                              f"{config.max_length}-word limit")
    bound = _OutsideBound(model_set, words)
    hyp = _Hypothesis(derivation.initial_state(words, model_set.context()),
                      0.0, bound.untagged[0], None, None, None)
    best = _Best()
    expanded = 0
    ticket = itertools.count()  # FIFO among equal priorities
    heap = []  # (-(logprob + h), ticket, entry)
    while hyp is not None:
        if hyp.state.complete:
            best.offer(hyp)
        else:
            expanded += 1
            for entry in _expand(model_set, hyp, bound):
                if entry[0] >= best.logprob:
                    heapq.heappush(heap, (-(entry[0] + entry[1]),
                                          next(ticket), entry))
            if len(heap) > config.max_hypotheses:
                return _memory_fallback(model_set, heap, best, expanded)
        hyp = None
        while heap:
            priority, _, entry = heapq.heappop(heap)
            # Every entry left scores at most -priority, so once that
            # falls below the incumbent (by more than rounding) none can
            # complete to a parse as good.
            if -priority < best.logprob - 1e-9 * max(1.0, -best.logprob):
                break
            if entry[0] >= best.logprob:
                hyp = _record(entry)
                break

    return _result(best, STATUS_NO_PARSE if best.hyp is None
                   else STATUS_OPTIMAL, expanded)


_MAX_ROLLOUTS = 64


def _memory_fallback(model_set, heap, best, expanded):
    """Out of memory budget: greedily finish the most promising live entry
    of `heap` so the caller still gets a parse, flagged as a search error.
    Entries roll out by falling log probability, equal ones in list order."""
    pool = (item[2] for item in heap)
    for entry in heapq.nlargest(_MAX_ROLLOUTS, pool, key=itemgetter(0)):
        hyp = _record(entry)
        while hyp is not None and not hyp.state.complete:
            expanded += 1
            succs = _expand(model_set, hyp)
            hyp = _record(max(succs, key=itemgetter(0, 4))) if succs else None
        if hyp is not None:
            best.offer(hyp)
            break
    if best.hyp is None:
        log.warning("memory fallback found no complete parse")
    return _result(best, STATUS_MEMORY, expanded)


def exhaustive_parse(model_set, words, budget=5_000_000):
    """Depth-first enumeration of every legal derivation; the maximum.

    Only provably safe pruning is applied (partials strictly below the
    best complete log probability).  Raises EnumerationBudgetExceeded
    after `budget` expansions rather than running away.
    """
    if not words:
        raise EmptyInput("cannot parse an empty sentence")
    start = _Hypothesis(derivation.initial_state(words, model_set.context()),
                        0.0, 0.0, None, None, None)
    best = _Best()
    expanded = 0

    def descend(hyp):
        nonlocal expanded
        if hyp.state.complete:
            best.offer(hyp)
            return
        if expanded >= budget:
            raise EnumerationBudgetExceeded(
                f"exhaustive enumeration passed {budget} expansions")
        expanded += 1
        for entry in sorted(_expand(model_set, hyp),
                            key=lambda e: (-e[0], e[4])):
            if entry[0] >= best.logprob:
                descend(_record(entry))

    descend(start)
    return _result(best, STATUS_NO_PARSE if best.hyp is None
                   else STATUS_OPTIMAL, expanded)
