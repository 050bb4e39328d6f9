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

Live hypotheses are the heap's entries plus each expansion's successors
not yet pushed that passed the incumbent test when it was expanded: all
that an eager search, pushing every successor at once, would hold.  If
their number ever exceeds `max_hypotheses` the search stops certifying
and instead greedily rolls the best live hypothesis out to a
completion, reporting `search-error-memory` with a parse: every legal
action leaves a derivation that can be finished.  Live hypotheses are
tried by falling log probability, equal ones in ticket order.  The
rollout's greedy step breaks equal log probabilities toward the
lexicographically largest action value, unlike the exact search and
`exhaustive_parse`, which break them toward the smallest.

`exhaustive_parse` is an independent check on all of this: a plain
depth-first enumeration of every legal decision sequence with only the
safe never-discards-an-optimum bound applied.

Scores are natural-log probabilities throughout: `models.action_scores`
gives each legal decision its log probability, read from the reached
leaf's distribution, and a successor's `logprob` is its parent's plus
that score.

Expanding a hypothesis pushes only its best successor.  `action_scores`
ranks the legal decisions by falling score, so the successors that pass
the incumbent test (`logprob` at least the best complete parse's) are a
prefix of that ranking, and each is pushed when the one ranked before it
is popped, whether that one is expanded or dropped.  Each expansion
takes a block of tickets as large as its candidate list, and the
successor at rank r takes the block's r-th, so (priority, ticket)
orders every successor as if all of them had been pushed at once, one
ticket each in candidate order: the heap pops the same hypotheses in the
same order, and a sibling it never reaches costs nothing.  The one place
the two orders could part is distinct scores whose priorities round to
the same float; such a run is put back in candidate order before its
first member is pushed.

A popped successor becomes a hypothesis record, whose derivation state
is built when it is made, only where search keeps it: when it survives
both incumbent checks, when the memory fallback rolls it out, and when
`exhaustive_parse` descends into it; `_Successors.record` builds it
straight from the parent's state, the decision's kind and the value.
Search order and results do not depend on when states are built.
"""

import heapq
import logging
import math
from bisect import bisect_left
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


def _expand(model_set, hyp):
    """The successor entries of `hyp`, one (logprob, 0, hyp, kind, value)
    per legal action, best first; empty at a dead end.  For the memory
    fallback's rollout and `exhaustive_parse`, which need no `h`."""
    try:
        kind, scored = action_scores(model_set, hyp.state)
    except DeadEnd:
        return []
    return [(hyp.logprob + score, 0.0, hyp, kind, value)
            for value, score in scored]


def _record(entry):
    """The hypothesis a successor entry stands for, its state built."""
    _, _, parent, kind, value = entry
    return _Hypothesis(derivation.apply_action(parent.state, (kind, value),
                                               validate=False), *entry)


class _Successors:
    """The successors of one expanded hypothesis that pass the incumbent
    test when it is expanded, in the order the heap is to pop them: the
    first `count` of `action_scores`' ranking, each run of equal priority
    in candidate order.  The one at rank r, once pushed, is the heap entry
    (priority, `base` + r, logprob, self, r)."""

    __slots__ = ("parent", "kind", "h", "ranked", "base", "count",
                 "settled")

    def __init__(self, parent, kind, h, ranked, base, incumbent):
        self.parent, self.kind, self.h = parent, kind, h
        self.ranked, self.base = ranked, base
        logprob = parent.logprob
        self.count = len(ranked)
        if ranked and not logprob + ranked[-1][1] >= incumbent:
            self.count = bisect_left(
                ranked, True,
                key=lambda pair: not logprob + pair[1] >= incumbent)
        self.settled = 0  # ranks below it are in their final order

    def priority(self, rank):
        return -((self.parent.logprob + self.ranked[rank][1]) + self.h)

    def settle(self, rank):
        """Put the run of ranks from `rank` whose priority equals its own
        in candidate order, the order its tickets would give it if every
        successor took one in turn.  Equal scores already are; distinct
        ones whose priorities round alike are put back."""
        priority = self.priority(rank)
        end = rank + 1
        while end < self.count and self.priority(end) == priority:
            end += 1
        if self.ranked[end - 1][1] != self.ranked[rank][1]:
            _, candidates = derivation.legal_actions(self.parent.state)
            ranked = list(self.ranked)
            ranked[rank:end] = sorted(
                ranked[rank:end], key=lambda pair: candidates.index(pair[0]))
            self.ranked = ranked
        self.settled = end

    def push(self, heap, rank):
        """Push the successor at `rank`, settling the run it starts, if
        the next rank has its priority."""
        parent_logprob, ranked, h = self.parent.logprob, self.ranked, self.h
        logprob = parent_logprob + ranked[rank][1]
        following = rank + 1
        if self.settled <= following < self.count and \
                (parent_logprob + ranked[following][1]) + h == logprob + h:
            self.settle(rank)
            logprob = parent_logprob + self.ranked[rank][1]
        heapq.heappush(heap, (-(logprob + h), self.base + rank, logprob,
                              self, rank))

    def record(self, rank):
        """The hypothesis of the successor at `rank`, its state built."""
        value, score = self.ranked[rank]
        parent, kind = self.parent, self.kind
        return _Hypothesis(
            derivation.apply_action(parent.state, (kind, value),
                                    validate=False),
            parent.logprob + score, self.h, parent, kind, value)


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
    tickets = 0  # FIFO among equal priorities
    live = 0  # passing successors not yet popped, pushed or not
    heap = []  # (-(logprob + h), ticket, logprob, successors, rank)
    while hyp is not None:
        if hyp.state.complete:
            best.offer(hyp)
        else:
            expanded += 1
            try:
                kind, ranked = action_scores(model_set, hyp.state)
            except DeadEnd:
                pass
            else:
                successors = _Successors(hyp, kind, bound.after(hyp, kind),
                                         ranked, tickets, best.logprob)
                tickets += len(ranked)
                if successors.count:
                    live += successors.count
                    successors.push(heap, 0)
            if live > config.max_hypotheses:
                return _memory_fallback(model_set, heap, best, expanded)
        hyp = None
        while heap:
            priority, _, logprob, successors, rank = heapq.heappop(heap)
            # Every entry left, and every successor not yet pushed, scores
            # at most -priority, so once that falls below the incumbent (by
            # more than rounding) none can complete to a parse as good.
            if -priority < best.logprob - 1e-9 * max(1.0, -best.logprob):
                break
            live -= 1
            if rank + 1 < successors.count:
                successors.push(heap, rank + 1)
            if logprob >= best.logprob:
                hyp = successors.record(rank)
                break

    return _result(best, STATUS_NO_PARSE if best.hyp is None
                   else STATUS_OPTIMAL, expanded)


_MAX_ROLLOUTS = 64


def _memory_fallback(model_set, heap, best, expanded):
    """Out of memory budget: greedily finish the most promising live
    successor so the caller still gets a parse, flagged as a search error.
    Live successors are the ranks from each heap entry's to its
    successors' `count`; they roll out by falling log probability, equal
    ones in ticket (generation) order."""
    pool = []  # (logprob, -ticket, successors, rank)
    for _, _, _, successors, first in heap:
        rank = max(first, successors.settled)
        while rank < successors.count:
            successors.settle(rank)
            rank = successors.settled
        parent_logprob, ranked = successors.parent.logprob, successors.ranked
        pool.extend((parent_logprob + ranked[rank][1],
                     -(successors.base + rank), successors, rank)
                    for rank in range(first, successors.count))
    for _, _, successors, rank in heapq.nlargest(_MAX_ROLLOUTS, pool,
                                                 key=itemgetter(0, 1)):
        hyp = successors.record(rank)
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
