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
parse whenever one can still be finished).

`exhaustive_parse` is an independent check on all of this: a plain
depth-first enumeration of every legal decision sequence with only the
safe never-discards-an-optimum bound applied.

Scores are natural-log probabilities throughout: `models.action_scores`
gives each legal decision its log probability, read from the reached
leaf's row of logs, and a successor's `logprob` is its parent's plus
that score.

Expanding a hypothesis scores every legal successor but records each one
only as (parent, decision, log probability, `h`); a successor's
derivation state is built when it is popped and survives the incumbent
bound, so most successors, which are never popped, cost no state at all.
Search order and results do not depend on when states are built.
"""

import heapq
import itertools
import logging
import math
from dataclasses import dataclass

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


class _Hypothesis:
    """One partial derivation: its parent plus the (kind, value) decision
    taken there, and `h`, the bound on what its unfinished words still
    cost.  Its derivation state is built from the parent's state the
    first time it is read, so a successor that is never popped, or is
    pruned when popped, never builds one."""

    __slots__ = ("_state", "kind", "logprob", "h", "parent", "value")

    def __init__(self, state, logprob, h, parent, kind, value):
        self._state = state
        self.logprob = logprob
        self.h = h
        self.parent = parent
        self.kind = kind
        self.value = value

    @property
    def state(self):
        if self._state is None:
            self._state = derivation.apply_action(
                self.parent.state, (self.kind, self.value), validate=False)
        return self._state

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
        if hyp.logprob == self.logprob and self._decisions is not None \
                and decisions >= self._decisions:
            return
        self.hyp = hyp
        self.logprob = hyp.logprob
        self._decisions = decisions


def _expand(model_set, hyp, bound=None):
    """Successors of `hyp`, one per legal action, each carrying its `h`
    under `bound` (0 without one); empty at a dead end."""
    try:
        kind, scored = action_scores(model_set, hyp.state)
    except DeadEnd:
        return []
    h = 0.0 if bound is None else bound.after(hyp, kind)
    return [_Hypothesis(None, hyp.logprob + score, h, hyp, kind, value)
            for value, score in scored]


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
    start = _Hypothesis(derivation.initial_state(words, model_set.context()),
                        0.0, bound.untagged[0], None, None, None)
    best = _Best()
    expanded = 0
    ticket = itertools.count()  # FIFO among equal priorities
    heap = [(-(start.logprob + start.h), next(ticket), start)]
    while heap:
        priority, _, hyp = heapq.heappop(heap)
        # Every hypothesis left scores at most -priority, so once that
        # falls below the incumbent (by more than rounding) none can
        # complete to a parse as good.
        if -priority < best.logprob - 1e-9 * max(1.0, -best.logprob):
            break
        if hyp.logprob < best.logprob:
            continue
        if hyp.state.complete:
            best.offer(hyp)
            continue
        expanded += 1
        for succ in _expand(model_set, hyp, bound):
            if succ.logprob < best.logprob:
                continue
            heapq.heappush(heap, (-(succ.logprob + succ.h), next(ticket),
                                  succ))
        if len(heap) > config.max_hypotheses:
            return _memory_fallback(model_set, [entry[2] for entry in heap],
                                    best, expanded)

    return _result(best, STATUS_NO_PARSE if best.hyp is None
                   else STATUS_OPTIMAL, expanded)


_MAX_ROLLOUTS = 64


def _memory_fallback(model_set, pool, best, expanded):
    """Out of memory budget: greedily finish the most promising live
    hypothesis so the caller still gets a parse, flagged as a search error."""
    heap = [(-h.logprob, i, h) for i, h in enumerate(pool)]
    heapq.heapify(heap)
    rollouts = 0
    while heap and rollouts < _MAX_ROLLOUTS:
        _, _, hyp = heapq.heappop(heap)
        rollouts += 1
        while hyp is not None and not hyp.state.complete:
            expanded += 1
            succs = _expand(model_set, hyp)
            hyp = max(succs, key=lambda s: (s.logprob, s.value)) if succs else None
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
        if hyp.logprob < best.logprob:
            return
        if expanded >= budget:
            raise EnumerationBudgetExceeded(
                f"exhaustive enumeration passed {budget} expansions")
        expanded += 1
        succs = sorted(_expand(model_set, hyp),
                       key=lambda s: (-s.logprob, s.value))
        for succ in succs:
            if succ.logprob < best.logprob:
                continue
            descend(succ)

    descend(start)
    return _result(best, STATUS_NO_PARSE if best.hyp is None
                   else STATUS_OPTIMAL, expanded)
