"""Search for the highest-probability derivation of a sentence.

`parse` runs in two phases.  Phase one is a stack decoder: hypotheses are
expanded best-first by log probability, with at most `beam_width`
expansions per decision depth (hypotheses beyond the beam are set aside,
not dropped), until a complete parse with probability above
`switch_threshold` turns up -- or, failing that, until the best-first
frontier is spent.  Phase two then exhausts every remaining hypothesis
breadth-first, discarding any whose log probability has fallen strictly
below the best complete parse found so far.  Since every decision
probability is at most 1, a partial derivation's score can only drop as
it grows, so this pruning never discards an optimal completion and a
finished phase two certifies optimality.

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

Expanding a hypothesis scores every legal successor but records each one
only as (parent, decision, log probability); a successor's derivation
state is built when it is popped and survives the incumbent bound, so
most successors, which are never popped, cost no state at all.  Search
order and results do not depend on when states are built.
"""

import heapq
import itertools
import logging
import math
from collections import deque
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
    expanded: int      # hypotheses expanded across all phases


class _Hypothesis:
    """One partial derivation: its parent plus the (kind, value) decision
    taken there.  Its derivation state is built from the parent's state
    the first time it is read, so a successor that is never popped, or
    is pruned when popped, never builds one."""

    __slots__ = ("_state", "kind", "logprob", "depth", "parent", "value")

    def __init__(self, state, logprob, depth, parent, kind, value):
        self._state = state
        self.logprob = logprob
        self.depth = depth
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


def _expand(model_set, hyp):
    """Successors of `hyp`, one per legal action; empty at a dead end."""
    try:
        kind, scored = action_scores(model_set, hyp.state)
    except DeadEnd:
        return []
    return [_Hypothesis(None, hyp.logprob + math.log(p), hyp.depth + 1, hyp,
                        kind, value)
            for value, p in scored]


def _result(best, status, expanded):
    if best.hyp is None:
        return SearchResult(tree=None, logprob=-math.inf, status=status,
                            expanded=expanded)
    tree = derivation.to_raw_tree(best.hyp.state.stack[0])
    return SearchResult(tree=tree, logprob=best.logprob, status=status,
                        expanded=expanded)


def parse(model_set, words, config):
    """The optimal parse of `words`, unless memory runs out first."""
    if not words:
        raise EmptyInput("cannot parse an empty sentence")
    if len(words) > config.max_length:
        raise SentenceTooLong(f"sentence of {len(words)} words exceeds the "
                              f"{config.max_length}-word limit")
    start = _Hypothesis(derivation.initial_state(words, model_set.context()),
                        0.0, 0, None, None, None)
    best = _Best()
    expanded = 0
    switch_logprob = math.log(config.switch_threshold)

    ticket = itertools.count()  # FIFO among equal log probabilities
    heap = [(-start.logprob, next(ticket), start)]
    set_aside = []
    expansions_at_depth = {}

    # Phase 1: best-first with a per-depth beam, stop on a good completion.
    while heap:
        _, _, hyp = heapq.heappop(heap)
        if hyp.state.complete:
            best.offer(hyp)
            if hyp.logprob > switch_logprob:
                break
            continue
        if expansions_at_depth.get(hyp.depth, 0) >= config.beam_width:
            set_aside.append(hyp)
            continue
        expansions_at_depth[hyp.depth] = expansions_at_depth.get(hyp.depth, 0) + 1
        expanded += 1
        for succ in _expand(model_set, hyp):
            if succ.logprob < best.logprob:
                continue
            heapq.heappush(heap, (-succ.logprob, next(ticket), succ))
        if len(heap) + len(set_aside) > config.max_hypotheses:
            pool = [entry[2] for entry in heap] + set_aside
            return _memory_fallback(model_set, pool, best, expanded)

    # Phase 2: breadth-first exhaustion of everything still open.
    pool = [entry[2] for entry in heap] + set_aside
    queue = deque(sorted(pool, key=lambda h: h.depth))
    while queue:
        hyp = queue.popleft()
        if hyp.logprob < best.logprob:
            continue
        if hyp.state.complete:
            best.offer(hyp)
            continue
        expanded += 1
        for succ in _expand(model_set, hyp):
            assert succ.logprob <= hyp.logprob + 1e-12, \
                "a decision can never raise a derivation's probability"
            if succ.logprob < best.logprob:
                continue
            queue.append(succ)
        if len(queue) > config.max_hypotheses:
            return _memory_fallback(model_set, list(queue), best, expanded)

    if best.hyp is None:
        return _result(best, STATUS_NO_PARSE, expanded)
    return _result(best, STATUS_OPTIMAL, expanded)


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
                        0.0, 0, None, None, None)
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
    if best.hyp is None:
        return _result(best, STATUS_NO_PARSE, expanded)
    return _result(best, STATUS_OPTIMAL, expanded)
