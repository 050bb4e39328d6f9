"""Binary class trees: fixed-width bit encodings of vocabulary symbols.

A class tree is a binary hierarchy over a vocabulary.  Each symbol's
code is a plain int that reads the branch taken at every depth from the
root: bit b is the branch at depth b, zero beyond the symbol's leaf.  A
missing value has no code; the encoders mark it in a separate nulls mask.

Trees are grown bottom-up by greedy agglomerative merging: start with
every symbol in its own class and repeatedly merge the pair of classes
losing the least average mutual information between adjacent-class
events, as estimated from bigram co-occurrence counts.  To bound the
cost on large vocabularies only a window of the most frequent remaining
classes is considered at a time; within the window each step is exactly
the greedy-minimal merge.

The k x k merge losses are kept up to date rather than recomputed
(Brown et al. 1992, "Class-Based n-gram Models of Natural Language"):
the part of each pair's loss that sums over third classes is adjusted
by the merged or admitted class alone, so a step costs O(k^2) instead of
O(k^3).  The incremental losses only nominate candidates: every pair
within rounding of the least is re-scored exactly, a row at a time by
`_merge_loss_row`, so each merge, and so each code, is exactly what
recomputing all losses with it would give.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import BadSetting, EmptyVocabulary, UnknownId

log = logging.getLogger(__name__)

# The widest code: `dtm` stores codes in int64 columns, whose sign bit
# leaves 63 bits.
MAX_BITS = 63


class _Codes(dict):
    """Symbol -> code; a symbol the table lacks takes the fallback
    symbol's code, or raises UnknownId when there is none."""

    __slots__ = ("fallback",)

    def __init__(self, codes, fallback):
        super().__init__(codes)
        self.fallback = fallback

    def __missing__(self, symbol):
        code = self.get(self.fallback)
        if code is None:
            raise UnknownId(f"symbol {symbol!r} not covered by this class tree")
        return code


@dataclass
class ClassTree:
    """Symbol -> int code table of a class hierarchy."""

    codes: dict
    budget: int
    depth: int
    truncated: bool
    fallback: str = None       # symbol substituted for out-of-vocabulary lookups

    def __post_init__(self):
        self.codes = _Codes(self.codes, self.fallback)

    def export_text(self):
        """`symbol TAB bitstring` lines, one per vocabulary symbol;
        character b of the bitstring is bit b of the code."""
        return "\n".join(
            sym + "\t" + "".join(str(code >> b & 1) for b in range(self.budget))
            for sym, code in sorted(self.codes.items())) + "\n"


def fixed_class_tree(symbols, budget):
    """A deterministic balanced hierarchy (no co-occurrence statistics):
    symbol i branches by the bits of i.  Handy for tiny fixed inventories."""
    symbols = list(symbols)
    if not symbols:
        raise EmptyVocabulary("cannot build a class tree over nothing")
    if len(symbols) > (1 << budget):
        raise BadSetting(f"{len(symbols)} symbols do not fit in a budget of "
                         f"{budget} bits")
    codes = {sym: i for i, sym in enumerate(symbols)}
    depth = max(1, (len(symbols) - 1).bit_length())
    return ClassTree(codes=codes, budget=budget, depth=depth, truncated=False)


def _mi_terms(m, row_mass, col_mass, total):
    """Elementwise p*log2(p/(pl*pr)) contributions of a count block."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(m > 0, m * total / (row_mass * col_mass), 1.0)
        return np.where(m > 0, m * np.log2(ratio), 0.0) / total


def _loss_context(m):
    """What every `_merge_loss_row` reads of count matrix `m`: its
    total, its row and column sums, its MI terms and the MI mass touching
    each class.  `m` must have a nonzero total."""
    total = m.sum()
    pl = m.sum(axis=1)
    pr = m.sum(axis=0)
    terms = _mi_terms(m, pl[:, None], pr[None, :], total)
    row_sum = terms.sum(axis=1)
    col_sum = terms.sum(axis=0)
    diag = np.diag(terms)
    involve = row_sum + col_sum - diag  # MI mass touching each class
    return total, pl, pr, terms, involve


def _merge_loss_row(m, a, context):
    """MI drop from merging class `a` with each class b > a of `m`."""
    total, pl, pr, terms, involve = context
    bs = np.arange(m.shape[0])[a + 1:]
    # Merged outgoing rows: counts from (a U b) to every class d.
    rows = m[a, :][None, :] + m[bs, :]
    frow = _mi_terms(rows, (pl[a] + pl[bs])[:, None], pr[None, :], total)
    row_term = frow.sum(axis=1) - frow[:, a] - frow[np.arange(len(bs)), bs]
    # Merged incoming columns: counts from every class c into (a U b).
    cols = m[:, a][:, None] + m[:, bs]
    fcol = _mi_terms(cols, pl[:, None], (pr[a] + pr[bs])[None, :], total)
    col_term = fcol.sum(axis=0) - fcol[a, :] - fcol[bs, np.arange(len(bs))]
    # Internal mass of the merged class.
    self_counts = m[a, a] + m[a, bs] + m[bs, a] + m[bs, bs]
    self_term = _mi_terms(self_counts, pl[a] + pl[bs], pr[a] + pr[bs], total)
    new_mass = row_term + col_term + self_term
    old_mass = involve[a] + involve[bs] - terms[a, bs] - terms[bs, a]
    return old_mass - new_mass


def _g(x):
    """x * log2(x) elementwise, with g(0) = 0."""
    return x * np.log2(np.where(x > 0, x, 1.0))


def _add_pair_terms(h, u, sign=1.0):
    """Add, for every pair of classes (c, d), what sum-of-g loses when the
    cells u_c and u_d become one: g(u_c) + g(u_d) - g(u_c + u_d).  That is
    0 unless both cells are nonzero, so only those pairs are touched."""
    nz = np.flatnonzero(u)
    x = u[nz]
    gx = _g(x)
    h[np.ix_(nz, nz)] += sign * (gx[:, None] + gx[None, :]
                                 - _g(x[:, None] + x[None, :]))


def _third_class_row(m, x):
    """h[x, d] for every d: the pair terms of the cells classes x and d
    share with each third class e, in row e and in column e."""
    row = np.zeros(len(m))
    for cells in (m, m.T):  # counts into e, then counts out of e
        e = np.flatnonzero(cells[x])
        e = e[e != x]
        mx = cells[x, e]
        md = cells[:, e]
        f = _g(mx)[None, :] + _g(md) - _g(mx[None, :] + md)
        row += f.sum(axis=1)
        row[e] -= f[e, np.arange(len(e))]
    row[x] = 0.0
    return row


class _MergeLosses:
    """A class x class count matrix whose merge losses are kept up to date
    as classes merge and new classes are admitted.

    With g(x) = x log2 x, MI * T = sum g(m) - sum g(L) - sum g(R) + g(T)
    for cells m, row sums L, column sums R and total T.  A merge leaves T
    as it is, so T times the loss of merging c and d is
        h[c, d]  (the pair terms of the cells c and d share with third classes)
      + g(m_cc) + g(m_cd) + g(m_dc) + g(m_dd) - g(m_cc + m_cd + m_dc + m_dd)
      - (g(L_c) + g(L_d) - g(L_c + L_d)) - (g(R_c) + g(R_d) - g(R_c + R_d)).
    Only `h` costs O(k) per pair; it is updated at O(k^2) per merge or
    admission, and the rest is recomputed at O(k^2) per call.
    """

    def __init__(self, m):
        self.m = np.array(m, dtype=float)
        k = len(self.m)
        self.h = np.zeros((k, k))
        for x in range(k):
            self.h[x] = _third_class_row(self.m, x)

    def admit(self, row, col, self_count):
        """Add a class with counts `row` to and `col` from the present ones."""
        k = len(self.m)
        m = np.empty((k + 1, k + 1))
        m[:k, :k] = self.m
        m[k, :k] = row
        m[:k, k] = col
        m[k, k] = self_count
        h = np.zeros((k + 1, k + 1))
        h[:k, :k] = self.h
        _add_pair_terms(h, m[:, k])
        _add_pair_terms(h, m[k, :])
        h[k, :] = h[:, k] = _third_class_row(m, k)
        self.m, self.h = m, h

    def merge(self, a, b):
        """Fold class b into class a (a < b); b's index goes away."""
        m, h = self.m, self.h
        for e in (a, b):
            _add_pair_terms(h, m[:, e], -1.0)
            _add_pair_terms(h, m[e, :], -1.0)
        m[a, :] += m[b, :]
        m[:, a] += m[:, b]
        _add_pair_terms(h, m[:, a])
        _add_pair_terms(h, m[a, :])
        self.m = np.delete(np.delete(m, b, axis=0), b, axis=1)
        self.h = np.delete(np.delete(h, b, axis=0), b, axis=1)
        self.h[a, :] = self.h[:, a] = _third_class_row(self.m, a)

    def losses(self):
        """Entry (a, b), a < b, is the MI drop from merging classes a and
        b, as `_merge_loss_row` recomputes it up to rounding; others +inf."""
        m = self.m
        k = len(m)
        total = m.sum()
        losses = np.full((k, k), np.inf)
        iu = np.triu_indices(k, 1)
        if total == 0:
            losses[iu] = 0.0
            return losses
        gm = _g(m)
        d = np.diag(m)
        gd = np.diag(gm)
        scaled = (self.h + gd[:, None] + gm + gm.T + gd[None, :]
                  - _g(d[:, None] + m + m.T + d[None, :]))
        _add_pair_terms(scaled, m.sum(axis=1), -1.0)
        _add_pair_terms(scaled, m.sum(axis=0), -1.0)
        losses[iu] = scaled[iu] / total
        return losses

    def best(self):
        """The pair (a, b) that argmin over the recomputed losses picks:
        the least loss, ties to the earliest pair.  Pairs whose incremental
        loss is within rounding of the least are candidates, and each
        candidate row is re-scored exactly by `_merge_loss_row`."""
        if self.m.sum() == 0:
            return 0, 1
        losses = self.losses()
        finite = losses[np.isfinite(losses)]
        cutoff = finite.min() + 1e-9 * max(1.0, float(np.abs(finite).max()))
        context = _loss_context(self.m)
        best = None
        for a in np.unique(np.nonzero(losses <= cutoff)[0]):
            row = _merge_loss_row(self.m, a, context)
            j = int(np.argmin(row))
            candidate = (row[j], int(a), int(a) + 1 + j)
            if best is None or candidate < best:
                best = candidate
        return best[1], best[2]


def _greedy_merges(symbols, bigrams, window):
    """The greedy merges over `symbols`, in order, as (a, b) pairs of
    class names: class b folds into class a, and a class is named by the
    first symbol admitted into it."""
    index = {sym: i for i, sym in enumerate(symbols)}
    full = np.zeros((len(symbols), len(symbols)), dtype=float)
    for (a, b), count in bigrams.items():
        full[index[a], index[b]] += count

    mass = full.sum(axis=1) + full.sum(axis=0)
    order = sorted(range(len(symbols)), key=lambda i: (-mass[i], symbols[i]))
    admitted = np.array(order[:max(2, window)])  # symbol indices
    owner = np.arange(len(admitted))  # active class of each admitted symbol
    names = [symbols[i] for i in admitted]  # of the active classes
    losses = _MergeLosses(full[np.ix_(admitted, admitted)])

    merges = []
    while len(names) > 1:
        a, b = losses.best()
        merges.append((names[a], names.pop(b)))
        owner[owner == b] = a
        owner[owner > b] -= 1
        losses.merge(a, b)
        if len(admitted) < len(order):
            # Counts are integers, so summing them per class is exact.
            new = order[len(admitted)]
            k = len(names)
            losses.admit(
                np.bincount(owner, weights=full[new, admitted], minlength=k),
                np.bincount(owner, weights=full[admitted, new], minlength=k),
                full[new, new])
            names.append(symbols[new])
            admitted = np.append(admitted, new)
            owner = np.append(owner, k)
    return merges


def build_class_tree(symbols, bigrams, budget, window=256, fallback=None):
    """Grow a class tree over `symbols` from adjacent-pair counts.

    Args:
        symbols: vocabulary, in a deterministic order; every symbol gets
            exactly one leaf.
        bigrams: mapping (left symbol, right symbol) -> count of adjacent
            occurrences.
        budget: code width in bits.
        window: how many classes compete for merging at a time.  The most
            frequent symbols enter first; each merge admits the next one.
        fallback: symbol substituted when encoding an uncovered symbol
            (usually the unknown-word symbol), or None to make that an error.

    Ties in merge loss break toward the earliest pair in admission order,
    so reruns are byte-identical.  The codes are read off the merges by
    undoing them from the last: the last merge's class starts at code 0,
    depth 0, and each merge (a, b) gives a the next bit 0 and b the next
    bit 1, until the depth reaches the budget and the codes truncate.
    """
    symbols = list(symbols)
    if not symbols:
        raise EmptyVocabulary("cannot build a class tree over nothing")
    if fallback is not None and fallback not in symbols:
        raise UnknownId(f"fallback symbol {fallback!r} not in vocabulary")
    merges = _greedy_merges(symbols, bigrams, window)
    root = merges[-1][0] if merges else symbols[0]
    placed = {root: (0, 0)}  # class name -> (code, depth)
    truncated = False
    for a, b in reversed(merges):
        code, depth = placed[a]
        if depth < budget:
            placed[a] = (code, depth + 1)
            placed[b] = (code | 1 << depth, depth + 1)
        else:
            placed[b] = (code, depth)
            truncated = True
    if truncated:
        log.warning("class tree depth exceeds %d bits; codes truncated "
                    "and may collide", budget)
    codes = {sym: placed[sym][0] for sym in symbols}
    if not truncated:
        assert len(set(codes.values())) == len(codes), \
            "untruncated class-tree codes must be injective"
    return ClassTree(codes=codes, budget=budget,
                     depth=max(depth for _, depth in placed.values()),
                     truncated=truncated, fallback=fallback)
