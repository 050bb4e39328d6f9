"""Binary class trees: fixed-width bit encodings of vocabulary symbols.

A class tree is a binary hierarchy over a vocabulary.  Each symbol's
encoding reads the branch taken at every depth from the root: bit b is
the branch at depth b, padded with zeros beyond the symbol's leaf.  The
missing value encodes to a reserved all-null pseudo-string distinct from
every real code.

Trees are grown bottom-up by greedy agglomerative merging: start with
every symbol in its own class and repeatedly merge the pair of classes
losing the least average mutual information between adjacent-class
events, as estimated from bigram co-occurrence counts.  To bound the
cost on large vocabularies only a window of the most frequent remaining
classes is considered at a time; within the window each step is exactly
the greedy-minimal merge.
"""

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EmptyVocabulary, UnknownId

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BitString:
    """A fixed-width code; bit b is the branch taken at depth b."""

    bits: int
    width: int
    null: bool = False

    def bit(self, b):
        if not 0 <= b < self.width:
            raise IndexError(f"bit {b} outside width {self.width}")
        return (self.bits >> b) & 1

    def as_text(self):
        if self.null:
            return "-" * self.width
        return "".join(str(self.bit(b)) for b in range(self.width))


def null_code(width):
    return BitString(bits=0, width=width, null=True)


@dataclass
class ClassTree:
    """Symbol -> BitString table plus the merge history that built it."""

    codes: dict
    budget: int
    depth: int
    truncated: bool
    fallback: str = None       # symbol substituted for out-of-vocabulary lookups
    merges: list = field(default_factory=list)  # [(frozenset, frozenset), ...]

    def encode(self, symbol):
        """The BitString of `symbol`; None encodes to the null pseudo-string."""
        if symbol is None:
            return null_code(self.budget)
        code = self.codes.get(symbol)
        if code is None:
            if self.fallback is not None:
                return self.codes[self.fallback]
            raise UnknownId(f"symbol {symbol!r} not covered by this class tree")
        return code

    @cached_property
    def code_table(self):
        """Symbol -> code bits as one dict lookup, built on first use; a
        symbol the table lacks is looked up through `encode`, so it takes
        the fallback's code or raises UnknownId."""
        table = _CodeTable((sym, code.bits) for sym, code in self.codes.items())
        table.tree = self
        return table

    def export_text(self):
        """`symbol TAB bitstring` lines, one per vocabulary symbol."""
        return "\n".join(f"{sym}\t{code.as_text()}"
                         for sym, code in sorted(self.codes.items())) + "\n"


class _CodeTable(dict):
    __slots__ = ("tree",)

    def __missing__(self, symbol):
        return self.tree.encode(symbol).bits


class _Merge:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


def _assign_codes(tree, budget):
    """Walk the merge hierarchy; the first merge operand branches to 0."""
    codes = {}
    depth = 0
    truncated = False
    stack = [(tree, 0, 0)]  # (node, bits, depth)
    while stack:
        node, bits, d = stack.pop()
        if isinstance(node, _Merge):
            if d >= budget:
                truncated = True
                stack.append((node.left, bits, d))
                stack.append((node.right, bits, d))
            else:
                stack.append((node.left, bits, d + 1))
                stack.append((node.right, bits | (1 << d), d + 1))
        else:
            codes[node] = bits
            depth = max(depth, d)
    return codes, depth, truncated


def _finish(tree, symbols, budget, fallback, merges):
    raw, depth, truncated = _assign_codes(tree, budget)
    if truncated:
        log.warning("class tree depth exceeds %d bits; codes truncated "
                    "and may collide", budget)
    codes = {sym: BitString(bits=raw[sym], width=budget) for sym in symbols}
    if not truncated:
        assert len({c.bits for c in codes.values()}) == len(codes), \
            "untruncated class-tree codes must be injective"
    return ClassTree(codes=codes, budget=budget, depth=depth,
                     truncated=truncated, fallback=fallback, merges=merges)


def fixed_class_tree(symbols, budget, fallback=None):
    """A deterministic balanced hierarchy (no co-occurrence statistics):
    symbol i branches by the bits of i.  Handy for tiny fixed inventories."""
    symbols = list(symbols)
    if not symbols:
        raise EmptyVocabulary("cannot build a class tree over nothing")
    if len(symbols) > (1 << budget):
        raise ValueError(f"{len(symbols)} symbols do not fit in {budget} bits")
    codes = {sym: BitString(bits=i, width=budget)
             for i, sym in enumerate(symbols)}
    depth = max(1, (len(symbols) - 1).bit_length())
    return ClassTree(codes=codes, budget=budget, depth=depth, truncated=False,
                     fallback=fallback, merges=[])


def _mi_terms(m, row_mass, col_mass, total):
    """Elementwise p*log2(p/(pl*pr)) contributions of a count block."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(m > 0, m * total / (row_mass * col_mass), 1.0)
        return np.where(m > 0, m * np.log2(ratio), 0.0) / total


def average_mutual_information(matrix):
    """MI (bits) between left and right class of an adjacent pair, under
    the empirical distribution of `matrix` (class x class bigram counts)."""
    m = np.asarray(matrix, dtype=float)
    total = m.sum()
    if total == 0:
        return 0.0
    pl = m.sum(axis=1)
    pr = m.sum(axis=0)
    return float(_mi_terms(m, pl[:, None], pr[None, :], total).sum())


def _merge_losses(m):
    """Loss of average MI for merging every class pair of count matrix `m`.

    Returns a k x k array; entry (a, b) with a < b is the MI drop from
    merging classes a and b.  Other entries are +inf.
    """
    k = m.shape[0]
    total = m.sum()
    losses = np.full((k, k), np.inf)
    if total == 0:
        iu = np.triu_indices(k, 1)
        losses[iu] = 0.0
        return losses
    pl = m.sum(axis=1)
    pr = m.sum(axis=0)
    terms = _mi_terms(m, pl[:, None], pr[None, :], total)
    row_sum = terms.sum(axis=1)
    col_sum = terms.sum(axis=0)
    diag = np.diag(terms)
    involve = row_sum + col_sum - diag  # MI mass touching each class

    idx = np.arange(k)
    for a in range(k - 1):
        bs = idx[a + 1:]
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
        losses[a, a + 1:] = old_mass - new_mass
    return losses


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
    so reruns are byte-identical.
    """
    symbols = list(symbols)
    if not symbols:
        raise EmptyVocabulary("cannot build a class tree over nothing")
    if fallback is not None and fallback not in symbols:
        raise UnknownId(f"fallback symbol {fallback!r} not in vocabulary")
    index = {sym: i for i, sym in enumerate(symbols)}
    full = np.zeros((len(symbols), len(symbols)), dtype=float)
    for (a, b), count in bigrams.items():
        full[index[a], index[b]] += count

    mass = full.sum(axis=1) + full.sum(axis=0)
    order = sorted(range(len(symbols)), key=lambda i: (-mass[i], symbols[i]))
    queue = [[i] for i in order]  # members are symbol indices

    active = queue[:max(2, window)]
    queue = queue[len(active):]
    trees = [symbols[members[0]] for members in active]
    matrix = np.array([[full[np.ix_(a, b)].sum() for b in active] for a in active])

    merges = []
    while len(active) > 1 or queue:
        if len(active) < 2:
            active, trees, matrix, queue = _admit(active, trees, matrix, queue,
                                                  full, symbols)
            continue
        losses = _merge_losses(matrix)
        a, b = np.unravel_index(int(np.argmin(losses)), losses.shape)
        merges.append((frozenset(symbols[i] for i in active[a]),
                       frozenset(symbols[i] for i in active[b])))
        trees[a] = _Merge(trees[a], trees[b])
        active[a] = active[a] + active[b]
        matrix[a, :] += matrix[b, :]
        matrix[:, a] += matrix[:, b]
        matrix = np.delete(np.delete(matrix, b, axis=0), b, axis=1)
        del active[b], trees[b]
        if queue:
            active, trees, matrix, queue = _admit(active, trees, matrix, queue,
                                                  full, symbols)
    return _finish(trees[0], symbols, budget, fallback, merges)


def _admit(active, trees, matrix, queue, full, symbols):
    members = queue[0]
    queue = queue[1:]
    k = len(active)
    grown = np.zeros((k + 1, k + 1), dtype=float)
    grown[:k, :k] = matrix
    for j, other in enumerate(active):
        grown[k, j] = full[np.ix_(members, other)].sum()
        grown[j, k] = full[np.ix_(other, members)].sum()
    grown[k, k] = full[np.ix_(members, members)].sum()
    active = active + [members]
    trees = trees + [symbols[members[0]]]
    return active, trees, grown, queue
