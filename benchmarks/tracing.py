"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions the benchmark attributes to
each layer.  A wrapper records one span per call: its duration, and its
self time, which is the duration minus the part covered by wrapped calls
made inside it.  Spans are folded into per-name totals as they close, so
memory stays flat however many calls a run makes.

Some modules import a function by name (`search` imports
`action_scores`, `cli` imports `read_treebank`, `save_model_set` and
`load_model_set`, `models` imports `build_vocabularies`), so a wrapper
replaces every reference to the original function in every loaded
`dtparser` module, not only the defining one.
"""

import os
import sys
import time
from collections import defaultdict

from dtparser import (classtree, corpus, derivation, dtm, modelfile, models,
                      parseval, search)


def _count_nodes(root):
    return sum(1 for _ in dtm.iter_nodes(root))


def _decisions(tree):
    """Decisions in the derivation of `tree`: a tag and an extension per
    word, a label and an extension per constituent."""
    if not hasattr(tree, "children"):
        return 2
    return 2 + sum(_decisions(child) for child in tree.children)


def _search_counts(args, result):
    counts = {"search.expanded": result.expanded}
    if result.tree is not None:
        counts["search.decisions"] = _decisions(result.tree)
    return counts


# (span name, owner, attribute, hook(args, result) -> counter increments)
TARGETS = (
    ("corpus.read_treebank", corpus, "read_treebank", None),
    ("corpus.build_vocabularies", corpus, "build_vocabularies", None),
    ("corpus.format_tree", corpus, "format_tree", None),
    ("classtree.build", classtree, "build_class_tree",
     lambda args, result: {"classtree.symbols": len(args[0])}),
    ("derivation.encode", derivation, "encode",
     lambda args, result: {"derivation.events": len(result)}),
    ("derivation.legal_actions", derivation, "legal_actions", None),
    ("derivation.extract_history", derivation, "extract_history", None),
    ("derivation.apply_action", derivation, "apply_action", None),
    ("derivation.to_raw_tree", derivation, "to_raw_tree", None),
    ("dtm.grow", dtm, "grow",
     lambda args, result: {"dtm.nodes": _count_nodes(result)}),
    ("dtm.smooth", dtm, "smooth",
     lambda args, result: {"dtm.em_iterations": len(result.em_log)}),
    ("dtm.encode_history", dtm.ModelSchema, "encode_history", None),
    ("dtm.walk", dtm, "walk", None),
    ("models.action_scores", models, "action_scores", None),
    ("modelfile.save", modelfile, "save_model_set",
     lambda args, result: {"modelfile.bytes": os.path.getsize(args[2])}),
    ("modelfile.load", modelfile, "load_model_set", None),
    ("search.parse", search, "parse", _search_counts),
    ("parseval.score_pair", parseval, "score_pair", None),
)


class Tracer:
    """Wrappers plus the per-name totals they feed.

    Wrappers stay installed until `uninstall`; while `active` is false
    they call straight through, so the benchmark can leave its own checks
    out of the per-layer figures.
    """

    def __init__(self):
        self.active = False
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []  # [name, start, time covered by child spans]
        self._patched = []

    def _wrap(self, name, original, hook):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            # Recursive calls (format_tree, to_raw_tree) stay in one span.
            if not self.active or (stack and stack[-1][0] == name):
                return original(*args, **kwargs)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                self.self_s[name] += elapsed - frame[2]
                self.total_s[name] += elapsed
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += elapsed
            if hook is not None:
                for key, amount in hook(args, result).items():
                    self.counts[key] += amount
            return result

        traced.__wrapped__ = original
        return traced

    def install(self):
        loaded = [module for key, module in sys.modules.items()
                  if key == "dtparser" or key.startswith("dtparser.")]
        for name, owner, attr, hook in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            for holder in [owner] + loaded:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()
