"""Model and classes files: one JSON envelope of a magic string naming
the file's kind, a format version and named sections, each sealed with
the SHA-256 of its canonical serialization.  `_write` writes it; `_read`
checks the magic, the version, every checksum and the sections the kind
requires.  A classes file holds the vocabularies and class trees, a model
file those, the head rules, the three decision-tree models and the
settings: the unary chain cap and schema version, which loading reads,
and, as provenance that nothing reads, the text of every `Config`
setting training ran with.  A model stores its nodes' questions and
counts and its bucket interpolation weights (C99 hex float literals);
from them `dtm.SmoothedModel` derives the leaf distributions on load as
in training, bit for bit.  Any failed check is a ModelFileError.
"""

import hashlib
import json
from collections import Counter

import numpy as np

from . import derivation, dtm
from .classtree import MAX_BITS, ClassTree
from .corpus import UNK, Vocabularies
from .errors import DegenerateDistribution, ModelFileError, read_text
from .headfinder import DIRECTIONS, RIGHTMOST, HeadRule, HeadRuleTable
from .models import (CLASS_FALLBACKS, SCHEMA_VERSION, ModelSet,
                     class_symbols, make_schema)

MAGIC = "dtparser-model"
CLASSES_MAGIC = "dtparser-classes"
FORMAT_VERSION = 1
CLASSES_SECTIONS = ("vocabularies", "class_trees")
MODEL_SECTIONS = CLASSES_SECTIONS + ("head_rules", "models", "settings")


def _canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _checksum(data):
    return hashlib.sha256(_canonical(data)).hexdigest()


def _vocab_data(vocab):
    return {
        "words": [[w, vocab.word_counts.get(w, 0)] for w in vocab.words],
        "tags": vocab.tags,
        "labels": vocab.labels,
        "unk_threshold": vocab.unk_threshold,
    }


def _classtree_data(tree):
    return {
        "budget": tree.budget,
        "depth": tree.depth,
        "truncated": tree.truncated,
        "fallback": tree.fallback,
        "codes": tree.codes,
    }


def _is_int(value):
    return type(value) is int  # bool is an int subclass; JSON true is no int


def _field(data, key, kind, what):
    """`data[key]`, which must exist and be a `kind`; an int is no bool."""
    if not isinstance(data, dict):
        raise ModelFileError(f"{what} is not a JSON object")
    if key not in data:
        raise ModelFileError(f"{what} lacks its {key!r} field")
    value = data[key]
    if not isinstance(value, kind) or (kind is int and not _is_int(value)):
        raise ModelFileError(
            f"{what} field {key!r} is {value!r}, not a {kind.__name__}")
    return value


def _vocab_from(data):
    what = "vocabularies"
    words = _field(data, "words", list, what)
    if not all(isinstance(entry, list) and len(entry) == 2
               and isinstance(entry[0], str) and _is_int(entry[1])
               and entry[1] >= 0 for entry in words):
        raise ModelFileError(
            f"{what} field 'words' has an entry that is not a [word, "
            f"count >= 0] pair")
    if not words or words[0][0] != UNK:
        raise ModelFileError(f"{what} field 'words' does not start with "
                             f"{UNK!r}")
    tags = _field(data, "tags", list, what)
    labels = _field(data, "labels", list, what)
    if not all(isinstance(symbol, str) for symbol in tags + labels):
        raise ModelFileError(f"{what} has a tag or label that is not a string")
    names = [w for w, _ in words]
    for name, symbols in ("words", names), ("tags", tags), ("labels", labels):
        # A repeat would take an id of its own, which no count reaches.
        if len(set(symbols)) < len(symbols):
            repeat = next(s for s, n in Counter(symbols).items() if n > 1)
            raise ModelFileError(f"{what} field {name!r} repeats {repeat!r}")
    return Vocabularies(words=names,
                        word_counts={w: c for w, c in words if c},
                        tags=tags, labels=labels,
                        unk_threshold=_field(data, "unk_threshold", int, what))


def _classtree_from(data, what, symbols, expected_fallback):
    """The class tree `data` holds, which must give each of `symbols` a
    code and have the fallback training gives it; `what` names it in
    every error."""
    depth = _field(data, "depth", int, what)
    budget = _field(data, "budget", int, what)
    truncated = _field(data, "truncated", bool, what)
    fallback = _field(data, "fallback", object, what)
    codes = _field(data, "codes", dict, what)
    if not 0 <= depth <= budget <= MAX_BITS:
        raise ModelFileError(
            f"{what} has depth {depth!r} and budget {budget!r}, not 0 <= "
            f"depth <= budget <= {MAX_BITS}")
    # Training asks only the bits below a class tree's depth.
    if not all(_is_int(code) and 0 <= code < 1 << depth
               for code in codes.values()):
        raise ModelFileError(
            f"{what} has a code that is not an int in [0, 2**depth), "
            f"depth {depth}")
    # Only truncation lets two symbols share a code.
    if not truncated and len(set(codes.values())) < len(codes):
        raise ModelFileError(f"{what} is untruncated but gives two symbols "
                             "one code")
    if fallback != expected_fallback:
        raise ModelFileError(f"{what} fallback is {fallback!r}, not "
                             f"{expected_fallback!r} as training writes")
    for symbol in symbols:
        if symbol not in codes:  # membership, not the fallback lookup
            raise ModelFileError(f"{what} has no code for {symbol!r}")
    return ClassTree(codes=codes, budget=budget, depth=depth,
                     truncated=truncated, fallback=fallback)


def _head_rules_data(heads):
    return {
        "default_direction": RIGHTMOST.direction,
        "rules": [[r.parent, r.direction, list(r.priorities)]
                  for r in heads.rules.values()],
    }


def _head_rules_from(data):
    what = "head rules"
    default = _field(data, "default_direction", str, what)
    if default != RIGHTMOST.direction:  # only a `*` rule sets another
        raise ModelFileError(f"{what} default direction {default!r} is not "
                             f"{RIGHTMOST.direction!r} as training writes")
    rules = _field(data, "rules", list, what)
    for rule in rules:
        if not (isinstance(rule, list) and len(rule) == 3
                and isinstance(rule[0], str) and rule[1] in DIRECTIONS
                and isinstance(rule[2], list)
                and all(isinstance(child, str) for child in rule[2])):
            raise ModelFileError(
                f"{what} entry {rule!r} is not [parent, "
                f"{'/'.join(DIRECTIONS)}, [child, ...]]")
    return HeadRuleTable([HeadRule(parent, direction, tuple(children))
                          for parent, direction, children in rules])


def _model_data(model):
    nodes = []
    for node in model.nodes:
        q = node.question
        nodes.append({
            "q": [q.slot, q.kind, q.arg] if q else None,
            "counts": {str(i): int(c) for i, c in enumerate(node.counts) if c},
        })
    return {
        "kind": model.schema.kind,
        "nodes": nodes,
        "lambdas": {str(b): lam.hex() for b, lam in model.bucket_lambdas.items()},
        "heldout_used": model.heldout_used,
    }


def _question_from(q, schema):
    """Question `q`, which must be one that `dtm.QUESTIONS` lets training
    ask of its slot."""
    if not (isinstance(q, list) and len(q) == 3 and _is_int(q[0])
            and 0 <= q[0] < len(schema.slots) and isinstance(q[1], str)
            and _is_int(q[2])):
        raise ModelFileError(
            f"{schema.kind} model has an invalid question {q!r}: expected "
            f"[slot below {len(schema.slots)}, question kind, int]")
    slot, kind, arg = q
    vkind = schema.slots[slot][1]
    asks = dtm.QUESTIONS[vkind]
    tree = schema.encoders.get(vkind)
    if kind not in asks or arg not in asks[kind][0](tree):
        takes = ", or ".join(text.format(tree=tree) for _, text
                             in asks.values())
        raise ModelFileError(f"{schema.kind} model has an invalid question "
                             f"{q!r}: a {vkind} slot takes {takes}")
    return dtm.Question(slot, kind, arg)


def _model_from(data, schema):
    what = f"{schema.kind} model"
    futures = {str(i): i for i in range(len(schema.futures))}
    tree = dtm.FlatTree(schema)
    for pos, entry in enumerate(_field(data, "nodes", list, what)):
        if tree.complete:
            raise ModelFileError(f"{what} has trailing nodes")
        if not (isinstance(entry, dict) and "q" in entry
                and isinstance(entry.get("counts"), dict)):
            raise ModelFileError(f"{what} node {pos} is not an object with "
                                 f"'q' and 'counts' fields")
        counts = np.zeros(len(futures), dtype=np.int64)
        for i, c in entry["counts"].items():
            if not _is_int(c) or not 0 <= c < 1 << 63 or i not in futures:
                raise ModelFileError(
                    f"{what} has count {c!r} for future {i!r}; expected a "
                    f"count in [0, 2**63) for a future below {len(futures)}")
            counts[futures[i]] = c
        total = sum(entry["counts"].values())
        if not total:
            raise ModelFileError(f"{what} node {pos} has no events")
        q = None if entry["q"] is None else _question_from(entry["q"], schema)
        tree.add(dtm.DTNode(counts, q, total=total))
    if not tree.complete:
        raise ModelFileError(f"{what} ends inside its tree")
    try:
        bucket_lambdas = {int(b): float.fromhex(lam) for b, lam
                          in _field(data, "lambdas", dict, what).items()}
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"{what} has a malformed lambda: {exc}") from exc
    for pos, node in enumerate(tree.nodes):  # what smoothing each node needs
        lam = bucket_lambdas.get(dtm.count_bucket(node))
        if lam is None or not 0.0 <= lam < 1.0:  # a nan fails too
            raise ModelFileError(f"{what} node {pos}'s count bucket has "
                                 f"lambda {lam!r}, not one in [0, 1)")
    heldout_used = _field(data, "heldout_used", bool, what)
    try:
        return dtm.SmoothedModel(schema, tree, bucket_lambdas, heldout_used)
    except DegenerateDistribution as exc:
        raise ModelFileError(f"{what}: {exc}") from exc


def _write(path, magic, sections):
    """Write `sections`, each sealed with its checksum, as a `magic` file."""
    envelope = {
        "magic": magic,
        "version": FORMAT_VERSION,
        "sections": {name: {"sha256": _checksum(data), "data": data}
                     for name, data in sections.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh, sort_keys=True)
        fh.write("\n")


def _read(path, magic, what, required):
    """The data of every section of `magic` file `path`, each matching its
    checksum; the sections named in `required` must be among them."""
    try:
        envelope = json.loads(read_text(path))
    except ValueError as exc:
        raise ModelFileError(f"{path}: not a {what}: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("magic") != magic:
        raise ModelFileError(f"{path}: bad magic; not a {what}")
    if envelope.get("version") != FORMAT_VERSION:
        raise ModelFileError(
            f"{path}: format version {envelope.get('version')!r} unsupported "
            f"(expected {FORMAT_VERSION})")
    sections = {}
    for name, wrapped in _field(envelope, "sections", dict, path).items():
        data = _field(wrapped, "data", object, f"{path}: section {name!r}")
        if _checksum(data) != wrapped.get("sha256"):
            raise ModelFileError(
                f"{path}: section {name!r} fails its checksum")
        sections[name] = data
    for name in required:
        if name not in sections:
            raise ModelFileError(f"{path}: section {name!r} missing")
    return sections


def _classes_data(vocab, class_trees):
    return {"vocabularies": _vocab_data(vocab),
            "class_trees": {kind: _classtree_data(tree)
                            for kind, tree in class_trees.items()}}


def _classes_from(sections, path):
    """The vocabularies and a class tree of every categorical kind, each
    checked, and each giving every symbol `models.class_symbols` lists
    its own code."""
    vocab = _vocab_from(sections["vocabularies"])
    trees = sections["class_trees"]
    return vocab, {
        kind: _classtree_from(
            _field(trees, kind, object, f"{path}: class trees"),
            f"{path}: the {kind} class tree", symbols,
            CLASS_FALLBACKS.get(kind))
        for kind, symbols in class_symbols(vocab).items()}


def save_classes(vocab, class_trees, path):
    _write(path, CLASSES_MAGIC, _classes_data(vocab, class_trees))


def load_classes(path):
    return _classes_from(
        _read(path, CLASSES_MAGIC, "classes file", CLASSES_SECTIONS), path)


def save_model_set(model_set, config, path):
    _write(path, MAGIC, {
        **_classes_data(model_set.vocab, model_set.class_trees),
        "head_rules": _head_rules_data(model_set.heads),
        "models": {kind: _model_data(model)
                   for kind, model in model_set.models.items()},
        "settings": {
            "u_max": model_set.u_max,
            "schema_version": SCHEMA_VERSION,
            "config": {k: repr(v) for k, v in config.as_dict().items()},
        },
    })


def load_model_set(path):
    sections = _read(path, MAGIC, "model file", MODEL_SECTIONS)
    settings = sections["settings"]
    version = _field(settings, "schema_version", object, f"{path}: settings")
    if version != SCHEMA_VERSION:
        raise ModelFileError(
            f"{path}: model schema version {version!r} unsupported "
            f"(expected {SCHEMA_VERSION})")
    u_max = _field(settings, "u_max", int, f"{path}: settings")
    if u_max < 0:
        raise ModelFileError(f"{path}: settings field 'u_max' is {u_max}, "
                             f"below 0")

    vocab, class_trees = _classes_from(sections, path)
    heads = _head_rules_from(sections["head_rules"])
    models = {kind: _model_from(
        _field(sections["models"], kind, object, f"{path}: models"),
        make_schema(kind, vocab, class_trees)) for kind in derivation.KINDS}
    return ModelSet(vocab=vocab, heads=heads, class_trees=class_trees,
                    models=models, u_max=u_max)
