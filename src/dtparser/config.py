"""Run configuration.

A Config collects every knob in one place.  Values can come from a
`key=value` text file (one per line, `#` comments allowed) and from
command-line flags; flags win over file values, file values over the
defaults below.
"""

import dataclasses
from dataclasses import dataclass

from .classtree import MAX_BITS
from .errors import BadSetting, DTParserError, read_text

FORMATS = ("underscore", "penn")

# A domain is its text, read after its type's name, and its test, which
# a nan fails wherever it is bounded.
_ANY = "", lambda value: True
_FORMAT = "in {" + ", ".join(FORMATS) + "}", lambda value: value in FORMATS
_OPEN_UNIT = "in (0, 1)", lambda value: 0 < value < 1
_BITS = f"in [1, {MAX_BITS}]", lambda value: 1 <= value <= MAX_BITS
_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


def _at_least(low):
    return f">= {low}", lambda value: value >= low


def _setting(default, domain):
    return dataclasses.field(default=default, metadata={"domain": domain})


@dataclass
class Config:
    """The one table of settings: each field's annotation is its type,
    and its `_setting` its default and domain.  Making a Config, and so
    `replace`, runs `check` on every field, whether its value came from
    a flag, a config file or library code."""

    # corpus
    format: str = _setting("underscore", _FORMAT)
    seed: int = _setting(13, _ANY)
    unk_threshold: int = _setting(3, _at_least(1))
    grow_fraction: float = _setting(0.9, _OPEN_UNIT)

    # class trees
    word_bits: int = _setting(30, _BITS)
    tag_bits: int = _setting(8, _BITS)
    label_bits: int = _setting(8, _BITS)
    extension_bits: int = _setting(3, _BITS)
    cluster_window: int = _setting(256, _at_least(2))

    # decision-tree growing
    min_events: int = _setting(8, _at_least(1))
    min_gain: float = _setting(0.01, _at_least(0))  # bits
    max_depth: int = _setting(24, _at_least(0))

    # smoothing
    lambda_max: float = _setting(1.0 - 1e-4, _OPEN_UNIT)
    em_tolerance: float = _setting(1e-6, _at_least(0))
    em_max_iterations: int = _setting(100, _at_least(0))

    # derivations / search
    u_max: int = _setting(0, _at_least(0))  # 0: the longest chain in training
    max_hypotheses: int = _setting(2_000_000, _at_least(1))
    max_length: int = _setting(40, _at_least(1))

    # scoring
    include_root: bool = _setting(True, _ANY)
    multiset: bool = _setting(True, _ANY)

    # cli
    workers: int = _setting(1, _at_least(1))

    def __post_init__(self):
        for key in _TABLE:
            check(key, getattr(self, key))

    def replace(self, **kwargs):
        return dataclasses.replace(self, **kwargs)

    def as_dict(self):
        return dataclasses.asdict(self)


_TABLE = {f.name: (f.type, *f.metadata["domain"])
          for f in dataclasses.fields(Config)}


def check(key, value):
    """Raise BadSetting, naming `key`, `value` and the key's type and
    domain, unless `value` is in them.  An int will do for a float; a
    bool, though an int subclass, is only a bool."""
    kind, text, holds = _TABLE[key]
    kinds = (int, float) if kind is float else kind
    if not (isinstance(value, kinds) and isinstance(value, bool) == (kind is bool)
            and holds(value)):
        article = "an" if kind is int else "a"
        raise BadSetting(f"setting {key}={value!r} is not {article} "
                         f"{kind.__name__} {text}".rstrip())


def load_config(path):
    """The defaults overlaid by the `key=value` lines of file `path`.  A
    value that does not parse as its key's type is kept as its text, a
    str, which `check` then refuses as of the wrong type."""
    updates = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        key, raw = key.strip().replace("-", "_"), raw.strip()
        if not sep or key not in _TABLE:
            raise DTParserError(f"{path}:{lineno}: unknown setting {line!r}")
        kind = _TABLE[key][0]
        try:
            updates[key] = (_BOOLS.get(raw.lower(), raw) if kind is bool
                            else kind(raw))
        except ValueError:
            updates[key] = raw
    return Config(**updates)
