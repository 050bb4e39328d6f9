"""Run configuration.

A Config collects every knob in one place.  Values can come from a
`key=value` text file (one per line, `#` comments allowed) and from
command-line flags; flags win over file values, file values over the
defaults below.
"""

import dataclasses
from dataclasses import dataclass

from .errors import DTParserError, read_text


@dataclass
class Config:
    # corpus
    format: str = "underscore"
    seed: int = 13
    unk_threshold: int = 3
    grow_fraction: float = 0.9

    # class trees
    word_bits: int = 30
    tag_bits: int = 8
    label_bits: int = 8
    extension_bits: int = 3
    cluster_window: int = 256

    # decision-tree growing
    min_events: int = 8
    min_gain: float = 0.01  # bits
    max_depth: int = 24

    # smoothing
    lambda_max: float = 1.0 - 1e-4
    em_tolerance: float = 1e-6
    em_max_iterations: int = 100

    # derivations / search
    u_max: int = 0  # 0 means: use the longest chain observed in training
    max_hypotheses: int = 2_000_000
    max_length: int = 40

    # scoring
    include_root: bool = True
    multiset: bool = True

    # cli
    workers: int = 1

    def replace(self, **kwargs):
        return dataclasses.replace(self, **kwargs)

    def as_dict(self):
        return dataclasses.asdict(self)


def _coerce(name, kind, raw):
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError as exc:
        raise DTParserError(f"bad value {raw!r} for config key {name}") from exc


def parse_config(text, base=None):
    """Apply `key=value` lines from `text` on top of `base` (or defaults)."""
    config = base if base is not None else Config()
    fields = {f.name: f.type for f in dataclasses.fields(Config)}
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if not sep or key not in fields:
            raise DTParserError(f"config line {lineno}: unknown setting {line!r}")
        updates[key] = _coerce(key, fields[key], raw.strip())
    return config.replace(**updates)


def load_config(path, base=None):
    return parse_config(read_text(path), base=base)
