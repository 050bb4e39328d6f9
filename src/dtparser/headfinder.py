"""Lexical-head selection for constituents via an ordered rule table.

Rule file format, one rule per line::

    PARENT direction child1 child2 ...

`direction` is ``from-left`` or ``from-right``.  The children list is a
priority list: the first listed symbol found among the constituent's child
symbols wins, scanning the children in the given direction.  If no listed
symbol matches, the head defaults to the first child in that direction.
``*`` as PARENT is a wildcard matched when no exact rule exists, and the
only default; a table without one acts as if it had ``* from-right``.
Blank lines and ``#`` comments are ignored.  A later rule for the same
parent shadows an earlier one (with a warning).

Child "symbols" are constituent labels for internal children and part of
speech tags for word children.
"""

import logging
from dataclasses import dataclass

from .errors import BadRuleSyntax, read_text

log = logging.getLogger(__name__)

DIRECTIONS = ("from-left", "from-right")
WILDCARD = "*"


@dataclass(frozen=True)
class HeadRule:
    parent: str
    direction: str
    priorities: tuple


# The wildcard rule of a table that has none: the rightmost child heads.
RIGHTMOST = HeadRule(WILDCARD, "from-right", ())


class HeadRuleTable:
    """Rule lookup; falls back to the wildcard rule, then to `RIGHTMOST`."""

    def __init__(self, rules=()):
        self.rules = {}
        for rule in rules:
            if rule.parent in self.rules:
                log.warning("duplicate head rule for %r; later rule wins", rule.parent)
            self.rules[rule.parent] = rule

    def rule_for(self, parent_label):
        rules = self.rules
        return rules.get(parent_label, rules.get(WILDCARD, RIGHTMOST))

    def head_child(self, parent_label, child_symbols):
        """Index of the head among `child_symbols` (labels or tags)."""
        if not child_symbols:
            raise ValueError("constituent with no children has no head")
        if len(child_symbols) == 1:
            return 0
        rule = self.rule_for(parent_label)
        order = range(len(child_symbols))
        if rule.direction == "from-right":
            order = range(len(child_symbols) - 1, -1, -1)
        for wanted in rule.priorities:
            for i in order:
                if child_symbols[i] == wanted:
                    return i
        return next(iter(order))


def parse_head_rules(text):
    rules = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise BadRuleSyntax(lineno, f"expected 'PARENT direction children...', got {line!r}")
        parent, direction, *children = parts
        if direction not in DIRECTIONS:
            raise BadRuleSyntax(lineno, f"bad direction {direction!r}, expected one of {DIRECTIONS}")
        rules.append(HeadRule(parent=parent, direction=direction, priorities=tuple(children)))
    return HeadRuleTable(rules)


def load_head_rules(path):
    return parse_head_rules(read_text(path))


def default_head_rules():
    """Empty table: every constituent is headed by its rightmost child."""
    return HeadRuleTable(())
