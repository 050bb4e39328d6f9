"""Head-rule parsing and head-child selection."""

import logging

import pytest

from dtparser.errors import BadRuleSyntax
from dtparser.headfinder import (HeadRule, HeadRuleTable, default_head_rules,
                                 load_head_rules, parse_head_rules)


def test_single_child_is_always_the_head():
    table = HeadRuleTable((HeadRule("X", "from-left", ("Z",)),))
    assert table.head_child("X", ["A"]) == 0
    assert table.head_child("UNKNOWN", ["A"]) == 0


def test_default_table_heads_rightmost():
    table = default_head_rules()
    assert table.head_child("ANY", ["A", "B", "C"]) == 2


def test_default_direction_from_left():
    """A `*` rule is the one way to set the direction of a constituent
    no other rule names."""
    table = parse_head_rules("* from-left\nS from-right\n")
    assert table.head_child("ANY", ["A", "B", "C"]) == 0
    assert table.head_child("S", ["A", "B", "C"]) == 2


def test_priority_list_wins_over_position():
    table = parse_head_rules("N from-right NN1\n")
    assert table.head_child("N", ["AT", "NN1"]) == 1
    assert table.head_child("N", ["NN1", "AT"]) == 0


def test_priorities_scan_in_rule_direction():
    left = parse_head_rules("X from-left B A\n")
    assert left.head_child("X", ["A", "B", "B"]) == 1
    right = parse_head_rules("X from-right B A\n")
    assert right.head_child("X", ["B", "A", "B"]) == 2


def test_unmatched_priorities_fall_back_to_direction():
    table = parse_head_rules("X from-left Z\n")
    assert table.head_child("X", ["A", "B"]) == 0
    table = parse_head_rules("X from-right Z\n")
    assert table.head_child("X", ["A", "B"]) == 1


def test_wildcard_rule_and_exact_override():
    table = parse_head_rules("* from-left\nV from-right VB\n")
    assert table.rule_for("ANY").parent == "*"
    assert table.head_child("ANY", ["A", "B"]) == 0
    assert table.head_child("V", ["VB", "N", "VB"]) == 2


def test_comments_and_blank_lines_ignored():
    table = parse_head_rules("# heads\n\nN from-right NN1  # noun\n")
    assert set(table.rules) == {"N"}
    assert table.rules["N"].priorities == ("NN1",)


def test_duplicate_rule_warns_and_later_wins(caplog):
    with caplog.at_level(logging.WARNING):
        table = parse_head_rules("N from-left A\nN from-right B\n")
    assert table.rules["N"].direction == "from-right"
    assert any("duplicate" in r.message for r in caplog.records)


def test_bad_rule_syntax():
    with pytest.raises(BadRuleSyntax) as err:
        parse_head_rules("N from-right A\nN\n")
    assert err.value.lineno == 2
    with pytest.raises(BadRuleSyntax):
        parse_head_rules("N sideways A\n")


def test_empty_rule_file_heads_rightmost(tmp_path):
    path = tmp_path / "heads"
    path.write_text("# nothing here\n")
    table = load_head_rules(path)
    assert table.head_child("Q", ["A", "B", "C"]) == 2


def test_no_children_is_an_error():
    with pytest.raises(ValueError):
        default_head_rules().head_child("X", [])
