"""The settings table: every Config is checked against it, however made."""

import math

import pytest

from dtparser.config import Config, check
from dtparser.errors import BadSetting


def test_the_defaults_and_the_benchmark_settings_are_accepted():
    for overrides in ({}, {"cluster_window": 64},
                      {"min_events": 64, "max_depth": 4, "cluster_window": 64},
                      {"unk_threshold": 1, "min_events": 2,
                       "cluster_window": 64}):
        Config(**overrides)


@pytest.mark.parametrize("key, value, domain", [
    ("max_hypotheses", 0, "an int >= 1"),
    ("max_length", True, "an int >= 1"),
    ("seed", 1.0, "an int"),
    ("min_gain", math.nan, "a float >= 0"),
    ("lambda_max", 1, "a float in (0, 1)"),
    ("word_bits", 64, "an int in [1, 63]"),
    ("include_root", 1, "a bool"),
    ("format", "xml", "a str in {underscore, penn}"),
])
def test_a_value_outside_its_domain_is_refused_however_it_is_set(
        key, value, domain):
    message = f"setting {key}={value!r} is not {domain}"
    for make in (lambda: Config(**{key: value}),
                 lambda: Config().replace(**{key: value}),
                 lambda: check(key, value)):
        with pytest.raises(BadSetting) as caught:
            make()
        assert str(caught.value) == message


def test_an_int_will_do_for_a_float():
    assert Config(min_gain=0, em_tolerance=1).min_gain == 0
