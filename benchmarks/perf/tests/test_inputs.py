from collections import Counter

from inputs import PADDING_SHAPES, padding_rules, padding_shape

from repro.filterlist.lists import FilterList


def test_padding_rules_are_a_function_of_the_seed():
    assert padding_rules(500, 7) == padding_rules(500, 7)
    assert padding_rules(500, 7) != padding_rules(500, 8)
    assert padding_rules(500, 7)[:100] == padding_rules(100, 7)


def test_padding_rules_follow_easylists_shape_mix():
    rules = padding_rules(20_000, 3)
    shares = Counter(map(padding_shape, rules))
    lower = 0.0
    for shape, upper in PADDING_SHAPES:
        assert abs(shares[shape] / len(rules) - (upper - lower)) < 0.015, shape
        lower = upper
    anchors = [rule for rule in rules if padding_shape(rule) == "host_anchor"]
    third_party = sum(rule.endswith("$third-party") for rule in anchors)
    assert abs(third_party / len(anchors) - 0.5) < 0.03


def test_every_padding_rule_parses_as_a_filter():
    rules = padding_rules(2_000, 11)
    parsed = FilterList.from_text("\n".join(rules) + "\n", "padding", lint="refuse")
    assert len(parsed.filters) == len(rules)
    assert sum(f.text.startswith("@@") for f in parsed.filters) == sum(r.startswith("@@") for r in rules)
