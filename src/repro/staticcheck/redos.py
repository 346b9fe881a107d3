"""FL006: ReDoS-hazard detection for regexes (DESIGN.md §9.3).

The filter-list linter analyzes ``/regex/``-style rules *before* they
ever reach an engine — one pathological rule there would stall every
URL classification it is a candidate for, which is exactly the hot path
the paper's pipeline lives on.

Detection is static and conservative, based on the parsed regex tree
(``re._parser``), looking for the classic exponential shapes:

* **nested unbounded quantifiers** — ``(a+)+``, ``(a*)*``, ``(a+)*``;
* **overlapping alternation under a quantifier** — ``(a|a)+``,
  ``(ab|a.)*`` where two branches can consume the same first
  character;
* **stacked large bounded repeats** — ``(a{1,N}){1,M}`` with
  ``N*M`` beyond a sanity bound.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

try:  # Python >= 3.11
    from re import _parser as _sre_parser  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - Python 3.10 fallback
    import sre_parse as _sre_parser  # type: ignore[no-redef]

__all__ = ["RedosHazard", "analyze_regex", "regex_rule_body"]

_MAXREPEAT = _sre_parser.MAXREPEAT
# A bounded repeat counts as "large" beyond this many iterations;
# two stacked large repeats give >= _LARGE_REPEAT**2 states.
_LARGE_REPEAT = 64


@dataclass(frozen=True, slots=True)
class RedosHazard:
    """Why a regex is considered a backtracking hazard."""

    reason: str
    snippet: str = ""

    def __str__(self) -> str:
        return f"{self.reason} ({self.snippet})" if self.snippet else self.reason


def regex_rule_body(pattern: str) -> str | None:
    """The inner regex of a ``/regex/``-style filter rule, or None.

    ABP treats a pattern enclosed in slashes as a raw regular
    expression.  Plain path fragments like ``/adserver/`` also look
    slash-enclosed, so only patterns whose body uses regex
    metacharacters beyond the ABP pattern language are classified as
    regex-style — the ambiguity is precisely why the linter exists.
    """
    if len(pattern) < 3 or not (pattern.startswith("/") and pattern.endswith("/")):
        return None
    body = pattern[1:-1]
    if re.search(r"[(){}\[\]+?\\]|\|", body):
        return body
    return None


# -- parsed-tree analysis ---------------------------------------------------


def _is_unbounded(op: object, arg: object) -> bool:
    if op not in (_sre_parser.MAX_REPEAT, _sre_parser.MIN_REPEAT):
        return False
    _min, _max, _body = arg  # type: ignore[misc]
    return _max is _MAXREPEAT or _max >= _LARGE_REPEAT


def _first_chars(items: list[Any]) -> tuple[set[int], bool]:
    """Approximate first-character set of a parsed sequence.

    Returns ``(chars, wildcard)`` where ``wildcard`` means "can start
    with anything" (``.``, a negated class, a category, ...).
    """
    for op, arg in items:
        if op is _sre_parser.LITERAL:
            return {arg}, False
        if op is _sre_parser.NOT_LITERAL:
            return set(), True
        if op is _sre_parser.ANY:
            return set(), True
        if op is _sre_parser.IN:
            chars: set[int] = set()
            for member_op, member_arg in arg:
                if member_op is _sre_parser.LITERAL:
                    chars.add(member_arg)
                elif member_op is _sre_parser.RANGE:
                    low, high = member_arg
                    chars.update(range(low, min(high, low + 128) + 1))
                else:  # NEGATE, CATEGORY: treat as wildcard
                    return set(), True
            return chars, False
        if op is _sre_parser.SUBPATTERN:
            return _first_chars(list(arg[3]))
        if op is _sre_parser.BRANCH:
            merged: set[int] = set()
            for branch in arg[1]:
                chars, wildcard = _first_chars(list(branch))
                if wildcard:
                    return set(), True
                merged |= chars
            return merged, False
        if op in (_sre_parser.MAX_REPEAT, _sre_parser.MIN_REPEAT):
            _min, _max, body = arg
            chars, wildcard = _first_chars(list(body))
            if _min > 0:
                return chars, wildcard
            continue  # optional: look past it
        if op is _sre_parser.AT:
            continue  # anchors consume nothing
        return set(), False  # GROUPREF etc: give up, assume disjoint
    return set(), False


def _min_width(items: list[Any]) -> int:
    """Minimum number of characters a parsed sequence must consume.

    Unknown node types count as width 1 so that only provably nullable
    bodies are reported (no false hazards from e.g. backreferences).
    """
    total = 0
    for op, arg in items:
        if op in (_sre_parser.MAX_REPEAT, _sre_parser.MIN_REPEAT):
            _min, _max, body = arg
            total += _min * _min_width(list(body))
        elif op is _sre_parser.SUBPATTERN:
            total += _min_width(list(arg[3]))
        elif op is _sre_parser.BRANCH:
            total += min(_min_width(list(branch)) for branch in arg[1])
        elif op in (_sre_parser.AT, _sre_parser.ASSERT, _sre_parser.ASSERT_NOT):
            continue  # zero-width by definition
        else:
            total += 1
    return total


def _contains_large_repeat(items: list[Any]) -> bool:
    """Does the sequence contain an unbounded or large bounded repeat?"""
    for op, arg in items:
        if op in (_sre_parser.MAX_REPEAT, _sre_parser.MIN_REPEAT):
            _min, _max, body = arg
            if _max is _MAXREPEAT or _max >= _LARGE_REPEAT:
                return True
            if _contains_large_repeat(list(body)):
                return True
        elif op is _sre_parser.SUBPATTERN:
            if _contains_large_repeat(list(arg[3])):
                return True
        elif op is _sre_parser.BRANCH:
            for branch in arg[1]:
                if _contains_large_repeat(list(branch)):
                    return True
    return False


def _walk(items: list[Any], in_repeat: bool) -> RedosHazard | None:
    for op, arg in items:
        if op in (_sre_parser.MAX_REPEAT, _sre_parser.MIN_REPEAT):
            _min, _max, body = arg
            body_items = list(body)
            large = _max is _MAXREPEAT or _max >= _LARGE_REPEAT
            if large and _contains_large_repeat(body_items):
                return RedosHazard(
                    "nested quantifiers",
                    "an unbounded repeat applies to a body that itself repeats",
                )
            if large and body_items and _min_width(body_items) == 0:
                # e.g. (a?b?)+ — every iteration may consume nothing,
                # so the number of ways to parse a mismatch explodes.
                return RedosHazard(
                    "nullable repeat body",
                    "an unbounded repeat whose body can match the empty string",
                )
            hazard = _walk(body_items, in_repeat or large)
            if hazard is not None:
                return hazard
        elif op is _sre_parser.SUBPATTERN:
            hazard = _walk(list(arg[3]), in_repeat)
            if hazard is not None:
                return hazard
        elif op is _sre_parser.BRANCH:
            branches = [list(branch) for branch in arg[1]]
            if in_repeat and len(branches) > 1:
                # The parser factors common branch prefixes, so the
                # classic (a|a)* arrives here as a(|) — two or more
                # epsilon branches under a repeat mean every iteration
                # has redundant parses: exponential path count.
                empty = sum(1 for branch in branches if not branch)
                if empty >= 2:
                    return RedosHazard(
                        "exponential alternation",
                        "ambiguous (identical) branches under a quantifier",
                    )
                seen: set[int] = set()
                saw_wildcard = False
                for branch in branches:
                    chars, wildcard = _first_chars(branch)
                    if wildcard:
                        if saw_wildcard or seen:
                            return RedosHazard(
                                "exponential alternation",
                                "overlapping branches under a quantifier",
                            )
                        saw_wildcard = True
                    elif chars & seen or (chars and saw_wildcard):
                        return RedosHazard(
                            "exponential alternation",
                            "overlapping branches under a quantifier",
                        )
                    else:
                        seen |= chars
            for branch in branches:
                hazard = _walk(branch, in_repeat)
                if hazard is not None:
                    return hazard
    return None


def analyze_regex(source: str) -> RedosHazard | None:
    """Statically analyze one regex source for backtracking hazards.

    Returns a :class:`RedosHazard` or None.  A source that does not
    even parse is reported as a hazard too — the caller must not hand
    it to ``re.compile`` on the hot path.
    """
    try:
        tree = _sre_parser.parse(source)
    except (re.error, ValueError, OverflowError) as exc:
        return RedosHazard("unparseable regex", str(exc))
    return _walk(list(tree), in_repeat=False)
