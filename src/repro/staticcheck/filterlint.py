"""Filter-list linter: FL001–FL008 (``repro lint``, DESIGN.md §9.2).

The paper's entire classification (Fig 1) is only as good as the filter
lists feeding it — a dead, shadowed or pathological rule silently skews
every downstream table.  This module turns the rule semantics the
engine already implements into *diagnostics*:

========  ==========================================================
FL001     unparseable rule (syntax, bad options in strict mode)
FL002     rule shadowed by a broader rule (containment + options)
FL003     dead rule: option combination unsatisfiable
FL004     redundant duplicate after pattern/option normalization
FL005     exception rule that overlaps no blocking rule in any list
FL006     ReDoS hazard in a ``/regex/``-style rule
FL007     unknown or misused ``$option``
FL008     ``domain=`` lists the same domain included and excluded
========  ==========================================================

Cross-rule checks (FL002/FL004/FL005) run over *all* loaded lists at
once — that is how ABP runs them, one shared matcher — so shadowing
and overlap across EasyList / EasyPrivacy / acceptable-ads are seen.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.filterlist.engine import FilterEngine, RequestContext, tokenize_url
from repro.filterlist.filter import ElementHidingRule, Filter, FilterKind
from repro.filterlist.options import ContentType, OptionParseError
from repro.staticcheck.containment import filter_contains, normalize_pattern
from repro.staticcheck.diagnostics import Diagnostic
from repro.staticcheck.redos import analyze_regex, regex_rule_body

__all__ = ["LintedRule", "lint_texts", "lint_paths", "rule_local_diagnostics"]

# Candidate cap per rule for the shadowing scan: keeps the pairwise
# verification bounded on adversarial inputs; hitting the cap only
# costs recall, never precision.
_MAX_SHADOW_CANDIDATES = 256
_TOKEN_RE = re.compile(r"[a-z0-9%]{3,}")


@dataclass(slots=True)
class LintedRule:
    """One request-filter rule with its lint context."""

    list_name: str
    line_no: int
    text: str
    filter: Filter
    diagnosed: set[str] = field(default_factory=set)


def _diag(
    code: str, message: str, *, rule: LintedRule | None = None, source: str = "", line: int = 0, subject: str = ""
) -> Diagnostic:
    if rule is not None:
        source, line, subject = rule.list_name, rule.line_no, rule.text
        rule.diagnosed.add(code)
    return Diagnostic.build(code, message, source=source, line=line, subject=subject)


# -- rule-local checks (also used by lint-on-load) --------------------------


def rule_local_diagnostics(
    filter_: Filter, *, source: str = "", line: int = 0
) -> list[Diagnostic]:
    """FL003/FL006/FL007/FL008 for one parsed rule.

    These need no cross-rule context, so :mod:`repro.filterlist.lists`
    runs exactly this set when lint-on-load is enabled.
    """
    findings: list[Diagnostic] = []
    options = filter_.options

    for option in options.unknown_options:
        findings.append(
            Diagnostic.build(
                "FL007",
                f"unknown or misused $option {option!r}",
                source=source,
                line=line,
                subject=filter_.text,
            )
        )

    for conflict in options.conflicts:
        findings.append(
            Diagnostic.build(
                "FL003",
                f"dead rule: {conflict}",
                source=source,
                line=line,
                subject=filter_.text,
            )
        )
    if (
        not options.conflicts
        and options.type_mask == ContentType(0)
        and not filter_.is_exception
    ):
        findings.append(
            Diagnostic.build(
                "FL003",
                "dead rule: content-type mask is empty",
                source=source,
                line=line,
                subject=filter_.text,
            )
        )

    clashing = options.domains_include & options.domains_exclude
    if clashing:
        findings.append(
            Diagnostic.build(
                "FL008",
                "domain= includes and excludes the same domain(s): "
                + ", ".join(sorted(clashing)),
                source=source,
                line=line,
                subject=filter_.text,
            )
        )

    body = regex_rule_body(filter_.pattern)
    if body is not None:
        hazard = analyze_regex(body)
        if hazard is not None and hazard.reason == "unparseable regex":
            findings.append(
                Diagnostic.build(
                    "FL001",
                    f"unparseable rule: regex-style pattern does not compile "
                    f"({hazard.snippet})",
                    source=source,
                    line=line,
                    subject=filter_.text,
                )
            )
        elif hazard is not None:
            findings.append(
                Diagnostic.build(
                    "FL006",
                    f"ReDoS hazard: {hazard}",
                    source=source,
                    line=line,
                    subject=filter_.text,
                )
            )
    return findings


# -- cross-rule checks ------------------------------------------------------


def _normalized_key(filter_: Filter) -> tuple[object, ...]:
    """FL004 identity: canonical pattern + canonical option set."""
    options = filter_.options
    return (
        filter_.kind.value,
        normalize_pattern(filter_.pattern).lower(),
        int(options.type_mask),
        frozenset(options.domains_include),
        frozenset(options.domains_exclude),
        options.third_party,
        options.match_case,
        options.elemhide_exception,
        options.generic_hide,
    )


def _find_duplicates(rules: list[LintedRule]) -> list[Diagnostic]:
    seen: dict[tuple[object, ...], LintedRule] = {}
    findings = []
    for rule in rules:
        key = _normalized_key(rule.filter)
        first = seen.get(key)
        if first is None:
            seen[key] = rule
        else:
            findings.append(
                _diag(
                    "FL004",
                    "redundant duplicate of "
                    f"{first.list_name}:{first.line_no} [{first.text}] "
                    "after normalization",
                    rule=rule,
                )
            )
    return findings


def _pattern_tokens(pattern: str) -> list[str]:
    return _TOKEN_RE.findall(normalize_pattern(pattern).lower())


def _find_shadowed(rules: list[LintedRule]) -> list[Diagnostic]:
    """FL002 via token-indexed candidate generation + containment proof.

    A broader (containing) unanchored rule's literal segments all occur
    inside the narrower rule's pattern text, so every token of the
    broader rule is a token of the narrower one — indexing each rule
    under its rarest token and probing with *all* tokens of the
    narrower rule finds every candidate.  Token-less rules (patterns
    with no >=3-char literal run) are compared against everything.
    """
    by_kind: dict[FilterKind, list[LintedRule]] = {}
    for rule in rules:
        by_kind.setdefault(rule.filter.kind, []).append(rule)

    findings: list[Diagnostic] = []
    for group in by_kind.values():
        token_counts: dict[str, int] = {}
        rule_tokens: list[list[str]] = []
        for rule in group:
            tokens = _pattern_tokens(rule.filter.pattern)
            rule_tokens.append(tokens)
            for token in set(tokens):
                token_counts[token] = token_counts.get(token, 0) + 1

        index: dict[str, list[int]] = {}
        tokenless: list[int] = []
        for position, (rule, tokens) in enumerate(zip(group, rule_tokens)):
            if not tokens:
                tokenless.append(position)
                continue
            rarest = min(set(tokens), key=lambda t: (token_counts[t], t))
            index.setdefault(rarest, []).append(position)

        for position, (rule, tokens) in enumerate(zip(group, rule_tokens)):
            if "FL004" in rule.diagnosed:
                continue  # already reported as an exact duplicate
            candidates: list[int] = []
            seen: set[int] = set(tokenless)
            candidates.extend(tokenless)
            for token in set(tokens):
                for other in index.get(token, ()):
                    if other not in seen:
                        seen.add(other)
                        candidates.append(other)
                if len(candidates) > _MAX_SHADOW_CANDIDATES:
                    break
            for other in candidates[:_MAX_SHADOW_CANDIDATES]:
                if other == position:
                    continue
                broader = group[other]
                if "FL004" in broader.diagnosed or "FL002" in broader.diagnosed:
                    continue
                if len(broader.filter.pattern) > len(rule.filter.pattern):
                    continue  # containment needs a no-longer pattern
                if filter_contains(broader.filter, rule.filter):
                    findings.append(
                        _diag(
                            "FL002",
                            "shadowed by broader rule "
                            f"{broader.list_name}:{broader.line_no} "
                            f"[{broader.text}]: every request this rule "
                            "matches is already matched there",
                            rule=rule,
                        )
                    )
                    break
    return findings


def _witness_urls(filter_: Filter) -> list[str]:
    """Concrete URLs the exception's own pattern matches."""
    pattern = normalize_pattern(filter_.pattern)
    witnesses = []
    for filler in ("", "x"):
        text = pattern
        if text.startswith("||"):
            text = "https://" + text[2:]
        text = text.lstrip("|").rstrip("|")
        text = text.replace("*", filler).replace("^", "/")
        if "://" not in text:
            text = "https://witness.invalid/" + text.lstrip("/")
        witnesses.append(text)
    return witnesses


def _find_useless_exceptions(rules: list[LintedRule]) -> list[Diagnostic]:
    """FL005: exception rules that can whitelist nothing.

    Three progressively cheaper "is it useful?" tests; any hit clears
    the rule.  Only an exception that fails all three is reported, so
    false alarms need the rule to be textually unrelated to every
    blocking rule loaded.
    """
    blocking = [rule for rule in rules if not rule.filter.is_exception]
    exceptions = [rule for rule in rules if rule.filter.is_exception]
    if not exceptions:
        return []

    engine = FilterEngine()
    engine.add_filters([rule.filter for rule in blocking], list_name="lint")
    blocking_tokens: set[str] = set()
    for rule in blocking:
        blocking_tokens.update(_pattern_tokens(rule.filter.pattern))

    findings = []
    for rule in exceptions:
        options = rule.filter.options
        if options.is_document_exception or options.elemhide_exception or options.generic_hide:
            continue  # page-level/cosmetic exceptions need no blocking overlap
        if "FL003" in rule.diagnosed or "FL004" in rule.diagnosed:
            continue

        # 1. shared tokens make overlap plausible — benefit of the doubt.
        # 2. a witness URL built from the exception pattern gets blocked.
        tokens = set(_pattern_tokens(rule.filter.pattern))
        if tokens & blocking_tokens:
            continue
        page_host = next(iter(options.domains_include), "witness-page.invalid")
        context = RequestContext(
            content_type=_some_type(options.type_mask),
            page_url=f"https://{page_host}/",
        )
        if any(
            engine.match(url, context).is_blocked
            for url in _witness_urls(rule.filter)
        ):
            continue
        findings.append(
            _diag(
                "FL005",
                "exception whitelists nothing: no blocking rule in any "
                "loaded list overlaps this pattern",
                rule=rule,
            )
        )
    return findings


def _some_type(mask: ContentType) -> ContentType:
    for member in ContentType:
        if member & mask:
            return member
    return ContentType.SCRIPT


# -- entry points -----------------------------------------------------------


def lint_texts(named_texts: list[tuple[str, str]]) -> list[Diagnostic]:
    """Lint already-loaded list texts: ``[(name, file content), ...]``."""
    findings: list[Diagnostic] = []
    rules: list[LintedRule] = []

    for name, text in named_texts:
        for line_no, raw_line in enumerate(text.splitlines(), start=1):
            line = raw_line.strip()
            if not line or line.startswith("!") or (
                line.startswith("[") and line.endswith("]")
            ):
                continue
            if "##" in line or "#@#" in line:
                try:
                    hiding = ElementHidingRule.parse(line)
                    if not hiding.selector:
                        raise ValueError("element-hiding rule has an empty selector")
                except ValueError as exc:
                    findings.append(
                        _diag("FL001", f"unparseable rule: {exc}",
                              source=name, line=line_no, subject=line)
                    )
                continue
            try:
                filter_ = Filter.parse(line, list_name=name, lenient=True)
            except (OptionParseError, ValueError) as exc:
                findings.append(
                    _diag("FL001", f"unparseable rule: {exc}",
                          source=name, line=line_no, subject=line)
                )
                continue
            rule = LintedRule(list_name=name, line_no=line_no, text=line, filter=filter_)
            local = rule_local_diagnostics(filter_, source=name, line=line_no)
            for diagnostic in local:
                rule.diagnosed.add(diagnostic.code)
            findings.extend(local)
            rules.append(rule)

    findings.extend(_find_duplicates(rules))
    findings.extend(_find_shadowed(rules))
    findings.extend(_find_useless_exceptions(rules))
    return findings


def lint_paths(paths: list[str]) -> list[Diagnostic]:
    """Lint filter-list files from disk (one shared cross-rule pass)."""
    named_texts = []
    for path in paths:
        with open(path, encoding="utf-8", errors="replace") as stream:
            named_texts.append((path, stream.read()))
    return lint_texts(named_texts)
