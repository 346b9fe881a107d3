"""Static analysis of filter lists (DESIGN.md §9).

``repro lint <list files>`` reports rule-level diagnostics FL001–FL008
over Adblock-Plus-style filter lists (:mod:`.filterlint`), built on
pattern containment (:mod:`.containment`) and static ReDoS analysis
(:mod:`.redos`).

Findings are :class:`~repro.staticcheck.diagnostics.Diagnostic`
objects with stable codes, rendered as text or JSON and baselined via
:mod:`.baseline`.
"""

from repro.staticcheck.baseline import apply_baseline, load_baseline, write_baseline
from repro.staticcheck.containment import (
    filter_contains,
    normalize_pattern,
    options_contain,
    pattern_contains,
)
from repro.staticcheck.diagnostics import (
    CODES,
    Diagnostic,
    Severity,
    render_json,
    render_text,
    summarize,
)
from repro.staticcheck.filterlint import (
    lint_paths,
    lint_texts,
    rule_local_diagnostics,
)
from repro.staticcheck.redos import RedosHazard, analyze_regex

__all__ = [
    "CODES",
    "Diagnostic",
    "Severity",
    "RedosHazard",
    "analyze_regex",
    "apply_baseline",
    "load_baseline",
    "write_baseline",
    "filter_contains",
    "normalize_pattern",
    "options_contain",
    "pattern_contains",
    "lint_paths",
    "lint_texts",
    "rule_local_diagnostics",
    "render_json",
    "render_text",
    "summarize",
]
