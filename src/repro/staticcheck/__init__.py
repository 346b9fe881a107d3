"""Static-analysis layer: filter-list linting + codebase gate.

Two targets behind one diagnostic model (DESIGN.md §9):

* ``repro lint <list files>`` — rule-level diagnostics FL001–FL008
  over Adblock-Plus-style filter lists (:mod:`.filterlint`), built on
  pattern containment (:mod:`.containment`) and static ReDoS analysis
  (:mod:`.redos`);
* ``repro lint --self`` — AST-based repo-invariant checks RC001–RC012
  over ``src/repro/``: per-file invariants (:mod:`.codelint`), a
  project call graph with async-context propagation (:mod:`.callgraph`)
  feeding the flow-sensitive concurrency checks (:mod:`.asynccheck`),
  and cross-file contract checks — worker wire protocol, exit-code
  registry/README, metric key schema (:mod:`.protocol`).

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
from repro.staticcheck.codelint import lint_file as lint_source_file
from repro.staticcheck.codelint import lint_package
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
    "lint_package",
    "lint_source_file",
    "rule_local_diagnostics",
    "render_json",
    "render_text",
    "summarize",
]
