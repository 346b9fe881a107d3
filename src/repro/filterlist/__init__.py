"""AdBlock-Plus-compatible filter engine substrate.

This package replaces the paper's ``libadblockplus`` dependency with a
from-scratch implementation of the documented filter syntax and the
ABP matching semantics, plus deterministic generators for synthetic
EasyList / EasyPrivacy / acceptable-ads lists targeting the synthetic
web ecosystem.
"""

from repro.filterlist.easylist import (
    GENERIC_AD_PATTERNS,
    GENERIC_TRACKER_PATTERNS,
    ListSynthesisSpec,
    build_lists,
    synthesize_acceptable_ads,
    synthesize_easylist,
    synthesize_easyprivacy,
    synthesize_language_derivative,
)
from repro.filterlist.actrie import ACTrieEngine, AhoCorasick
from repro.filterlist.cache import (
    CacheStats,
    CachingEngine,
    DecisionCache,
    EngineFingerprintMismatch,
)
from repro.filterlist.engine import (
    Classification,
    Decision,
    FilterEngine,
    MatchResult,
    RequestContext,
)
from repro.filterlist.filter import ElementHidingRule, Filter, FilterKind, compile_pattern
from repro.filterlist.lists import (
    ACCEPTABLE_ADS,
    DEFAULT_EXPIRES,
    EASYLIST,
    EASYPRIVACY,
    FilterList,
    Subscription,
    SubscriptionSet,
)
from repro.filterlist.options import ContentType, FilterOptions, OptionParseError, parse_options
from repro.filterlist.evolution import ChurnRates, evolve, staleness_series
from repro.filterlist.stats import ListStats, compare_lists, list_stats
from repro.filterlist.parser import ParsedList, parse_expires, parse_list_text
from repro.filterlist.snapshot import (
    LoadedSnapshot,
    SnapshotCorrupt,
    SnapshotError,
    SnapshotFingerprintMismatch,
    SnapshotInfo,
    SnapshotVersionError,
    inspect_snapshot,
    load_snapshot,
    write_snapshot,
)

__all__ = [
    "ACTrieEngine",
    "AhoCorasick",
    "CacheStats",
    "CachingEngine",
    "DecisionCache",
    "EngineFingerprintMismatch",
    "LoadedSnapshot",
    "SnapshotCorrupt",
    "SnapshotError",
    "SnapshotFingerprintMismatch",
    "SnapshotInfo",
    "SnapshotVersionError",
    "inspect_snapshot",
    "load_snapshot",
    "write_snapshot",
    "ChurnRates",
    "evolve",
    "staleness_series",
    "ListStats",
    "compare_lists",
    "list_stats",
    "GENERIC_AD_PATTERNS",
    "GENERIC_TRACKER_PATTERNS",
    "ListSynthesisSpec",
    "build_lists",
    "synthesize_easylist",
    "synthesize_easyprivacy",
    "synthesize_acceptable_ads",
    "synthesize_language_derivative",
    "Classification",
    "Decision",
    "FilterEngine",
    "MatchResult",
    "RequestContext",
    "ElementHidingRule",
    "Filter",
    "FilterKind",
    "compile_pattern",
    "ACCEPTABLE_ADS",
    "DEFAULT_EXPIRES",
    "EASYLIST",
    "EASYPRIVACY",
    "FilterList",
    "Subscription",
    "SubscriptionSet",
    "ContentType",
    "FilterOptions",
    "OptionParseError",
    "parse_options",
    "ParsedList",
    "parse_expires",
    "parse_list_text",
]
