"""Static-analysis benchmarks (DESIGN.md §9).

The acceptance bar: linting a 50k-rule list finishes in interactive
time — the cross-rule passes (FL002/FL004/FL005) must stay near-linear
via the token index, not quadratic.
"""

from __future__ import annotations

import random

import pytest

from repro.staticcheck import lint_texts

N_RULES = 50_000
_WORDS = (
    "ads", "banner", "track", "pixel", "metric", "click", "pop",
    "sponsor", "promo", "beacon", "count", "stat", "tag", "sync",
)
_TLDS = ("example", "test", "invalid")
_OPTIONS = ("", "$script", "$image", "$third-party", "$script,third-party")


def _synthetic_rules(n: int, seed: int = 20151028) -> list[str]:
    """An EasyList-shaped corpus: mostly unique, some near-collisions."""
    rng = random.Random(seed)
    rules = []
    for i in range(n):
        word = rng.choice(_WORDS)
        host = f"{word}{i % 997}.{rng.choice(_WORDS)}.{rng.choice(_TLDS)}"
        shape = rng.randrange(5)
        if shape == 0:
            rules.append(f"||{host}^{rng.choice(_OPTIONS)}")
        elif shape == 1:
            rules.append(f"||{host}/{rng.choice(_WORDS)}/{rng.choice(_OPTIONS)}")
        elif shape == 2:
            rules.append(f"/{word}{i % 89}/*{rng.choice(_WORDS)}.gif")
        elif shape == 3:
            rules.append(f"@@||{host}/allowed^{rng.choice(_OPTIONS)}")
        else:
            rules.append(f"|http://{host}/{rng.choice(_WORDS)}")
    return rules


@pytest.fixture(scope="module")
def rule_corpus():
    return _synthetic_rules(N_RULES)


def test_lint_50k_rules(benchmark, rule_corpus, results_dir):
    text = "\n".join(rule_corpus) + "\n"

    def run():
        return lint_texts([("bench", text)])

    findings = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    stats = benchmark.stats.stats
    rules_per_s = N_RULES / stats.mean
    from conftest import write_result

    write_result(
        results_dir,
        "bench_lint_throughput.txt",
        f"linted {N_RULES} rules in {stats.mean:.2f}s "
        f"({rules_per_s:,.0f} rules/s), {len(findings)} findings\n",
    )
    # Interactive bar: a full EasyList-scale lint stays under a minute.
    assert stats.mean < 60.0
    assert rules_per_s > 1_000
