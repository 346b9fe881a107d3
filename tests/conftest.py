"""Shared fixtures: one small ecosystem/trace reused across the suite.

Generation is deterministic, so session-scoped fixtures are safe; the
trace fixtures are deliberately small to keep the suite fast while
still exercising every code path (ads, trackers, acceptable ads,
redirects, HTTPS, list updates, non-browser devices).
"""

from __future__ import annotations

import random

import pytest

from repro.browser.crawler import Crawler
from repro.core import AdClassificationPipeline
from repro.filterlist import ACTrieEngine, build_lists
from repro.robustness.runstate import RunSink
from repro.trace import RBNTraceGenerator, rbn2_config
from repro.web import Ecosystem, EcosystemConfig


class RowCollector(RunSink):
    """The sink library-level pool tests hand to ``ParallelRun``: keeps
    the rendered classification rows in a list instead of a file."""

    def __init__(self) -> None:
        self.rows: list[str] = []

    def consume_row(self, row: str, is_ad: bool, is_whitelisted: bool) -> None:
        self.rows.append(row)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate tests/golden/ expected outputs (never the trace)",
    )


@pytest.fixture()
def forbid_engine_compile(monkeypatch):
    """Call the fixture's value to make any later engine compile fail
    the test: requests against an engine built for serving must find it
    compiled already."""

    def refuse(self):
        raise AssertionError("a request paid for the engine compile")

    return lambda: monkeypatch.setattr(ACTrieEngine, "_compile", refuse)


@pytest.fixture(scope="session")
def ecosystem() -> Ecosystem:
    return Ecosystem.generate(EcosystemConfig(n_publishers=120, seed=99))


@pytest.fixture(scope="session")
def lists(ecosystem):
    return build_lists(ecosystem.list_spec())


@pytest.fixture(scope="session")
def rng() -> random.Random:
    return random.Random(12345)


@pytest.fixture(scope="session")
def rbn_generator(ecosystem, lists) -> RBNTraceGenerator:
    config = rbn2_config(scale=0.0)
    config.population.n_households = 30
    config.duration_s = 6 * 3600.0
    return RBNTraceGenerator(config, ecosystem=ecosystem, lists=lists)


@pytest.fixture(scope="session")
def rbn_trace(rbn_generator):
    return rbn_generator.generate()


@pytest.fixture(scope="session")
def pipeline(lists) -> AdClassificationPipeline:
    return AdClassificationPipeline(lists)


@pytest.fixture(scope="session")
def classified(pipeline, rbn_trace):
    return pipeline.process(rbn_trace.http)


@pytest.fixture(scope="session")
def crawl_results(ecosystem, lists):
    crawler = Crawler(ecosystem, lists, seed=5)
    return crawler.crawl(n_sites=40)
