"""Shared fixtures: one small ecosystem/trace reused across the suite.

Generation is deterministic, so session-scoped fixtures are safe; the
trace fixtures are deliberately small to keep the suite fast while
still exercising every code path (ads, trackers, acceptable ads,
redirects, HTTPS, list updates, non-browser devices).
"""

from __future__ import annotations

import asyncio
import gc
import logging
import random
import warnings

import pytest

from repro.browser.crawler import Crawler
from repro.core import AdClassificationPipeline
from repro.filterlist import ACTrieEngine, build_lists
from repro.robustness.runstate import RunSink
from repro.trace import RBNTraceGenerator, rbn2_config
from repro.web import Ecosystem, EcosystemConfig


class RowCollector(RunSink):
    """The sink library-level pool tests hand to ``ParallelRun``: keeps
    the rendered classification rows by index instead of in a file."""

    def __init__(self) -> None:
        self._rows: dict[int, str] = {}

    def consume_row(self, index: int, row: str, is_ad: bool, is_whitelisted: bool) -> None:
        # Late rows arrive after later ones; a replayed row repeats itself.
        assert self._rows.setdefault(index, row) == row

    @property
    def rows(self) -> list[str]:
        """The rows in index order, up to the first index without one
        (a degraded pool's late rows from the lost shard never come)."""
        rows: list[str] = []
        while len(rows) in self._rows:
            rows.append(self._rows[len(rows)])
        return rows


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


@pytest.fixture()
def asyncio_debug(monkeypatch, caplog):
    """Every ``asyncio.run`` in the test runs in debug mode; a callback
    that holds the loop over 0.25 s, any warning or error the
    ``asyncio`` logger reports, or a coroutine never awaited fails it."""

    def run(main, *, debug=None):
        with asyncio.Runner(debug=True) as runner:
            runner.get_loop().slow_callback_duration = 0.25
            return runner.run(main)

    monkeypatch.setattr(asyncio, "run", run)
    caplog.set_level(logging.WARNING, logger="asyncio")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        yield
        gc.collect()
    problems = [
        record.getMessage()
        for record in caplog.get_records("call")
        if record.name == "asyncio" and record.levelno >= logging.WARNING
    ]
    problems += [str(w.message) for w in caught if "never awaited" in str(w.message)]
    assert not problems, problems


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
