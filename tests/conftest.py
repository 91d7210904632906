"""Shared fixtures: one generated program, the frozen seed-1 corpus, and
the caller's collector state.

Session scope keeps the suite fast; every consumer treats these as
read-only. Tests that mutate programs deep-copy first.
"""

from __future__ import annotations

import gc

import pytest

from binprov.buildoracle import (
    ConfigAssignment,
    SimulatedToolchain,
    all_option_specs,
    build_unoptimized,
)
from binprov.corpusgen import generate_case, generate_corpus


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Run the test with the caller's cyclic collector on, then off; the
    state from before the test is restored afterwards."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


@pytest.fixture(scope="session")
def case0():
    return generate_case(1, 0)


@pytest.fixture(scope="session")
def seed_config0(case0):
    return ConfigAssignment(macros=frozenset(), units=case0.base_units)


@pytest.fixture(scope="session")
def base0(case0, seed_config0):
    return build_unoptimized(case0.tree, seed_config0, name=case0.name)


@pytest.fixture(scope="session")
def backend0(case0):
    return SimulatedToolchain(case0.tree, base_name=case0.name)


@pytest.fixture(scope="session")
def specs():
    return all_option_specs()


@pytest.fixture(scope="session")
def corpus21():
    return generate_corpus(seed=1, size=21)


@pytest.fixture
def criterion_line(request):
    """Record a one-line verdict that prints in the terminal summary even
    though pytest captures stdout during the test itself."""

    def record(line: str) -> None:
        request.config._criterion_lines = getattr(
            request.config, "_criterion_lines", []
        )
        request.config._criterion_lines.append(line)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if not lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in sorted(lines):
        terminalreporter.write_line(line)
