"""Fixtures that more than one test module shares."""

import functools
import os

import pytest

from starcc.certify import RunConfig, certify_all


@pytest.fixture(scope="session")
def certified():
    """certified(width) -> certify_all's manifest at that max box width,
    truncated at r5 <= 10 on two worker processes (two CPUs on any
    machine), as perfbench/worker.py certifies its bundles at widths 0.02
    and 0.01.  Nothing is written; each width is certified once a session."""

    @functools.cache
    def at(width):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "cpu_count", lambda: 2)
            return certify_all(RunConfig(max_box_width=width, truncation=10.0, threads=2))

    return at
