"""Shared fixtures and Hypothesis profiles for the test suite.

Two Hypothesis profiles are pinned here so property runs are reproducible
where it matters:

* ``ci`` — derandomized (fixed seed) with no deadline, for CI: a red run
  is a real regression, never a flaky schedule or a slow runner;
* ``dev`` — the default locally: randomized exploration, no deadline (the
  engine-backed properties routinely outrun the 200 ms default).

Select with ``HYPOTHESIS_PROFILE=ci python -m pytest``.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.core.cost import ProcessedRowsCostModel

settings.register_profile(
    "ci",
    settings(
        derandomize=True,
        deadline=None,
        print_blob=True,
        suppress_health_check=[HealthCheck.too_slow],
    ),
)
settings.register_profile(
    "dev",
    settings(
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    ),
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
from repro.engine import Executor
from repro.workloads import (
    fig1_workflow,
    fig4_context,
    fig4_states,
    two_branch_scenario,
)


@pytest.fixture
def model():
    return ProcessedRowsCostModel()


@pytest.fixture
def fig1():
    """The Fig. 1 running-example scenario (fresh per test)."""
    return fig1_workflow()


@pytest.fixture
def fig1_executor(fig1):
    return Executor(context=fig1.context)


@pytest.fixture
def two_branch():
    """A compact two-branch scenario sized for exhaustive search."""
    return two_branch_scenario()


@pytest.fixture
def fig4():
    """The three Fig. 4 states plus the engine context they need."""
    return fig4_states(cardinality=8), fig4_context()


def _shift(workflow, activity, binary, *, forward):
    """HS's ShiftFrw (``forward=True``) or ShiftBkw on ``workflow``.

    Returns ``(shifted, recorded)``: the shifted search state (``None``
    when the shift is blocked) and the states the shift recorded as
    visited, in order.
    """
    from repro.core.search import SearchBudget, SearchState
    from repro.core.search.heuristic import HSConfig, _Session, _shift_state

    recorded = []

    class RecordingSession(_Session):
        def record(self, state):
            recorded.append(state)
            return super().record(state)

    model = ProcessedRowsCostModel()
    session = RecordingSession(model, HSConfig(), SearchBudget())
    state = SearchState.initial(workflow, model)
    shifted = _shift_state(state, activity, binary, session, forward=forward)
    return shifted, recorded


@pytest.fixture
def shift():
    """The HS shift walk (see :func:`_shift`)."""
    return _shift
