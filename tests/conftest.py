"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def traced() -> bool:
    """True under sys.settrace (coverage's tracer before Python 3.12, or a
    debugger) or a sys.monitoring coverage tool (3.12 and later).  A test
    with a time budget checks only its result then: the budgets assume
    untraced code."""
    monitoring = getattr(sys, "monitoring", None)
    return sys.gettrace() is not None or bool(
        monitoring and monitoring.get_tool(monitoring.COVERAGE_ID)
    )
