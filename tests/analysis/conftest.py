"""Shared fixtures for the analysis tests."""

import pytest

from repro.analysis.engine import analyze_index, package_index


@pytest.fixture(scope="session")
def package_analysis():
    """``(findings, inventory)`` of the shipped package, analysed once
    per test session (a whole-package pass takes several seconds)."""
    return analyze_index(package_index())
