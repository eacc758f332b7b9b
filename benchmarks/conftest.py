"""The fixture the benchmark scripts share when run through pytest.

The paper's tables and figures are not benchmarks: their numbers are the
rows of ``tests/test_paper_ledger.py``.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def print_header(request):
    """Print a banner naming the artifact a benchmark reproduces."""

    def _print(title: str) -> None:
        print()
        print("=" * 78)
        print(title)
        print("=" * 78)

    return _print
