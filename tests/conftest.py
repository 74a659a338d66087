import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hetimpute import fixture


@pytest.fixture
def case1():
    return fixture("case1")


@pytest.fixture
def case1_masked(case1):
    """case1 with its bottom-right fuzzy cell removed (the worked example)."""
    return case1.with_cell(2, 2, None)
