import random
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


@pytest.fixture(scope="session")
def tall_text():
    """A typed-CSV document of 3000 rows of crisp, interval and fuzzy cells
    drawn from a fixed seed: large enough that copies of it show in memory."""
    rng = random.Random(0)

    def cells():
        a, b, c = sorted(rng.random() for _ in range(3))
        return [repr(a), f"[{a!r};{b!r}]", f"({a!r};{b!r};{c!r})"]

    lines = ["a:crisp,b:interval,c:fuzzy,d:crisp,e:interval,f:fuzzy"]
    lines += [",".join(cells() + cells()) for _ in range(3000)]
    return "\n".join(lines) + "\n"
