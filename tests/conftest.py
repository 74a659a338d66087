import os
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hetimpute import ColumnKind, Crisp, DataMatrix, FuzzyTFN, Interval, fixture


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


def seeded_table(n_rows: int, n_cols: int, seed: int, gap_rate: float) -> DataMatrix:
    """Columns of crisp, interval and fuzzy cells in turn, components uniform
    in [0, 1), each cell missing with probability ``gap_rate``."""
    rng = random.Random(seed)
    kinds = [(ColumnKind.CRISP, Crisp, 1), (ColumnKind.INTERVAL, Interval, 2),
             (ColumnKind.FUZZY, FuzzyTFN, 3)]
    kinds = [kinds[l % 3] for l in range(n_cols)]
    rows = [
        tuple(
            None if rng.random() < gap_rate
            else cls(*sorted(rng.random() for _ in range(arity)))
            for _, cls, arity in kinds
        )
        for _ in range(n_rows)
    ]
    return DataMatrix(tuple(kind for kind, _, _ in kinds), tuple(rows))


@pytest.fixture(scope="session")
def dense_matrix():
    """200 rows of 6 columns, about 15% of cells missing: enough target rows
    that selection forks at the default thresholds."""
    return seeded_table(200, 6, seed=19, gap_rate=0.15)


def patch_forks(mp: pytest.MonkeyPatch) -> list:
    """Give this process two CPUs and count its forks: returns the list that
    collects the pid of every worker forked."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    mp.setattr(os, "fork", counted)
    mp.setattr(os, "sched_getaffinity", lambda _: {0, 1}, raising=False)
    return pids


def logged_forks(mp: pytest.MonkeyPatch, log) -> None:
    """Give this process two CPUs, and append the pid of each process that
    forks to ``log``, a file, so a worker's forks are seen too."""
    fork = os.fork

    def logged():
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{os.getpid()}\n")
        return fork()

    mp.setattr(os, "fork", logged)
    mp.setattr(os, "sched_getaffinity", lambda _: {0, 1}, raising=False)


@pytest.fixture
def forks(monkeypatch):
    """The pids forked while the test runs, on two CPUs."""
    return patch_forks(monkeypatch)


@pytest.fixture
def no_fork(monkeypatch):
    """Two CPUs, and a fork fails the test."""

    def refused():
        raise AssertionError("selection forked")

    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 1}, raising=False)
