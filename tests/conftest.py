import _thread
import os
import random
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hetimpute import ColumnKind, Crisp, DataMatrix, FuzzyTFN, Interval, core, fixture


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
    """200 rows of 6 columns, about 15% of cells missing."""
    return seeded_table(200, 6, seed=19, gap_rate=0.15)


@pytest.fixture
def compiles(monkeypatch):
    """Empty ``core._compiled``'s cache, and log each source it compiles while the
    test runs. Returns the list of those sources, in order."""
    sources = []

    def logged(source, namespace):
        sources.append(source)
        exec(source, namespace)

    core._compiled.cache_clear()
    monkeypatch.setattr(core, "exec", logged, raising=False)
    return sources


def refuse_other_processes(mp: pytest.MonkeyPatch) -> None:
    """Make every call that would start a process or a thread, open a pipe, send a
    signal, write to a file descriptor or ask which CPUs this process may run on
    fail the test."""

    def refused(*args, **kwargs):
        raise AssertionError("a call that reaches outside this process")

    for name in ("fork", "forkpty", "pipe", "pipe2", "kill", "killpg", "posix_spawn",
                 "posix_spawnp", "system", "write", "sched_getaffinity", "cpu_count"):
        mp.setattr(os, name, refused, raising=False)
    mp.setattr(_thread, "start_new_thread", refused)
    mp.setattr(threading.Thread, "start", refused)


@pytest.fixture
def one_process(monkeypatch):
    """Everything the test runs stays in this process and its thread: see
    ``refuse_other_processes``. After it, no child is left to reap and no more
    file descriptors are open than before."""
    fds = "/proc/self/fd"
    before = sorted(os.listdir(fds)) if os.path.isdir(fds) else None
    with pytest.MonkeyPatch.context() as mp:
        refuse_other_processes(mp)
        yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if before is not None:
        assert sorted(os.listdir(fds)) == before
