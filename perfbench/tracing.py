"""Per-layer tracing of hetimpute from outside the package.

``Tracer.install`` wraps the public functions of the measured modules and
rebinds every ``hetimpute.*`` module attribute that *is* one of them, so the
names callers bound with ``from .x import f`` (``imputer.row_distance``,
``evaluation.impute``, ``cli.parse``, ...) record spans as well. Each call
appends one span ``(name, start, end, parent)`` in memory; self time is a
span's duration minus that of its direct children.

Per-cell helpers run millions of times per workload; wrapping them would
multiply the run time, so they are left alone and their time shows as self
time of the caller (``row_distance``, ``combine_cells``, ``matrix_error``).
``fixtures`` is on no workload path and is not wrapped.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "typed_csv", "core", "distances", "imputer", "evaluation")
PER_CELL = frozenset(
    {
        "core.matches_kind",
        "core.components",
        "distances.cell_distance",
        "distances.crisp_distance",
        "distances.interval_distance",
        "distances.tfn_distance",
        "distances.tfn_membership",
        "evaluation.cell_error",
    }
)
MATRIX_METHODS = ("__post_init__", "is_complete", "with_cell")
ZERO_DISTANCE_EPS = 1e-12  # the exact-match distance of the paper's weighting rule


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.pairs: set[tuple[int, int]] = set()
        self.incomparable = 0
        self.parsed_chars = 0
        self.short_k_cells = 0
        self.exact_match_cells = 0

    # -- counters taken from arguments and results -------------------------

    def _after_row_distance(self, args, result) -> None:
        self.pairs.add((args[1], args[2]))
        if result is None:
            self.incomparable += 1

    def _after_parse(self, args, result) -> None:
        self.parsed_chars += len(args[0])

    def _after_impute(self, args, result) -> None:
        k = args[1]
        for neighbors in result.trace.values():
            if len(neighbors.donors) < k:
                self.short_k_cells += 1
            if any(d.distance < ZERO_DISTANCE_EPS for d in neighbors.donors):
                self.exact_match_cells += 1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        after = {
            "distances.row_distance": self._after_row_distance,
            "typed_csv.parse": self._after_parse,
            "imputer.impute": self._after_impute,
        }.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                try:
                    after(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature leaves that counter at 0
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"hetimpute.{short}")
            for attr, value in vars(module).items():
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in PER_CELL
                ):
                    wrappers[value] = self._wrap(name, value)
        matrix = importlib.import_module("hetimpute.core").DataMatrix
        for attr in MATRIX_METHODS:
            original = matrix.__dict__.get(attr)
            if original is None:
                continue
            label = "core.DataMatrix" + ("" if attr == "__post_init__" else "." + attr)
            self._patch(matrix, attr, original, self._wrap(label, original))
        for modname, module in list(sys.modules.items()):
            if modname != "hetimpute" and not modname.startswith("hetimpute."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, value, wrappers[value])

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_times(self):
        """Calls, inclusive seconds and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[index]
        return calls, total, own

    def write_spans(self, path) -> None:
        """Write every span as CSV, times in microseconds from the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,name,parent,start_us,end_us\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(
                    f"{index},{name},{parent},"
                    f"{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f}\n"
                )


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, traced_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced call of ``cli.main``."""
    calls, total, own = tracer.layer_times()
    rd_calls = calls["distances.row_distance"]
    fn_calls = calls["imputer.find_neighbors"]
    module_self = defaultdict(float)
    for name, seconds in own.items():
        module_self[name.split(".", 1)[0]] += seconds
    metrics = {
        "distances.row_distance_calls": rd_calls,
        "distances.row_distance_s": total["distances.row_distance"],
        "distances.row_pairs_per_s": _rate(rd_calls, total["distances.row_distance"]),
        "distances.incomparable_frac": _rate(tracer.incomparable, rd_calls),
        "distances.pair_recompute_ratio": _rate(rd_calls, len(tracer.pairs)),
        "imputer.impute_s": total["imputer.impute"],
        "imputer.find_neighbors_calls": fn_calls,
        "imputer.select_self_s": own["imputer.find_neighbors"],
        "imputer.candidates_per_cell": _rate(rd_calls - tracer.incomparable, fn_calls),
        "imputer.neighbor_weights_s": total["imputer.neighbor_weights"],
        "imputer.combine_cells_s": total["imputer.combine_cells"],
        "imputer.short_k_cells": tracer.short_k_cells,
        "imputer.exact_match_cells": tracer.exact_match_cells,
        "typed_csv.parse_s": total["typed_csv.parse"],
        "typed_csv.parse_mb_per_s": _rate(
            tracer.parsed_chars / 1e6, total["typed_csv.parse"]
        ),
        "typed_csv.serialize_s": total["typed_csv.serialize"],
        "core.missing_cells_s": total["core.missing_cells"],
        "core.validate_s": total["core.validate"],
        "core.matrix_builds": calls["core.DataMatrix"],
        "evaluation.benchmark_s": total["evaluation.benchmark"],
        "evaluation.mask_random_s": total["evaluation.mask_random"],
        "evaluation.matrix_error_s": total["evaluation.matrix_error"],
        "evaluation.trial_self_s": own["evaluation.benchmark"],
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = module_self[module]
    metrics["trace.wall_s"] = traced_s
    metrics["trace.self_cover_frac"] = _rate(sum(own.values()), traced_s)
    return metrics
