"""Span and counter wrappers that the benchmark installs on treexact from
outside the program, by replacing names in the modules that call them.

A span's self time is its duration minus the time covered by the spans it
called; spans are aggregated per name as they close, not stored.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (namespace, attribute, span name). The namespace is where callers look the
# name up, so `reconstruct.all_pairs_weights` (the final verification inside
# `reconstruct`) is told apart from `core.all_pairs_weights` (the `weights`
# subcommand). "module:Class" names a method.
SPANS = (
    ("treexact.cli", "main", "cli.main"),
    ("treexact.cli", "parse_matrix", "core.parse_matrix"),
    ("treexact.cli", "parse_tree", "core.parse_tree"),
    ("treexact.cli", "all_pairs_weights", "core.all_pairs_weights"),
    ("treexact.core:DissimilarityMatrix", "comparison_view", "core.comparison_view"),
    ("treexact.cli", "check_all", "conditions.check_all"),
    ("treexact.conditions", "four_point_check", "conditions.four_point_check"),
    ("treexact.conditions", "condition_i_check", "conditions.condition_i_check"),
    ("treexact.conditions", "condition_ii_check", "conditions.condition_ii_check"),
    ("treexact.cli", "reconstruct", "reconstruct.reconstruct"),
    ("treexact.reconstruct", "find_pendant", "reconstruct.find_pendant"),
    ("treexact.reconstruct", "solve_base3", "reconstruct.solve_base3"),
    ("treexact.reconstruct", "all_pairs_weights", "reconstruct.all_pairs_weights"),
    ("treexact.cli", "count_realizations", "oracle.count_realizations"),
    ("treexact.oracle", "prufer_decode", "oracle.prufer_decode"),
    ("treexact.oracle", "realize_on_topology", "oracle.realize_on_topology"),
)


def _owner(namespace: str):
    module_name, _, cls = namespace.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


@contextmanager
def patched(replacements):
    """Install {(namespace, attribute): factory(original)} for the duration;
    yield the attributes that were absent and so left alone."""
    undo, absent = [], []
    try:
        for (namespace, attr), factory in replacements.items():
            owner = _owner(namespace)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                absent.append(f"{namespace}.{attr}")
                continue
            setattr(owner, attr, factory(original))
            undo.append((owner, attr, original))
        yield absent
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


class Tracer:
    """Self time, calls, normal returns and non-None results per span name."""

    def __init__(self):
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.returned = defaultdict(int)
        self.non_none = defaultdict(int)
        self._open = []  # child time accumulated by each open span

    def wrap(self, name, fn):
        open_spans, clock = self._open, time.perf_counter_ns
        self_ns, calls, returned, non_none = self.self_ns, self.calls, self.returned, self.non_none

        def traced(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                self_ns[name] += span - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += span
            returned[name] += 1
            if result is not None:
                non_none[name] += 1
            return result

        return traced

    def installed(self):
        return patched(
            {(ns, attr): (lambda fn, name=name: self.wrap(name, fn)) for ns, attr, name in SPANS}
        )


class CompareCounter:
    """Counts eq/lt calls made through the functions `comparison_view`
    returns, and the widest integer in the exact comparison grid."""

    def __init__(self):
        self.compares = 0
        self.grid_bits = 0

    def _view(self, original):
        def view(matrix):
            grid, eq, lt = original(matrix)
            ints = [cell for row in grid for cell in row if isinstance(cell, int)]
            self.grid_bits = max([self.grid_bits] + [abs(c).bit_length() for c in ints])

            def counted_eq(x, y):
                self.compares += 1
                return eq(x, y)

            def counted_lt(x, y):
                self.compares += 1
                return lt(x, y)

            return grid, counted_eq, counted_lt

        return view

    def installed(self):
        return patched({("treexact.core:DissimilarityMatrix", "comparison_view"): self._view})
