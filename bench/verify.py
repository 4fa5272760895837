"""Judges each call's output against the generated case, after the worker
has exited, so that checking costs neither timed time nor worker memory.

The worker keeps an output of at most KEEP_CHARS characters whole and
replaces a longer one by its sha256 digest; only `check` on a failing input
prints that much, and its report is compared byte for byte (by digest) with
the one the benchmark's reference derives.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import gen
import reference

KEEP_CHARS = 20_000
STAGES = ("condition_check", "support_verification", "final_verification")
FLOAT_EPS = 1e-9


def digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def keep(text: str) -> str:
    """What the worker ships for one output."""
    return text if len(text) <= KEEP_CHARS else digest(text)


class Checker:
    def __init__(self, wl: gen.Workload, seed: int):
        self.wl, self.seed = wl, seed
        self.reports = {}  # (n, index) -> (reference check report, quadruple kinds)

    def case(self, n: int, index) -> gen.Case:
        return gen.make_case(self.seed, n, index, self.wl.perturb)

    def report(self, n: int, index):
        if (n, index) not in self.reports:
            self.reports[n, index] = reference.check_report(self.case(n, index).d)
        return self.reports[n, index]

    def _num(self, text, k: int) -> bool:
        if self.wl.mode == "exact":
            return Fraction(text) == Fraction(k, gen.GRID)
        x, y = float(text), k / gen.GRID
        return abs(x - y) <= FLOAT_EPS * max(1.0, abs(x), abs(y))

    def _tree(self, obj, case: gen.Case) -> bool:
        edges = obj["edges"]
        return obj["n"] == case.n and len(edges) == len(case.edges) and all(
            (e["u"], e["v"]) == (u, v) and self._num(e["w"], w)
            for e, (u, v, w) in zip(edges, case.edges)
        )

    def problem(self, command: str, n: int, index, code, out: str, err: str):
        """None when the call was right, else a one-line reason."""
        want = 1 if self.wl.perturb else 0
        if code != want:
            return f"exit {code!r}, expected {want}; stderr {err.strip()[:200]!r}"
        if err:
            return f"unexpected stderr {err.strip()[:200]!r}"
        if command == "check":
            if self.wl.perturb:
                expected = reference.render(self.report(n, index)[0])
            else:
                expected = reference.ALL_OK
            if out in (expected, digest(expected)):
                return None
            return "check report differs from the reference"
        case = self.case(n, index)
        try:
            obj = json.loads(out)
            if command == "reconstruct" and self.wl.perturb:
                ok = obj["realized"] is False and obj["stage"] in STAGES
            elif command == "reconstruct":
                ok = self._tree(obj, case)
            elif command == "weights":
                ok = obj["n"] == case.n and all(
                    self._num(cell, case.d[i][j])
                    for i, row in enumerate(obj["d"], start=1)
                    for j, cell in enumerate(row, start=1)
                )
            else:
                ok = (
                    obj["count"] == 1
                    and obj["topologies"] == case.n ** (case.n - 2)
                    and self._tree(obj["realizations"][0], case)
                )
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{command} output unreadable ({type(exc).__name__}: {str(exc)[:100]})"
        return None if ok else f"{command} output differs from the generated case"

    def failures(self, records) -> list[str]:
        """Reasons of every failed call in the worker's records."""
        out = []
        for r in records:
            for command, (code, text, err) in r["calls"].items():
                why = self.problem(command, r["n"], r["index"], code, text, err)
                if why:
                    out.append(f"{command} on case {r['index']} (n={r['n']}): {why}")
        return out
