"""Hostile matrices under a resource limit: each runs in its own `python -m
treexact.cli` child whose address space is capped at 1 GB (`RLIMIT_AS`, set
in the child alone by `preexec_fn`) with a 10 s wall timeout, for `check`
and `reconstruct` under both policies. The rule: exit 0, 1 or 2; exit 2
writes exactly one `error: ` line; no traceback.

On a 2-vCPU host each child below ended in ~0.1 s, except `check` on the
n = 40 matrix of `1`s (1.2–1.5 s): every quadruple there ties three ways
and has no center, and the report is 18 MB.
"""

import os
import resource
import subprocess
import sys

import pytest

import treexact

ADDRESS_SPACE = 1 << 30
TIMEOUT_S = 10


def _csv(rows, end="\n"):
    return end.join(",".join(row) for row in rows) + end


def _square(n, off, diagonal="0"):
    """n x n cells: `diagonal` on the diagonal, off(i, j) above it, mirrored."""
    rows = [[diagonal] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = off(i, j)
    return rows


def _path(i, j):
    """d(i, j) of the unit path on 0..n-1, as text."""
    return str(j - i)


def _places():
    rows = _square(40, lambda i, j: "1")
    rows[0][1] = rows[1][0] = "1." + "0" * 996 + "1"
    return _csv(rows)


def _pq400():
    digits = lambda k: str(10**399 + 7919 * k + 1)  # noqa: E731
    return _csv(_square(6, lambda i, j: f"{digits(i)}/{digits(j + 100)}"))


HOSTILE = {
    "n40-one-997-place-cell": _places(),
    "n6-400-digit-pq": _pq400(),
    "4000-digit-json-int": '{"n": 2, "d": [[0, %s], [%s, 0]]}' % ((str(10**3999 + 1),) * 2),
    "1e999": _csv(_square(3, lambda i, j: "1e999")),
    "1e-999": _csv(_square(3, lambda i, j: "1e-999")),
    "1e1001": _csv(_square(3, lambda i, j: "1e1001")),
    "open-brackets": "[" * 10**5,
    "deep-json": '{"n": 1, "d": ' + "[" * 10**5,
    "signed": _csv(_square(5, lambda i, j: "+" + _path(i, j))),
    "space-padded": _csv(_square(5, lambda i, j: f"  {_path(i, j)} ")),
    "crlf": _csv(_square(5, _path), end="\r\n"),
    "minus-zero-diagonal": _csv(_square(5, _path, diagonal="-0")),
    "1e308-sums": _csv(_square(4, lambda i, j: "1e308" if j - i > 1 else "9e307")),
}


def _limit():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("command", ["check", "reconstruct"])
@pytest.mark.parametrize("name", list(HOSTILE))
def test_hostile_input_keeps_the_contract(name, command, mode):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(treexact.__file__)))
    run = subprocess.run(
        [sys.executable, "-m", "treexact.cli", command, "--mode", mode],
        input=HOSTILE[name].encode(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=env, timeout=TIMEOUT_S, preexec_fn=_limit,
    )
    err = run.stderr.decode(errors="replace")
    assert run.returncode in (0, 1, 2), (run.returncode, err[-2000:])
    assert "Traceback" not in err, err[-2000:]
    if run.returncode == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err[-2000:]
