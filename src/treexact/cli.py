"""Batch command-line front end.

The subcommands and the formats each writes are listed in `_COMMANDS`.
Exit codes are a stable contract: 0 success/realizable, 1 not realizable,
2 invalid input, 3 uniqueness falsified (an oracle census with two or more
realizations: never observed under the exact policy, but under --mode
float the tolerance can fit two trees). JSON output is byte-deterministic
for identical inputs and flags; matrix input format (CSV vs JSON) is
sniffed from the first non-blank character.

`conditions` and `oracle` are imported by the handlers that run them, so a
process loads only what its subcommand uses.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .core import (
    DissimilarityMatrix,
    WeightedTree,
    all_pairs_weights,
    dump_json,
    parse_matrix,
    parse_tree,
    tree_to_dot,
)
from .errors import TooLarge, TreexactError
from .numeric import _MAX_DIGITS, EXACT, ExactPolicy, FloatPolicy, Policy, _widest_text, echo
from .reconstruct import UnrealizableWitness, reconstruct

EXIT_OK = 0
EXIT_UNREALIZABLE = 1
EXIT_INVALID = 2
EXIT_FALSIFIED = 3

# The most vertices `gen` and `weights` accept: both print all n^2 path weights,
# and at n = 1000 `-f json --mode float` peaks at ~230 MB (Python 3.11).
MAX_VERTICES = 1000
# The most characters `gen` and `weights` may print for a matrix, as (n + 1)^2
# times the widest entry: at 1.5e8, n = 1000 with 150-character entries
# peaks at ~540 MB in `-f json` (Python 3.11).
MAX_MATRIX_CHARS = 150_000_000


class _UsageError(Exception):
    """Bad flag combination or unsupported format; maps to exit 2."""


class _CapHelp(str):
    """The help line of `oracle --cap`. argparse fills it in with `%` only to
    print help, so the oracle's default cap is read then, and building the
    parser does not import the oracle."""

    def __mod__(self, params):
        from .oracle import DEFAULT_ENUMERATION_CAP

        return super().__mod__({**params, "cap": DEFAULT_ENUMERATION_CAP})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every `main` call."""
    parser = argparse.ArgumentParser(
        prog="treexact",
        description=(
            "Decide whether a dissimilarity matrix is realized by a positive-"
            "weighted tree on exactly its n labeled points, build that tree, "
            "and cross-check against exhaustive enumeration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out_opts = argparse.ArgumentParser(add_help=False)
    out_opts.add_argument(
        "-f", "--format", default="json", choices=["json", "csv", "dot", "text"],
        help="output format (default json)",
    )
    out_opts.add_argument(
        "--mode", default="exact", choices=["exact", "float"],
        help="numeric policy (default exact)",
    )
    out_opts.add_argument(
        "--eps", default=None, metavar="EPS",
        help="equality tolerance, float mode only (default 1e-9)",
    )
    in_opts = argparse.ArgumentParser(add_help=False)
    in_opts.add_argument(
        "-i", "--input", default="-", metavar="PATH",
        help="input file or '-' for standard input (default '-')",
    )

    parsers = {
        name: sub.add_parser(
            name, parents=[out_opts] if name == "gen" else [in_opts, out_opts], help=help_text
        )
        for name, (_, _, help_text) in _COMMANDS.items()
    }
    parsers["oracle"].add_argument(
        "--cap", type=int, help=_CapHelp("enumeration size limit (default %(cap)s)"),
    )
    gen_p = parsers["gen"]
    gen_p.add_argument("-n", type=int, required=True, help="number of vertices")
    gen_p.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    gen_p.add_argument("--wmin", default="0.001", help="minimum edge weight")
    gen_p.add_argument("--wmax", default="10", help="maximum edge weight")
    return parser


def _resolve_policy(args) -> Policy:
    if args.mode == "exact":
        if args.eps is not None:
            raise _UsageError("--eps is only valid with --mode float")
        return EXACT
    if args.eps is None:
        return FloatPolicy()
    try:
        return FloatPolicy(args.eps)
    except ValueError:
        raise _UsageError(f"--eps must be finite and positive, got {echo(args.eps)}")


def _read_input(path: str) -> str:
    try:
        if path == "-":
            # Decode the bytes strictly: a text stdin may carry its own error
            # handler (surrogateescape under a POSIX locale).
            raw = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        source = "standard input" if path == "-" else path
        raise _UsageError(f"{source} is not UTF-8 text: {exc}")


def _check_vertices(n: int) -> None:
    if n > MAX_VERTICES:
        raise TooLarge(f"n = {echo(n)} exceeds the {MAX_VERTICES}-vertex limit of gen and weights")


def _check_width(tree: WeightedTree) -> None:
    """Refuse a tree whose path-weight matrix `gen` and `weights` should not
    print: an entry could have more digits than the exact reader accepts, or the
    matrix could take more than MAX_MATRIX_CHARS characters. A float entry takes at
    most 23 (2.2250738585072014e-308), so a float tree within MAX_VERTICES always fits."""
    if not isinstance(tree.policy, ExactPolicy):
        return
    width = _widest_text([w for _, _, w in tree.edges])
    if width > _MAX_DIGITS:
        raise TooLarge(f"a path weight of this tree could have more than {_MAX_DIGITS} digits")
    chars = (tree.n + 1) ** 2 * (width + 1)  # the point or the slash
    if chars > MAX_MATRIX_CHARS:
        raise TooLarge(
            f"the path weights of this tree could take {chars} characters, beyond the "
            f"{MAX_MATRIX_CHARS}-character limit of gen and weights"
        )


def _tree_text(tree: WeightedTree) -> str:
    lines = [f"tree on {tree.n} vertices"]
    fmt = tree.policy.format
    for u, v, w in tree.edges:
        lines.append(f"  {u} -- {v}  w={fmt(w)}")
    return "\n".join(lines)


def _matrix_text(m: DissimilarityMatrix) -> str:
    return f"matrix on {m.n} vertices\n{m.to_csv()}"


def _witness_text(witness: UnrealizableWitness) -> str:
    return (
        "not realizable\n"
        f"stage: {witness.stage}\n"
        f"indices: {','.join(map(str, witness.indices))}\n"
        f"detail: {witness.message}"
    )


def _read_matrix(args, policy: Policy) -> DissimilarityMatrix:
    text = _read_input(args.input)
    fmt = "json" if text.lstrip().startswith("{") else "csv"
    return parse_matrix(text, fmt, policy)


def run_check(args, policy: Policy) -> tuple[str, int]:
    from .conditions import _decide, _write_json, _write_text

    rows = _decide(_read_matrix(args, policy))
    text = _write_json(*rows) if args.format == "json" else _write_text(*rows)
    return text, EXIT_OK if rows[0] else EXIT_UNREALIZABLE


def run_reconstruct(args, policy: Policy) -> tuple[str, int]:
    result = reconstruct(_read_matrix(args, policy))
    if isinstance(result, UnrealizableWitness):
        text = _witness_text(result) if args.format == "text" else result.to_json()
        return text, EXIT_UNREALIZABLE
    if args.format == "dot":
        return tree_to_dot(result), EXIT_OK
    if args.format == "text":
        return _tree_text(result), EXIT_OK
    return dump_json(result.to_json_dict()), EXIT_OK


def run_weights(args, policy: Policy) -> tuple[str, int]:
    tree = parse_tree(_read_input(args.input), policy)
    _check_vertices(tree.n)
    _check_width(tree)
    matrix = all_pairs_weights(tree)
    if args.format == "csv":
        return matrix.to_csv(), EXIT_OK
    if args.format == "text":
        return _matrix_text(matrix), EXIT_OK
    return dump_json(matrix.to_json_dict()), EXIT_OK


def run_oracle(args, policy: Policy) -> tuple[str, int]:
    from .oracle import DEFAULT_ENUMERATION_CAP, count_realizations

    cap = DEFAULT_ENUMERATION_CAP if args.cap is None else args.cap
    census = count_realizations(_read_matrix(args, policy), cap=cap)
    code = {0: EXIT_UNREALIZABLE, 1: EXIT_OK}.get(census.count, EXIT_FALSIFIED)
    if args.format == "json":
        return census.to_json(), code
    lines = [
        f"n: {census.n}",
        f"topologies examined: {census.topologies_examined}",
        f"realizations: {census.count}",
    ]
    for idx, tree in enumerate(census.realizations, start=1):
        lines.append(f"realization {idx}:")
        lines.extend("  " + line for line in _tree_text(tree).splitlines()[1:])
    return "\n".join(lines), code


def run_gen(args, policy: Policy) -> tuple[str, int]:
    from .oracle import random_weighted_tree

    _check_vertices(args.n)
    tree = random_weighted_tree(args.n, args.wmin, args.wmax, args.seed, policy)
    if args.format == "dot":
        return tree_to_dot(tree), EXIT_OK
    _check_width(tree)
    matrix = all_pairs_weights(tree)
    if args.format == "json":
        return dump_json({"tree": tree.to_json_dict(), "matrix": matrix.to_json_dict()}), EXIT_OK
    if args.format == "csv":
        # Matrix only; feeding it back into `reconstruct` reproduces the tree.
        return matrix.to_csv(), EXIT_OK
    return _tree_text(tree) + "\n" + _matrix_text(matrix), EXIT_OK


# Every subcommand: its handler, the formats it writes and its help line.
_COMMANDS = {
    "check": (run_check, ("json", "text"),
              "test whether a matrix is realizable and report witnesses"),
    "reconstruct": (run_reconstruct, ("json", "dot", "text"),
                    "build the unique realizing tree or explain why none exists"),
    "weights": (run_weights, ("json", "csv", "text"),
                "compute the all-pairs path-weight matrix of a tree"),
    "oracle": (run_oracle, ("json", "text"),
               "enumerate all labeled topologies and count realizations"),
    "gen": (run_gen, ("json", "csv", "dot", "text"),
            "generate a random weighted tree and its matrix"),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, formats, _ = _COMMANDS[args.command]
    stream = sys.stdout
    try:
        if args.format not in formats:
            raise _UsageError(
                f"format {args.format!r} is not supported by {args.command} "
                f"(choose from {', '.join(formats)})"
            )
        text, code = handler(args, _resolve_policy(args))
    except (_UsageError, TreexactError) as exc:
        text, code, stream = f"error: {exc}", EXIT_INVALID, sys.stderr
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        # The reader closed the pipe early. Send what is still buffered to
        # the null device, so the flush at exit cannot fail a second time.
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, sys.stdout.fileno())
        finally:
            os.close(null)
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
