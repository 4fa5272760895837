"""Command-line interface: exit codes, formats, round trips, determinism."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import treexact
from treexact import (
    TooLarge, parse_matrix, parse_tree, random_weighted_tree, reconstruct, trees_equal,
)
from treexact.cli import (
    MAX_MATRIX_CHARS, MAX_VERTICES, _check_width, build_parser, main, main_entry,
)

STAR_CSV = "0,3,1,5\n3,0,2,6\n1,2,0,4\n5,6,4,0\n"
ALL_TWO_CSV = "0,2,2,2\n2,0,2,2\n2,2,0,2\n2,2,2,0\n"
PATH_TREE_JSON = json.dumps(
    {"n": 3, "edges": [{"u": 1, "v": 3, "w": "1"}, {"u": 3, "v": 2, "w": "2"}]}
)
BIG = "1e308"  # a float whose sum with itself overflows
BIG_INT = "1" + "0" * 399  # a JSON integer literal beyond the float range
DIGITS_1001 = "1" + "0" * 1000  # one digit beyond the exact bound


def equal_csv(n, value):
    return "\n".join(",".join("0" if i == j else value for j in range(n)) for i in range(n))


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path_tree_json(weights):
    """The path 1 - 2 - ... weighted by `weights` in order, as tree JSON."""
    edges = [{"u": i, "v": i + 1, "w": w} for i, w in enumerate(weights, start=1)]
    return json.dumps({"n": len(edges) + 1, "edges": edges})


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCheck:
    def test_star_realizable(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["check", "-i", write(tmp_path, "m.csv", STAR_CSV)])
        assert code == 0
        assert json.loads(out)["realizable"] is True

    def test_all_two_not_realizable(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["check", "-i", write(tmp_path, "m.csv", ALL_TWO_CSV)])
        assert code == 1
        doc = json.loads(out)
        assert doc["condition_i"]["ok"] is False
        assert doc["witnesses"][0]["quadruple"] == [1, 2, 3, 4]

    def test_missing_file_invalid(self, tmp_path, capsys):
        path = str(tmp_path / "absent.csv")
        code, out, err = run_cli(capsys, ["check", "-i", path])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1

    def test_asymmetric_invalid(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["check", "-i", write(tmp_path, "m.csv", "0,1\n2,0\n")])
        assert code == 2
        assert "asymmetric" in err

    @pytest.mark.parametrize("blank", ["", "  "])
    def test_blank_line_inside_matrix_invalid(self, capsys, monkeypatch, blank):
        stdin = f"0,1\n{blank}\n1,0\n"
        code, out, err = run_cli(capsys, ["check"], stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", "error: blank line inside matrix at row 2\n")

    def test_too_small_invalid(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["check", "-i", write(tmp_path, "m.csv", "0,1\n1,0\n")])
        assert code == 2
        assert "n >= 3" in err

    def test_text_format(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, ["check", "-f", "text", "-i", write(tmp_path, "m.csv", ALL_TWO_CSV)]
        )
        assert code == 1
        assert out.startswith("realizable: no")
        assert "witness: condition_i" in out

    def test_unsupported_format(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, ["check", "-f", "dot", "-i", write(tmp_path, "m.csv", STAR_CSV)]
        )
        assert code == 2
        assert "not supported" in err

    def test_json_matrix_input(self, tmp_path, capsys):
        doc = json.dumps(parse_matrix(STAR_CSV).to_json_dict())
        code, out, _ = run_cli(capsys, ["check", "-i", write(tmp_path, "m.json", doc)])
        assert code == 0

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_realizable_check_builds_no_tree(self, tmp_path, capsys, monkeypatch, mode):
        """The verdict is Prim's pass over the matrix: no `WeightedTree` is built."""

        def unbuilt(*args, **kwargs):
            raise AssertionError("a WeightedTree was built")

        monkeypatch.setattr(treexact.WeightedTree, "from_edges", unbuilt)
        path = write(tmp_path, "m.csv", STAR_CSV)
        code, out, err = run_cli(capsys, ["check", "--mode", mode, "-i", path])
        assert (code, err) == (0, "")
        assert json.loads(out)["realizable"] is True

    def test_realizable_exact_check_reads_no_entry_value(self, tmp_path, capsys, monkeypatch):
        """Prim's pass keeps its edge weights on the integer grid, so an exact
        `check` builds no `Fraction` through `DissimilarityMatrix.d`."""

        def unread(*args, **kwargs):
            raise AssertionError("an entry was read through d")

        monkeypatch.setattr(treexact.DissimilarityMatrix, "d", unread)
        path = write(tmp_path, "m.csv", STAR_CSV)
        code, out, err = run_cli(capsys, ["check", "--mode", "exact", "-i", path])
        assert (code, err) == (0, "")
        assert json.loads(out)["realizable"] is True


class TestMainEntry:
    """`main_entry`, the console-script target, exits with `main`'s code."""

    @pytest.mark.parametrize(
        "argv, stdin, code",
        [
            (["check"], STAR_CSV, 0),
            (["check"], ALL_TWO_CSV, 1),
            (["check", "--eps", "1e-3"], STAR_CSV, 2),
        ],
    )
    def test_exit_code(self, argv, stdin, code, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["treexact", *argv])
        stream = io.TextIOWrapper(io.BytesIO(stdin.encode()), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stream)
        with pytest.raises(SystemExit) as exc:
            main_entry()
        assert exc.value.code == code
        out, err = capsys.readouterr()
        if code == 2:
            assert not out and "--eps is only valid with --mode float" in err
        else:
            assert json.loads(out)["realizable"] is (code == 0)


class TestReconstruct:
    def test_star(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, ["reconstruct", "-i", write(tmp_path, "m.csv", STAR_CSV)]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 4
        assert {"u": 3, "v": 4, "w": "4"} in doc["edges"]

    def test_all_two_witness(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, ["reconstruct", "-i", write(tmp_path, "m.csv", ALL_TWO_CSV)]
        )
        assert code == 1
        assert json.loads(out)["stage"] == "support_verification"

    def test_single_point(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["reconstruct", "-i", write(tmp_path, "m.csv", "0\n")])
        assert code == 0
        doc = json.loads(out)
        assert doc == {"n": 1, "edges": []}

    def test_dot_output(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, ["reconstruct", "-f", "dot", "-i", write(tmp_path, "m.csv", STAR_CSV)]
        )
        assert code == 0
        assert out.startswith("graph tree {")
        assert '3 -- 4 [label="4"];' in out

    def test_invalid_input(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["reconstruct", "-i", write(tmp_path, "m.csv", "0,x\nx,0\n")])
        assert code == 2


class TestWeights:
    def test_path_tree_csv(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            ["weights", "-f", "csv", "-i", write(tmp_path, "t.json", PATH_TREE_JSON)],
        )
        assert code == 0
        assert out == "0,3,1\n3,0,2\n1,2,0\n"

    def test_zero_weight_edge_invalid(self, tmp_path, capsys):
        bad = json.dumps({"n": 2, "edges": [{"u": 1, "v": 2, "w": "0"}]})
        code, _, err = run_cli(capsys, ["weights", "-i", write(tmp_path, "t.json", bad)])
        assert code == 2
        assert "non-positive" in err

    def test_cycle_invalid(self, tmp_path, capsys):
        bad = json.dumps(
            {
                "n": 3,
                "edges": [
                    {"u": 1, "v": 2, "w": "1"},
                    {"u": 2, "v": 3, "w": "1"},
                    {"u": 1, "v": 3, "w": "1"},
                ],
            }
        )
        code, _, err = run_cli(capsys, ["weights", "-i", write(tmp_path, "t.json", bad)])
        assert code == 2
        assert "expected 2" in err

    def test_reads_the_tree_of_gen_json(self, capsys, monkeypatch):
        code, generated, _ = run_cli(capsys, ["gen", "-n", "6", "--seed", "2"])
        assert code == 0
        code, out, err = run_cli(
            capsys, ["weights", "-i", "-"], stdin=generated, monkeypatch=monkeypatch
        )
        assert (code, err) == (0, "")
        assert json.loads(out) == json.loads(generated)["matrix"]

    def test_single_edge(self, tmp_path, capsys):
        doc = json.dumps({"n": 2, "edges": [{"u": 1, "v": 2, "w": "7"}]})
        code, out, _ = run_cli(
            capsys, ["weights", "-f", "csv", "-i", write(tmp_path, "t.json", doc)]
        )
        assert code == 0
        assert out == "0,7\n7,0\n"

    def test_path_tree_over_the_vertex_limit_is_refused_at_once(self, tmp_path, capsys):
        n = MAX_VERTICES + 1
        doc = json.dumps({"n": n, "edges": [{"u": i, "v": i + 1, "w": "1"} for i in range(1, n)]})
        started = time.perf_counter()
        argv = ["weights", "-f", "csv", "-i", write(tmp_path, "t.json", doc)]
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - started < 1
        assert (code, out) == (2, "")
        assert err == f"error: n = {n} exceeds the {MAX_VERTICES}-vertex limit of gen and weights\n"

    def test_path_weights_over_a_wide_scale_are_refused(self, tmp_path, capsys):
        # Edges weigh 1/q, each q odd and of 999 digits: the end-to-end path
        # weight has a ~6000-digit denominator.
        rng = random.Random(1)
        doc = path_tree_json([f"1/{rng.randrange(10**998, 10**999) | 1}" for _ in range(6)])
        argv = ["weights", "-f", "csv", "-i", write(tmp_path, "t.json", doc)]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: a path weight of this tree could have more than 1000 digits\n"

    @pytest.mark.parametrize("n, digits, code", [(12, 1000, 2), (11, 999, 0)])
    def test_path_weights_the_reader_refuses_are_not_printed(
        self, tmp_path, capsys, monkeypatch, n, digits, code
    ):
        """Eleven edges of 10^999 sum to a 1001-digit path weight, which
        `reconstruct` would refuse; ten edges of 10^998 sum to 1000 digits,
        which read back."""
        doc = path_tree_json(["1" + "0" * (digits - 1)] * (n - 1))
        argv = ["weights", "-f", "csv", "-i", write(tmp_path, "t.json", doc)]
        got, csv, err = run_cli(capsys, argv)
        assert got == code
        if code == 2:
            assert (csv, err.count("\n")) == ("", 1) and "more than 1000 digits" in err
            return
        got, out, err = run_cli(
            capsys, ["reconstruct", "-i", "-"], stdin=csv, monkeypatch=monkeypatch
        )
        assert (got, err) == (0, "")
        assert trees_equal(parse_tree(out), parse_tree(doc))

    def test_wide_decimal_under_a_lcm_with_another_factor_is_refused(self, tmp_path, capsys):
        """Edges of 1/2^1200 and 1/3: the lcm has the factor 3, yet d(1, 2) is
        written as a decimal of 1201 digits, which the reader would refuse."""
        doc = path_tree_json([f"1/{2**1200}", "1/3"])
        argv = ["weights", "-f", "csv", "-i", write(tmp_path, "t.json", doc)]
        assert run_cli(capsys, argv) == (
            2, "", "error: a path weight of this tree could have more than 1000 digits\n"
        )


class TestOracle:
    def test_star_count_one(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["oracle", "-i", write(tmp_path, "m.csv", STAR_CSV)])
        assert code == 0
        assert json.loads(out)["count"] == 1

    def test_all_two_count_zero(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["oracle", "-i", write(tmp_path, "m.csv", ALL_TWO_CSV)])
        assert code == 1
        assert json.loads(out)["count"] == 0

    def test_over_cap(self, tmp_path, capsys):
        from treexact import all_pairs_weights, random_weighted_tree

        big = all_pairs_weights(random_weighted_tree(9, 1, 2, seed=3)).to_csv()
        code, _, err = run_cli(capsys, ["oracle", "-i", write(tmp_path, "m.csv", big)])
        assert code == 2
        assert "cap" in err

    def test_cap_override(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, ["oracle", "--cap", "3", "-i", write(tmp_path, "m.csv", STAR_CSV)]
        )
        assert code == 2


class TestGen:
    def test_round_trip_through_reconstruct(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["gen", "-n", "6", "--seed", "7"])
        assert code == 0
        doc = json.loads(out)
        generated = parse_tree(json.dumps(doc["tree"]))
        matrix = parse_matrix(json.dumps(doc["matrix"]), fmt="json")
        rebuilt = reconstruct(matrix)
        assert trees_equal(rebuilt, generated)

    def test_csv_output_pipes_into_reconstruct(self, tmp_path, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["gen", "-n", "5", "--seed", "3", "-f", "csv"])
        assert code == 0
        code2, out2, _ = run_cli(
            capsys, ["reconstruct", "-i", "-"], stdin=out, monkeypatch=monkeypatch
        )
        assert code2 == 0
        rebuilt = parse_tree(out2)
        assert trees_equal(rebuilt, reconstruct(parse_matrix(out)))

    @pytest.mark.parametrize("n,seed", [(3, 0), (6, 7), (9, 11), (12, 4)])
    def test_round_trip_across_sizes(self, capsys, n, seed):
        code, out, _ = run_cli(capsys, ["gen", "-n", str(n), "--seed", str(seed)])
        assert code == 0
        doc = json.loads(out)
        generated = parse_tree(json.dumps(doc["tree"]))
        rebuilt = reconstruct(parse_matrix(json.dumps(doc["matrix"]), fmt="json"))
        assert trees_equal(rebuilt, generated)

    def test_single_vertex(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "-n", "1", "-f", "csv"])
        assert code == 0
        assert out == "0\n"

    def test_zero_weight_low_invalid(self, capsys):
        code, _, err = run_cli(capsys, ["gen", "-n", "4", "--wmin", "0"])
        assert code == 2
        assert "positive" in err

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("bound", ["--wmin", "--wmax"])
    def test_zero_denominator_bound_invalid(self, capsys, mode, bound):
        code, out, err = run_cli(capsys, ["gen", "-n", "3", "--mode", mode, bound, "1/0"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad weight bound") and err.count("\n") == 1

    def test_bad_n_invalid(self, capsys):
        code, _, err = run_cli(capsys, ["gen", "-n", "0"])
        assert code == 2

    def test_n_over_the_vertex_limit_is_refused_at_once(self, capsys):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, ["gen", "-n", "1000000000", "-f", "csv"])
        assert time.perf_counter() - started < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: n = 1000000000 exceeds") and err.count("\n") == 1

    def test_n_at_the_vertex_limit_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "-n", str(MAX_VERTICES), "-f", "dot"])
        assert code == 0
        assert out.count(" -- ") == MAX_VERTICES - 1

    def test_wide_weights_over_the_character_limit_are_refused_at_once(self, capsys):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, ["gen", "-n", "1000", "--wmax", "1e900", "-f", "csv"])
        assert time.perf_counter() - started < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: the path weights of this tree could take ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("wmax, fits", [("1e142", True), ("1e143", False)])
    def test_character_limit_is_just_above_149_character_entries(self, wmax, fits):
        """At n = 1000, weights up to 1e142 give path weights of at most 148
        digits and a point: 1001^2 x 149 characters are within 1.5e8, 150
        are not."""
        tree = random_weighted_tree(1000, "0.001", wmax, seed=1)
        if fits:
            _check_width(tree)
        else:
            with pytest.raises(TooLarge, match="150300150 characters"):
                _check_width(tree)

    def test_float_matrices_fit_the_character_limit(self):
        """A positive float is written in at most 23 characters, so a float
        matrix of MAX_VERTICES vertices stays within MAX_MATRIX_CHARS and
        `_check_width` need not look at a float tree."""
        for value in (sys.float_info.max, sys.float_info.min, 5e-324):
            assert len(repr(value)) <= 23
        assert (MAX_VERTICES + 1) ** 2 * 23 <= MAX_MATRIX_CHARS

    def test_float_mode(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "-n", "4", "--seed", "1", "--mode", "float"])
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"]["d"][0][0] == "0.0"
        # Positivity is a sign test: the default --wmin 0.001 is no zero under
        # a tolerance of 1e-3.
        argv = ["gen", "-n", "3", "--seed", "1", "--mode", "float", "--eps", "1e-3"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["tree"]["n"] == 3

    def test_dot_output(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "-n", "3", "--seed", "5", "-f", "dot"])
        assert code == 0
        assert out.startswith("graph tree {")

    def test_exact_path_weights_beyond_the_reader_bound_invalid(self, capsys):
        argv = ["gen", "-n", "3", "--wmax", "1e1000", "--seed", "1", "-f", "csv"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (["--wmin", "9" * 999, "--wmax", "1"], "is empty"),
            (["--wmin", "-" + "9" * 999], "must be positive"),
            (["--wmin", "0.000" + "1" * 996, "--wmax", "0.0002"], "no multiple of 1/1000"),
            (["--mode", "float", "--wmin", "1" + "0" * 306, "--wmax", "1" + "0" * 306],
             "exceeds the float range"),
        ],
    )
    def test_long_bounds_are_echoed_short(self, capsys, argv, reason):
        code, out, err = run_cli(capsys, ["gen", "-n", "3", *argv])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert reason in err and len(err.encode()) < 200

    def test_exact_wide_weights_round_trip(self, capsys, monkeypatch):
        argv = ["gen", "-n", "3", "--wmax", "1e990", "--seed", "1"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        generated = parse_tree(json.dumps(json.loads(out)["tree"]))
        code, csv, _ = run_cli(capsys, argv + ["-f", "csv"])
        assert code == 0
        code, out, err = run_cli(
            capsys, ["reconstruct", "-i", "-"], stdin=csv, monkeypatch=monkeypatch
        )
        assert (code, err) == (0, "")
        assert trees_equal(parse_tree(out), generated)


class TestPolicyFlags:
    def test_eps_requires_float_mode(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            ["check", "--eps", "1e-6", "-i", write(tmp_path, "m.csv", STAR_CSV)],
        )
        assert code == 2
        assert "--mode float" in err

    def test_float_mode_tolerates_noise(self, tmp_path, capsys):
        noisy = "0,3.000000000001,1,5\n3.000000000001,0,2,6\n1,2,0,4\n5,6,4,0\n"
        code, out, _ = run_cli(
            capsys,
            ["check", "--mode", "float", "-i", write(tmp_path, "m.csv", noisy)],
        )
        assert code == 0
        assert json.loads(out)["realizable"] is True
        # An entry within eps of zero is still positive; zero and below are not.
        short = "0,0.0005,1\n0.0005,0,1.0005\n1,1.0005,0\n"
        argv = ["check", "--mode", "float", "--eps", "1e-3", "-i"]
        code, out, err = run_cli(capsys, argv + [write(tmp_path, "short.csv", short)])
        assert (code, err) == (0, "")
        assert json.loads(out)["realizable"] is True
        for bad in ("0", "-0.0005"):
            path = write(tmp_path, "bad.csv", short.replace("0.0005", bad))
            code, out, err = run_cli(capsys, argv + [path])
            assert (code, out) == (2, "")
            assert err == "error: non-positive off-diagonal entry at (1,2)\n"

    def test_exact_mode_rejects_same_noise(self, tmp_path, capsys):
        noisy = "0,3.000000000001,1,5\n3.000000000001,0,2,6\n1,2,0,4\n5,6,4,0\n"
        code, out, _ = run_cli(capsys, ["check", "-i", write(tmp_path, "m.csv", noisy)])
        assert code == 1

    def test_float_reconstruct(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "reconstruct",
                "--mode",
                "float",
                "--eps",
                "1e-6",
                "-i",
                write(tmp_path, "m.csv", STAR_CSV),
            ],
        )
        assert code == 0
        assert json.loads(out)["n"] == 4

    @pytest.mark.parametrize("command, n", [("reconstruct", 4), ("oracle", 3)])
    def test_overflowed_float_sums_match_nothing(self, tmp_path, capsys, command, n):
        """Every path sum of these matrices is infinite, and an infinite
        tolerance equals nothing: no tree is built or counted."""
        path = write(tmp_path, "m.csv", equal_csv(n, BIG))
        code, out, err = run_cli(capsys, [command, "--mode", "float", "-i", path])
        assert (code, err) == (1, "")
        assert json.loads(out).get("count", 0) == 0

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_float_flags_do_not_leak_into_the_next_call(self, tmp_path, capsys):
        noisy = write(tmp_path, "m.csv", "0,3.0001,1,5\n3.0001,0,2,6\n1,2,0,4\n5,6,4,0\n")
        code, out, _ = run_cli(capsys, ["check", "--mode", "float", "--eps", "1e-3", "-i", noisy])
        assert code == 0
        assert json.loads(out)["realizable"] is True
        code, out, err = run_cli(capsys, ["check", "-i", noisy])
        assert (code, err) == (1, "")
        assert json.loads(out)["realizable"] is False
        args = build_parser().parse_args(["check"])
        assert (args.mode, args.eps, args.input) == ("exact", None, "-")


class TestInputBoundary:
    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_eps_invalid(self, tmp_path, capsys, eps):
        code, out, err = run_cli(
            capsys,
            ["check", "--mode", "float", f"--eps={eps}", "-i", write(tmp_path, "m.csv", STAR_CSV)],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --eps must be finite") and err.count("\n") == 1

    def test_long_eps_is_shortened(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys,
            ["check", "--mode", "float", "--eps", "1" * 500, "-i", write(tmp_path, "m.csv", STAR_CSV)],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --eps must be finite") and err.count("\n") == 1
        assert len(err.encode()) < 200, err
        assert "(500 characters)" in err

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_long_edge_with_non_integer_endpoint_is_shortened(self, tmp_path, capsys, mode):
        doc = json.dumps({"n": 2, "edges": [{"u": 1.5, "v": 2, "w": "1" * 3000}]})
        code, out, err = run_cli(capsys, ["weights", "--mode", mode, "-i", write(tmp_path, "t.json", doc)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: non-integer endpoint in edge") and err.count("\n") == 1
        assert len(err.encode()) < 200, err

    def test_non_utf8_file_invalid(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xff\xfe0,1\n1,0\n")
        code, out, err = run_cli(capsys, ["reconstruct", "-i", str(path)])
        assert code == 2
        assert out == ""
        assert "not UTF-8" in err and err.count("\n") == 1

    def test_non_utf8_stdin_invalid(self, capsys, monkeypatch):
        import io
        import sys

        stdin = io.TextIOWrapper(io.BytesIO(b"0,\xff\n\xff,0\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run_cli(capsys, ["check", "-i", "-"])
        assert code == 2
        assert err.startswith("error: standard input is not UTF-8 text:")
        assert err.count("\n") == 1

    def test_non_utf8_stdin_with_lenient_handler_invalid(self, capsys, monkeypatch):
        """A text stdin that turns bad bytes into surrogates (as under a POSIX
        locale) is still read as bytes and refused as non-UTF-8."""
        import io
        import sys

        stdin = io.TextIOWrapper(
            io.BytesIO(b"\xff\xfe0,1\n1,0\n"), encoding="utf-8", errors="surrogateescape"
        )
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run_cli(capsys, ["reconstruct", "-i", "-"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: standard input is not UTF-8 text:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "name, text",
        [
            ("m.csv", "0,1e-99999999\n1e-99999999,0\n"),
            ("m.csv", "0,1E+99999999\n1E+99999999,0\n"),
            ("m.csv", "0,1" + "0" * 1000 + "\n1" + "0" * 1000 + ",0\n"),
            ("m.json", '{"n": 2, "d": [[0, 1e-99999999], [1e-99999999, 0]]}'),
            ("m.json", '{"n": 2, "d": [[0, "1e-99999999"], ["1e-99999999", 0]]}'),
            ("m.json", '{"n": 2, "d": [[0, 1' + "0" * 5000 + "], [1, 0]]}"),
            ("m.json", '{"n": 3, "d": [[0, %s, %s], [%s, 0, %s], [%s, %s, 0]]}' % ((DIGITS_1001,) * 6)),
        ],
    )
    @pytest.mark.parametrize("command", ["check", "reconstruct"])
    def test_oversized_exact_number_invalid(self, tmp_path, capsys, name, text, command):
        code, out, err = run_cli(capsys, [command, "-i", write(tmp_path, name, text)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["check", "weights"])
    def test_deeply_nested_json_invalid(self, tmp_path, capsys, command):
        doc = '{"n": 1, "d": ' + "[" * 100000 + "]" * 100000 + "}"
        code, out, err = run_cli(capsys, [command, "-i", write(tmp_path, "m.json", doc)])
        assert code == 2
        assert out == ""
        assert err == "error: invalid JSON: nested too deeply\n"

    def test_oversized_exact_tree_weight_invalid(self, tmp_path, capsys):
        doc = '{"n": 2, "edges": [{"u": 1, "v": 2, "w": 1e-99999999}]}'
        code, out, err = run_cli(capsys, ["weights", "-i", write(tmp_path, "t.json", doc)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_oversized_exact_integer_tree_weight_invalid(self, tmp_path, capsys):
        doc = '{"n": 2, "edges": [{"u": 1, "v": 2, "w": %s}]}' % DIGITS_1001
        code, out, err = run_cli(capsys, ["weights", "-i", write(tmp_path, "t.json", doc)])
        assert code == 2
        assert out == ""
        assert err == "error: bad weight on edge (1,2): more than 1000 digits in an exact number\n"

    @pytest.mark.parametrize(
        "command, name, doc",
        [
            ("check", "m.json", '{"n": 2, "d": [[0, %s], [%s, 0]]}' % (BIG_INT, BIG_INT)),
            ("reconstruct", "m.json", '{"n": 2, "d": [[0, %s], [%s, 0]]}' % (BIG_INT, BIG_INT)),
            ("weights", "t.json", '{"n": 2, "edges": [{"u": 1, "v": 2, "w": %s}]}' % BIG_INT),
        ],
        ids=["check", "reconstruct", "weights"],
    )
    def test_float_integer_literal_beyond_float_range_invalid(
        self, tmp_path, capsys, command, name, doc
    ):
        argv = [command, "--mode", "float", "-i", write(tmp_path, name, doc)]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "non-finite value" in err and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "mode, cell",
        [
            ("float", BIG_INT),
            ("float", "1" + "0" * 4299),  # the longest integer literal json reads
            ("float", '"%s"' % ("a" * 5000)),
            ("exact", '"%s"' % ("a" * 5000)),
            ("exact", '"%s"' % ("1" * 1001)),
        ],
        ids=["float_400_digits", "float_4300_digits", "float_garbage", "exact_garbage", "exact_1001"],
    )
    def test_long_literal_is_echoed_once_and_shortened(self, tmp_path, capsys, mode, cell):
        """A refused cell is named once, cut to its head and tail and its
        length, so the error line stays under 160 bytes whatever its size."""
        doc = '{"n": 3, "d": [[0, %s, 1], [%s, 0, 1], [1, 1, 0]]}' % (cell, cell)
        code, out, err = run_cli(capsys, ["check", "--mode", mode, "-i", write(tmp_path, "m.json", doc)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad entry") and err.count("\n") == 1
        assert len(err.encode()) < 160, err
        assert err.count("...") == 1

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize(
        "doc",
        [
            {"n": True, "d": [[0]]},
            {"n": 2, "d": [[0, True], [True, 0]]},
            {"n": 2, "d": [[False, 1], [1, 0]]},
        ],
    )
    def test_json_booleans_in_matrix_invalid(self, tmp_path, capsys, mode, doc):
        code, out, _ = run_cli(
            capsys,
            ["reconstruct", "--mode", mode, "-i", write(tmp_path, "m.json", json.dumps(doc))],
        )
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": True, "edges": []},
            {"n": 2, "edges": [{"u": True, "v": 2, "w": "1"}]},
            {"n": 2, "edges": [{"u": 1, "v": 2, "w": True}]},
        ],
    )
    def test_json_booleans_in_tree_invalid(self, tmp_path, capsys, doc):
        code, out, _ = run_cli(capsys, ["weights", "-i", write(tmp_path, "t.json", json.dumps(doc))])
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["gen", "-n", "3", "--mode", "float", "--wmax", BIG], ""),
            (
                ["weights", "--mode", "float"],
                json.dumps({"n": 3, "edges": [
                    {"u": 1, "v": 2, "w": BIG}, {"u": 2, "v": 3, "w": BIG},
                ]}),
            ),
        ],
        ids=["gen", "weights"],
    )
    def test_float_tree_beyond_float_range_invalid(self, capsys, monkeypatch, argv, stdin):
        code, out, err = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""
        assert "float range" in err and err.startswith("error: ") and err.count("\n") == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv_builder",
        [
            lambda p: ["check", "-i", p("m.csv", STAR_CSV)],
            lambda p: ["check", "-i", p("m.csv", ALL_TWO_CSV)],
            lambda p: ["reconstruct", "-i", p("m.csv", STAR_CSV)],
            lambda p: ["reconstruct", "-i", p("m.csv", ALL_TWO_CSV)],
            lambda p: ["weights", "-i", p("t.json", PATH_TREE_JSON)],
            lambda p: ["oracle", "-i", p("m.csv", STAR_CSV)],
            lambda p: ["gen", "-n", "7", "--seed", "13"],
        ],
    )
    def test_identical_invocations_are_byte_identical(
        self, tmp_path, capsys, argv_builder
    ):
        def provision(name, text):
            return write(tmp_path, name, text)

        argv = argv_builder(provision)
        code1, out1, _ = run_cli(capsys, list(argv))
        code2, out2, _ = run_cli(capsys, list(argv))
        assert code1 == code2
        assert out1 == out2


def run_on_stdin(argv, data: bytes):
    """Run the CLI on `data` as standard input; return (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


CSV_LIKE = st.text(alphabet="0123456789+-.,\n", max_size=120)


@st.composite
def symmetric_csv(draw):
    """A zero-diagonal symmetric grid, so the verdicts 0 and 1 are reached."""
    n = draw(st.integers(1, 7))
    cells = st.sampled_from(["1", "2", "3", "4", "1.5", "0.5", "1/3", "2e0", "0", "-1", "."])
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(cells)
    return "\n".join(",".join(row) for row in rows)


@st.composite
def number_literal(draw):
    """(JSON text of one number, its digit count if it is an integer, else 0):
    an integer literal of up to 2000 digits, a decimal or a `p/q` string, the
    first two sometimes quoted."""
    kind = draw(st.sampled_from(["int", "decimal", "ratio"]))
    if kind == "ratio":
        return f'"{draw(st.integers(-3, 30))}/{draw(st.integers(0, 9))}"', 0
    if kind == "int":
        digits = draw(st.integers(1, 2000))
        body = draw(st.sampled_from("123456789")) + draw(st.sampled_from("0123456789")) * (digits - 1)
        text = draw(st.sampled_from(["", "-"])) + body
    else:
        text = draw(st.from_regex(r"-?[0-9]{1,4}\.[0-9]{1,4}([eE][+-]?[0-9]{1,3})?", fullmatch=True))
        digits = 0
    return (f'"{text}"' if draw(st.booleans()) else text), digits


@st.composite
def matrix_json(draw):
    """A zero-diagonal symmetric JSON matrix; returns (document, most integer digits)."""
    n = draw(st.integers(1, 5))
    rows = [["0"] * n for _ in range(n)]
    longest = 0
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j], digits = draw(number_literal())
            rows[j][i] = rows[i][j]
            longest = max(longest, digits)
    d = ", ".join("[" + ", ".join(row) + "]" for row in rows)
    return f'{{"n": {n}, "d": [{d}]}}', longest


@st.composite
def tree_json(draw):
    """A JSON tree on 1..n; returns (document, most integer digits)."""
    n = draw(st.integers(1, 5))
    edges, longest = [], 0
    for v in range(2, n + 1):
        w, digits = draw(number_literal())
        longest = max(longest, digits)
        u = draw(st.integers(1, v - 1))
        edges.append(f'{{"u": {u}, "v": {v}, "w": {w}}}')
    return f'{{"n": {n}, "edges": [{", ".join(edges)}]}}', longest


class TestExitCodeContract:
    """Any input ends in exit 0-3, never a traceback, and exit 2 writes one
    stderr line."""

    @settings(max_examples=150, deadline=None)
    @given(
        command=st.sampled_from(["check", "reconstruct"]),
        mode=st.sampled_from(["exact", "float"]),
        data=st.binary(max_size=120) | (CSV_LIKE | symmetric_csv()).map(str.encode),
    )
    def test_any_input_keeps_the_contract(self, command, mode, data):
        code, _, err = run_on_stdin([command, "--mode", mode], data)
        assert code in (0, 1, 2, 3)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1

    @settings(max_examples=100, deadline=None)
    @given(
        command=st.sampled_from(["check", "reconstruct", "weights"]),
        mode=st.sampled_from(["exact", "float"]),
        data=st.data(),
    )
    def test_any_json_number_keeps_the_contract(self, command, mode, data):
        doc, longest = data.draw(tree_json() if command == "weights" else matrix_json())
        code, _, err = run_on_stdin([command, "--mode", mode], doc.encode())
        assert code in (0, 1, 2, 3)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
        if mode == "exact" and longest > 1000:
            assert code == 2

    @settings(max_examples=50, deadline=None)
    @given(
        mode=st.sampled_from(["exact", "float"]),
        low=number_literal(),
        high=number_literal(),
    )
    def test_any_gen_bound_keeps_the_contract(self, mode, low, high):
        # One `--flag=value` word each, so a negative bound is not read as a flag.
        bounds = ["--wmin=" + low[0].strip('"'), "--wmax=" + high[0].strip('"')]
        argv = ["gen", "-n", "3", "--mode", mode, *bounds]
        code, _, err = run_on_stdin(argv, b"")
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1


def test_closed_pipe_ends_quietly():
    """A reader that takes one byte of a large output and closes the pipe
    leaves the exit code at 0 and stderr empty."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(treexact.__file__)))
    with subprocess.Popen(
        [sys.executable, "-m", "treexact.cli", "gen", "-n", "300", "--seed", "1", "-f", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.read(1) == b"0"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 0


def _closed_pipe(fd):
    """A stdout on descriptor `fd` whose every write meets a closed pipe."""

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

        def fileno(self):
            return fd

    return ClosedPipe()


def test_closed_pipe_points_stdout_at_the_null_device(tmp_path, monkeypatch):
    """In process: when the print to stdout meets a closed pipe, `main` keeps
    its exit code and sends later writes to stdout's descriptor to the null
    device, so the flush at exit cannot fail again."""
    path = tmp_path / "stdout"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT)
    monkeypatch.setattr(sys, "stdout", _closed_pipe(fd))
    try:
        assert main(["gen", "-n", "3", "-f", "csv"]) == 0
        os.write(fd, b"after the pipe closed")
    finally:
        os.close(fd)
    assert path.read_bytes() == b""


def test_closed_pipe_leaves_no_descriptor_open(tmp_path, monkeypatch):
    """Each closed-pipe exit of `main` closes the null-device descriptor it
    opens, so five of them leave the count of open descriptors unchanged."""
    listing = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    monkeypatch.setattr(sys, "stdout", _closed_pipe(fd))
    try:
        before = len(os.listdir(listing))
        for _ in range(5):
            assert main(["gen", "-n", "3", "-f", "csv"]) == 0
        after = len(os.listdir(listing))
    finally:
        os.close(fd)
    assert after == before
