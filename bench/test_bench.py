"""Self-tests of the benchmark. From the repository root:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import types
import unittest
from pathlib import Path

import gen
import reference
import run
import verify
import worker

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for perturb in (False, True):
            a = gen.make_case(7, 24, 3, perturb)
            self.assertEqual(a, gen.make_case(7, 24, 3, perturb))
            self.assertEqual(gen.matrix_csv(a), gen.matrix_csv(gen.make_case(7, 24, 3, perturb)))
        self.assertNotEqual(gen.make_case(7, 24, 3).d, gen.make_case(8, 24, 3).d)
        self.assertNotEqual(gen.make_case(7, 24, 3).d, gen.make_case(7, 24, 4).d)

    def test_perturbation_moves_one_pair_of_the_same_tree(self):
        tree, moved = gen.make_case(5, 16, 0), gen.make_case(5, 16, 0, perturb=True)
        self.assertEqual(tree.edges, moved.edges)
        diff = [
            (i, j, moved.d[i][j] - tree.d[i][j])
            for i in range(1, 17) for j in range(i + 1, 17) if moved.d[i][j] != tree.d[i][j]
        ]
        self.assertEqual(diff, [moved.moved])
        self.assertIn(moved.moved[2], (-1, 1))

    def test_path_sums_of_a_path(self):
        d = gen.path_sums(3, [(1, 2, 5), (2, 3, 7)])
        self.assertEqual((d[1][2], d[1][3], d[2][3], d[3][1]), (5, 12, 7, 12))


class ReferenceTest(unittest.TestCase):
    # sha256 of `treexact check` on make_case(1, n, i, perturb=True), as
    # printed by the program when the benchmark was introduced.
    RECORDED = {
        (24, 0): "e5caab0146d509935fa356323de77ffa8147f619598dafc27a87a978330989c2",
        (12, 1): "24c6a7d1902c3267a91f1b107baa8e43e868cade27ad4b930e5793453797d1ca",
        (7, 2): "2b77750e0e88c2370587ce8fb9273d2d42e3f2b7450b9bb948fc529a82fdebb8",
    }

    def test_reference_matches_recorded_digests(self):
        for (n, i), digest in self.RECORDED.items():
            text = reference.render(reference.check_report(gen.make_case(1, n, i, True).d)[0])
            self.assertEqual(hashlib.sha256(text.encode()).hexdigest(), digest)

    def test_tree_matrix_is_realizable(self):
        report, kinds = reference.check_report(gen.make_case(2, 9, 0).d)
        self.assertEqual(reference.render(report), reference.ALL_OK)
        self.assertEqual(sum(kinds.values()), 126)
        self.assertEqual(kinds[reference.VIOLATION], 0)


class ErrorRateTest(unittest.TestCase):
    def test_wrong_output_is_counted(self):
        import treexact.cli

        def main(argv):
            if argv[0] == "reconstruct" and argv[2].endswith("m1.csv"):
                print('{"n": 7, "edges": []}')
                return 0
            return treexact.cli.main(argv)

        wl = gen.WORKLOADS["small-census"]
        run.WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as directory:
            gen.write_inputs(wl, 3, wl.n, [0, 1, 2], directory)
            records = worker.run_cases(types.SimpleNamespace(main=main), wl, wl.n, [0, 1, 2], directory)
        attempted, failures = run._calls(verify.Checker(wl, 3), {"records": records, "other": []})
        self.assertEqual(attempted, 12)
        self.assertEqual(len(failures), 1)
        self.assertIn("reconstruct on case 1", failures[0])
        fake = {"metrics": {}, "notes": {}, "attempted": attempted, "failures": failures}
        self.assertIn("1 of 12 calls failed", "\n".join(run.summary("small-census", fake, False)))
        self.assertEqual(run.result_line(fake, False)["failed"], 1)

    def test_exception_and_wrong_exit_are_failures(self):
        checker = verify.Checker(gen.WORKLOADS["perturbed"], 1)

        def boom(argv):
            raise RuntimeError("boom")

        code = worker.call(boom, ["check"])[1]
        self.assertIn("RuntimeError", checker.problem("check", 7, 0, code, "", ""))
        self.assertIsNotNone(checker.problem("reconstruct", 7, 0, 0, "{}", ""))

    def test_long_check_report_is_judged_by_digest(self):
        checker = verify.Checker(gen.WORKLOADS["perturbed"], 1)
        text = reference.render(checker.report(24, 0)[0])
        self.assertGreater(len(text), verify.KEEP_CHARS)
        self.assertIsNone(checker.problem("check", 24, 0, 1, verify.keep(text), ""))
        wrong = text.replace('"best_l": 1,', '"best_l": 2,', 1)
        self.assertNotEqual(wrong, text)
        self.assertIsNotNone(checker.problem("check", 24, 0, 1, verify.keep(wrong), ""))


class SummaryTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(gen.WORKLOADS))

    def test_summary_names_every_metric_with_its_unit(self):
        for trace, units in ((False, {**run.END_TO_END, **run.SUMMARY_ONLY}), (True, run.PER_LAYER)):
            fake = {"metrics": dict.fromkeys(units, 1.5), "notes": {}, "attempted": 4, "failures": []}
            lines = run.summary("small-census", fake, trace)
            for name, unit in units.items():
                self.assertTrue(
                    any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines),
                    f"{name} [{unit}] missing from the summary",
                )
            line = run.result_line(fake, trace)
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(set(line["metrics"]), set(run.PER_LAYER if trace else run.END_TO_END))

    def test_tail_keeps_ten_samples_beyond(self):
        value, percentile, samples = run.tail([float(x) for x in range(40)])
        self.assertEqual((value, percentile, samples), (29.0, 75.0, 40))
        self.assertEqual(run.tail([3.0, 1.0, 2.0])[0], 3.0)


class CommandTest(unittest.TestCase):
    def test_one_short_run(self):
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "small-census", "--seed", "4",
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertIn("oracle_p50_s", done.stdout)

    def test_fails_without_the_program(self):
        run.WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as empty:
            shutil.copytree(ROOT / "bench", Path(empty) / "bench",
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", empty)
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "realizable", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=empty, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
