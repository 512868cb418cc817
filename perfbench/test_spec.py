"""Tests of the BENCHMARK.json writer and reader:
python3 -m unittest discover perfbench"""

import copy
import json
import os
import tempfile
import unittest

import spec


def good():
    return spec.benchmark_json()


class Writer(unittest.TestCase):
    def test_round_trip(self):
        with tempfile.TemporaryDirectory() as d:
            os.mkdir(os.path.join(d, "perfbench"))
            spec.write(d)
            self.assertEqual(spec.read(os.path.join(d, "BENCHMARK.json")), good())
            with open(os.path.join(d, "perfbench", "design.json")) as f:
                self.assertEqual(json.load(f), spec.design_json())

    def test_committed_files_are_current(self):
        with open(spec.BENCHMARK_JSON) as f:
            self.assertEqual(f.read(), spec.dumps(good()))
        with open(spec.DESIGN_JSON) as f:
            self.assertEqual(f.read(), spec.dumps(spec.design_json()))

    def test_daemon_epochs_match_the_workload(self):
        src = os.path.join(spec.HERE, "ocaml", "perfbench.ml")
        with open(src) as f:
            lines = [l for l in f if l.startswith("let daemon_epochs = ")]
        self.assertEqual(lines, ["let daemon_epochs = %d\n" % spec.DAEMON_EPOCHS])

    def test_only_format_keys(self):
        b = good()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})


class Design(unittest.TestCase):
    def test_references_resolve(self):
        workloads = {w["name"] for w in spec.WORKLOADS}
        metrics = {m["name"] for m in spec.END_TO_END} | {
            m["name"] for m in spec.PER_LAYER}
        for m in spec.PER_LAYER:
            self.assertTrue(set(m["workloads"]) <= workloads, m["name"])
            self.assertTrue(set(m["no_change_on"]) <= workloads, m["name"])
            for mv in m["moves"]:
                self.assertIn(mv["workload"], workloads, m["name"])
                self.assertIn(mv["metric"], metrics, m["name"])

    def test_every_workload_records_its_shape(self):
        for w in spec.WORKLOADS:
            for k in ("loop", "callers", "seed", "exercises", "bypasses", "why"):
                self.assertIn(k, w)
            self.assertEqual(w["loop"], "closed")

    def test_held_out_workloads_stay_out_of_benchmark_json(self):
        listed = {w["name"] for w in good()["workloads"]}
        self.assertTrue(spec.HELD_OUT)
        self.assertEqual(listed, set(spec.ALL) - set(spec.HELD_OUT))
        self.assertEqual(set(spec.design_json()["held_out"]), set(spec.HELD_OUT))
        full = spec.benchmark_json(held_out=True)
        self.assertEqual({w["name"] for w in full["workloads"]}, set(spec.ALL))
        self.assertEqual(len(full["per_layer"]), len(spec.PER_LAYER))
        spec.validate(full)

    def test_listed_layer_metrics_are_measured_on_a_listed_workload(self):
        design = {m["name"]: m for m in spec.PER_LAYER}
        for m in good()["per_layer"]:
            self.assertTrue(set(design[m["name"]]["workloads"]) & set(spec.LISTED),
                            m["name"])

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in spec.END_TO_END}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class Reader(unittest.TestCase):
    def rejects(self, mutate):
        b = copy.deepcopy(good())
        mutate(b)
        with self.assertRaises(spec.FormatError):
            spec.validate(b)

    def test_accepts_the_spec(self):
        spec.validate(good())

    def test_extra_top_level_key(self):
        self.rejects(lambda b: b.update(extra=1))

    def test_missing_setup(self):
        self.rejects(lambda b: b.update(end_to_end=[
            m for m in b["end_to_end"] if m["name"] != "setup_s"]))

    def test_bound_too_large(self):
        self.rejects(lambda b: b["end_to_end"][1].update(bound=0.3))

    def test_bound_on_a_layer(self):
        self.rejects(lambda b: b["per_layer"][0].update(bound=0.1))

    def test_duplicate_name(self):
        self.rejects(lambda b: b["per_layer"].append(dict(b["per_layer"][0])))

    def test_bad_unit(self):
        self.rejects(lambda b: b["end_to_end"][0].update(unit="seconds per run"))

    def test_bad_direction(self):
        self.rejects(lambda b: b["end_to_end"][0].update(better="smaller"))

    def test_multiline_why(self):
        self.rejects(lambda b: b["workloads"][0].update(why="a\nb"))

    def test_long_why(self):
        self.rejects(lambda b: b["workloads"][0].update(why="x" * 201))

    def test_run_seconds(self):
        self.rejects(lambda b: b.update(run_seconds=0))
        self.rejects(lambda b: b.update(run_seconds=61))
        self.rejects(lambda b: b.update(run_seconds=2.5))

    def test_paths_leave_repo(self):
        self.rejects(lambda b: b.update(paths=["../elsewhere"]))
        self.rejects(lambda b: b.update(paths=["/abs"]))

    def test_command_leaves_repo(self):
        self.rejects(lambda b: b.update(command=["python3", "/tmp/run.py"]))

    def test_one_workload_is_too_few(self):
        self.rejects(lambda b: b.update(workloads=b["workloads"][:1]))


if __name__ == "__main__":
    unittest.main()
