"""Each correctness check accepts a right output and rejects a corrupted one.

    python3 -m pytest bench/test_checks.py     (or: python3 bench/test_checks.py)
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

# Complete graph: a triangle a-b-c with pendant d on a, and a path c-e-f.
ADJ = {
    "a": {"b", "c", "d"},
    "b": {"a", "c"},
    "c": {"a", "b", "e"},
    "d": {"a"},
    "e": {"c", "f"},
    "f": {"e"},
}


def observed_text(edges, status) -> str:
    lines = ["# netprobe observed graph v1", "[edges]"]
    lines += [f"{u} {v}" for u, v in sorted(edges)]
    lines += ["[status]"] + [f"{u} {s}" for u, s in sorted(status.items())]
    return "\n".join(lines) + "\n"


def log_text(rows) -> str:
    lines = ["phase,node,new_nodes,new_edges,spent_after"]
    lines += [f"selection,{u},{n},{e},{i}" for i, (u, n, e) in enumerate(rows, start=1)]
    return "\n".join(lines) + "\n"


IN_TEXT = observed_text([("a", "b"), ("a", "c")], {"a": "C", "b": "C", "c": "C"})
# probing c reveals e and the edges b-c and c-e
OUT_TEXT = observed_text(
    [("a", "b"), ("a", "c"), ("b", "c"), ("c", "e")],
    {"a": "C", "b": "C", "c": "E", "e": "C"},
)
LOG_TEXT = log_text([("c", 1, 2)])


def sweep_rows():
    def row(strategy, before, after, improvement):
        return {
            "sampler": "rw", "strategy": strategy, "budget_fraction": 0.05,
            "repeat": 0, "seed": 11, "nodes_before": before, "nodes_after": after,
            "probes_spent": 5, "improvement_vs_random": improvement,
        }

    return [
        row("maxoutprobe", 40, 60, 50.0),
        row("highdeg", 40, 50, 25.0),
        row("random", 40, 40, 0.0),
    ]


class SweepChecks(unittest.TestCase):
    def test_right_rows_pass(self):
        self.assertEqual(checks.check_sweep_rows(sweep_rows(), 100), [])
        self.assertEqual(checks.check_mean_improvement(sweep_rows(), "maxoutprobe"), [])

    def test_corrupted_rows_fail(self):
        corruptions = [
            ("probes_spent", 4),
            ("nodes_after", 101),
            ("nodes_before", 61),
            ("improvement_vs_random", 49.0),
        ]
        for key, value in corruptions:
            rows = sweep_rows()
            rows[0][key] = value
            self.assertTrue(checks.check_sweep_rows(rows, 100), key)
        rows = sweep_rows()
        rows[2]["seed"] = 12  # the baseline is no longer on the same sample
        self.assertTrue(checks.check_sweep_rows(rows, 100))

    def test_no_improvement_fails(self):
        rows = sweep_rows()
        rows[0]["improvement_vs_random"] = -1.0
        self.assertTrue(checks.check_mean_improvement(rows, "maxoutprobe"))


class ReplayChecks(unittest.TestCase):
    def test_probe_closure(self):
        # V_before {a, b, c}; probing c adds e
        self.assertEqual(checks.check_probe_closure(ADJ, {"a", "b", "c"}, ["c"], 4), [])
        self.assertTrue(checks.check_probe_closure(ADJ, {"a", "b", "c"}, ["c"], 5))

    def test_top_by_clustering(self):
        edges = [("a", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("c", "e")]
        candidates = ["a", "b", "d", "e"]  # clustering 1/3, 1, 0, 0
        self.assertEqual(checks.check_top_by_clustering(edges, candidates, ["b", "a"], 2), [])
        # d and e tie at 0: either may take the last place
        self.assertEqual(checks.check_top_by_clustering(edges, candidates, ["b", "a", "e"], 3), [])
        self.assertTrue(checks.check_top_by_clustering(edges, candidates, ["b", "d"], 2))
        self.assertTrue(checks.check_top_by_clustering(edges, candidates, ["b", "b"], 2))

    def test_modularity(self):
        edges = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "e"), ("e", "f")]
        partition = {"a": 0, "b": 0, "c": 0, "e": 1, "f": 1}
        # 2 communities: within 3/5 + 1/5, degrees 7 and 3 of 2m = 10
        q = 4 / 5 - (7 / 10) ** 2 - (3 / 10) ** 2
        self.assertEqual(checks.check_modularity(edges, partition, q), [])
        self.assertTrue(checks.check_modularity(edges, partition, q + 0.01))
        del partition["f"]
        self.assertTrue(checks.check_modularity(edges, partition, q))


class SessionChecks(unittest.TestCase):
    def test_right_session_passes(self):
        self.assertEqual(checks.check_session(ADJ, IN_TEXT, OUT_TEXT, LOG_TEXT, 1), [])

    def test_corrupted_sessions_fail(self):
        missing_edge = OUT_TEXT.replace("c e\n", "")
        self.assertTrue(checks.check_session(ADJ, IN_TEXT, missing_edge, LOG_TEXT, 1))
        unexplored = OUT_TEXT.replace("c E", "c C")
        self.assertTrue(checks.check_session(ADJ, IN_TEXT, unexplored, LOG_TEXT, 1))
        self.assertTrue(checks.check_session(ADJ, IN_TEXT, OUT_TEXT, LOG_TEXT, 2))
        twice = log_text([("c", 1, 2), ("c", 0, 0)])
        self.assertTrue(checks.check_session(ADJ, IN_TEXT, OUT_TEXT, twice, 2))
        unseen = log_text([("f", 1, 1)])
        self.assertTrue(checks.check_session(ADJ, IN_TEXT, OUT_TEXT, unseen, 1))
        explored_in = IN_TEXT.replace("c C", "c E")
        self.assertTrue(checks.check_session(ADJ, explored_in, OUT_TEXT, LOG_TEXT, 1))
        wrong_gain = log_text([("c", 2, 2)])
        self.assertTrue(checks.check_session(ADJ, IN_TEXT, OUT_TEXT, wrong_gain, 1))

    def test_estimate_bounds(self):
        self.assertEqual(checks.check_estimate({"m_hat": 1.0, "c_hat": 0.3}), [])
        self.assertTrue(checks.check_estimate({"m_hat": 0.9, "c_hat": 0.3}))
        self.assertTrue(checks.check_estimate({"m_hat": 2.0, "c_hat": 1.2}))
        self.assertTrue(checks.check_estimate({"m_hat": 2.0, "c_hat": -0.1}))

    def test_known_estimate(self):
        # OUT_TEXT as an input: one triangle, wedges 1 + 1 + 3 + 0 = 5, so
        # transitivity 3/5
        f = 0.8
        right = {"c_hat": 0.6 / f, "m_hat": 1 / f}
        self.assertEqual(checks.check_known_estimate(OUT_TEXT, "edge", f, right), [])
        self.assertTrue(checks.check_known_estimate(OUT_TEXT, "edge", f, {**right, "c_hat": 0.6}))
        f = 0.5  # triangle survives with 1/2, wedge with 5/8
        right = {"c_hat": 0.6 * 1.25, "m_hat": 2.0}
        self.assertEqual(checks.check_known_estimate(OUT_TEXT, "node", f, right), [])
        self.assertTrue(checks.check_known_estimate(OUT_TEXT, "node", f, {**right, "c_hat": 0.6}))
        self.assertTrue(checks.check_known_estimate(OUT_TEXT, "node", f, {**right, "m_hat": 3.0}))


if __name__ == "__main__":
    unittest.main()
