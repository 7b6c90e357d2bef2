"""Self-test of the benchmark: its oracles pass real trilie outputs and
reject planted corruptions, its generated documents satisfy the bracket
relations, and BENCHMARK.json lists exactly the metrics it reports.

Run from the repository root: python3 bench/selftest.py
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from fractions import Fraction

import decks
import oracles
import run
import tracer

sys.path.insert(0, str(run.SRC))


def _small_jobs(workload: str) -> tuple[dict, list]:
    """The deck's cheapest job of each kind, run on seed 0."""
    modules, deck = run.set_up(workload, 0)
    cheapest = {}
    for job in deck:
        cost = len(job.stdin or "") + sum(
            v for v in job.params.values() if isinstance(v, int))
        if job.kind not in cheapest or cost < cheapest[job.kind][0]:
            cheapest[job.kind] = (cost, job)
    return modules, [job for _, job in cheapest.values()]


def _outputs(workload: str) -> list[tuple]:
    modules, jobs = _small_jobs(workload)
    out = []
    for job in jobs:
        rc, text = run.execute(job, modules).split("\n", 1)
        out.append((job, int(rc), text))
    return out


def _edit(text: str, change) -> str:
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc)


def _corruptions(job, rc: int, text: str):
    """(label, rc, text) variants of a right output that are wrong."""
    if job.kind == "survey":
        yield "cell dim", rc, _edit(text, lambda d: d["cells"][-1].update(
            dim=1 - d["cells"][-1]["dim"]))
        yield "cell dropped", rc, _edit(text, lambda d: d["cells"].pop())
        yield "exit code", 1, text
    elif job.kind in ("check", "verify"):
        yield "all_pass", rc, _edit(text, lambda d: d.update(all_pass=False))
        yield "exit code", 1, text
    elif job.kind == "adjoint":
        def shift(d):
            d["conjugated_levi_basis"][0][-1] = str(
                Fraction(d["conjugated_levi_basis"][0][-1]) + 1)
        yield "conjugated basis", rc, _edit(text, shift)
    else:
        def flip(d):
            d["homomorphism"] = not d["homomorphism"]
        yield "homomorphism", rc, _edit(text, flip)
        yield "exit code", 1 - rc, text
    yield "truncated", rc, text[: len(text) // 2]


class OracleTest(unittest.TestCase):
    def test_oracles_accept_outputs_and_reject_corruptions(self):
        for workload in decks.WORKLOADS:
            for job, rc, text in _outputs(workload):
                with self.subTest(workload=workload, kind=job.kind):
                    self.assertIsNone(oracles.check_output(job, rc, text))
                    for label, bad_rc, bad in _corruptions(job, rc, text):
                        self.assertIsNotNone(
                            oracles.check_output(job, bad_rc, bad), label)

    def test_audit_oracle_sees_both_verdicts(self):
        # the deck must hold family modules that are and are not homomorphisms
        modules, deck = run.set_up("audit", 0)
        verdicts = {oracles.is_homomorphism(json.loads(job.stdin))
                    for job in deck if job.kind == "audit"}
        self.assertEqual(verdicts, {True, False})


class DocumentTest(unittest.TestCase):
    def test_generated_representations_are_homomorphisms(self):
        modules, _ = run.set_up("survey", 0)
        cli = modules["cli"]
        rng = random.Random(0)
        for lam, n, m in decks.TWO_BLOCK_CELLS[:6]:
            algebra = json.loads(decks._gen(cli, ("gen", "sl2l", "--lambda", str(lam))))
            doc = decks.two_block_document(algebra, lam, n, m, Fraction(-1, 2), rng)
            self.assertTrue(oracles.is_homomorphism(doc), (lam, n, m))
        for k in (3, 5):
            algebra = json.loads(decks._gen(cli, ("gen", "sl2l", "--lambda", str(k))))
            order = list(range(k + 4))
            rng.shuffle(order)
            doc = decks.adjoint_document(decks.permute_algebra(algebra, order), rng)
            self.assertTrue(oracles.is_homomorphism(doc), k)

    def test_no_intertwiner_outside_clebsch_gordan(self):
        with self.assertRaises(ValueError):
            decks.highest_weight_block(1, 2, 4, Fraction(1))


class BenchmarkJsonTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            spec["per_layer"],
            [{"name": name, "unit": tracer.unit_of(name),
              "better": tracer.better_of(name)} for name in tracer.LAYER_METRICS])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(decks.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END_UNITS.items()))


if __name__ == "__main__":
    unittest.main()
