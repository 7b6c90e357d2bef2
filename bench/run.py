"""trilie benchmark: one seeded workload, one process, one thread.

Run from the repository root:

    python3 bench/run.py --workload survey --seed 1 --seconds 30 --trace 0

The workload is a closed loop with one client: it runs its job deck
(see decks.py) pass after pass, each job right after the previous one
returns, until `--seconds` have passed at the end of a whole pass. The
oracles in oracles.py then check every job's output. All reported
times are scaled to calibration speed (see speed.py); the raw ones go
into the run context.

With `--trace 0` the last stdout line reports the end-to-end metrics.
With `--trace 1` the run measures half its time untraced and half
traced (tracer.py) and reports the per-layer metrics, after checking
that both halves produced the same output digest. The line before the
last holds the run context; the same report, and the spans of a traced
run, are written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import decks
import oracles
import speed
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPS = 5  # set-ups per benchmark run; setup_s is their median
TAIL_BEYOND = 10  # the tail percentile leaves this many deck jobs above it
MODULES = ("exact", "liealg", "graded", "rep", "sl2theory", "family",
           "classify", "jsonio", "cli")


def set_up(workload: str, seed: int):
    """Import trilie afresh and build the deck; returns (modules, deck)."""
    for name in [n for n in sys.modules if n == "trilie" or n.startswith("trilie.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"trilie.{name}") for name in MODULES}
    return modules, decks.build_deck(workload, seed, modules["cli"])


def execute(job: decks.Job, modules: dict) -> str:
    """Run one job; its output is the exit code, stdout and stderr as one string."""
    if job.kind == "adjoint":
        liealg, rep = modules["liealg"], modules["rep"]
        algebra, levi = liealg.build_sl2_lambda(job.params["k"])
        grading = liealg.adjoint_grading(algebra, levi)
        rho = liealg.adjoint_representation(algebra, grading)
        report = rep.conjugate_levi_check(rho, job.params["z"])
        return "0\n" + json.dumps(report, default=str)
    rc, out, err = decks.call_cli(modules["cli"], job.argv, job.stdin)
    return f"{rc}\n{out}{err}"


class Segment:
    """Whole passes over the deck for at least `seconds`.

    Job times are wall times scaled to calibration speed (speed.py); the
    raw wall times are kept for the run context.
    """

    def __init__(self, deck, modules, seconds: float, trace=None):
        self.deck = deck
        self.raw_ns: list[int] = []
        self.first: list[str | None] = []  # first-pass outputs, None if raised
        self.mismatched = 0  # later outputs that differ from the first pass
        self.passes = 0
        self.speed = speed.Speed()
        start = time.perf_counter()
        while True:
            for j, job in enumerate(deck):
                if trace is not None:
                    trace.job = len(self.raw_ns)
                self.speed.mark()
                t0 = time.perf_counter_ns()
                try:
                    out = execute(job, modules)
                except Exception as exc:  # a traceback is a failed job
                    out = None
                    error = f"{type(exc).__name__}: {exc}"
                self.raw_ns.append(time.perf_counter_ns() - t0)
                self.speed.maybe_sample()
                if self.passes == 0:
                    self.first.append(out)
                    if out is None:
                        print(f"job {j} ({job.kind} {job.size()}) raised {error}",
                              file=sys.stderr)
                elif out is None or out != self.first[j]:
                    self.mismatched += 1
            self.passes += 1
            if time.perf_counter() - start >= seconds:
                break
        self.elapsed = time.perf_counter() - start
        self.scale = self.speed.close()
        self.times_ns = [t * f for t, f in zip(self.raw_ns, self.scale)]

    def jobs_per_s(self) -> float:
        """Job runs per second of job time, at calibration speed."""
        return len(self.times_ns) / (sum(self.times_ns) / 1e9)

    def job_costs_ns(self) -> list[float]:
        """Each deck job's median time over the passes, ascending."""
        d = len(self.deck)
        return sorted(statistics.median(self.times_ns[j::d]) for j in range(d))

    def digest(self) -> str:
        h = hashlib.sha256()
        for out in self.first:
            h.update(b"raised\0" if out is None else out.encode() + b"\0")
        return h.hexdigest()

    def failures(self) -> int:
        """Failed job runs: raised, differed from the first pass, or the
        first-pass output failed its oracle (which fails every repeat)."""
        failed = self.mismatched
        for j, (job, out) in enumerate(zip(self.deck, self.first)):
            if out is None:
                reason = "raised"
            else:
                rc, text = out.split("\n", 1)
                reason = oracles.check_output(job, int(rc), text)
            if reason is not None:
                failed += self.passes
                print(f"job {j} ({job.kind} {job.size()}) failed: {reason}",
                      file=sys.stderr)
        return failed


def nearest_rank(sorted_values: list, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def end_to_end(seg: Segment, setup_s: float, failed: int) -> tuple[dict, dict]:
    """The end-to-end metrics, plus how the tail was taken.

    Job percentiles are over the deck jobs, each timed by its median
    over the passes. The tail is the highest percentile that leaves
    TAIL_BEYOND deck jobs above it, so it does not depend on how many
    passes fit into the run.
    """
    costs = seg.job_costs_ns()
    q = 1 - TAIL_BEYOND / len(costs)
    values = {
        "setup_s": setup_s,
        "jobs_per_s": seg.jobs_per_s(),
        "job_p50_ms": statistics.median(costs) / 1e6,
        "job_tail_ms": nearest_rank(costs, q) / 1e6,
        "pass_ratio": 1 - failed / len(seg.times_ns),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail = {"percentile": round(100 * q, 2), "deck_jobs": len(costs),
            "deck_jobs_beyond": TAIL_BEYOND, "job_runs": len(seg.times_ns)}
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}, tail


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "trilie").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def context(args, seg: Segment, setup_raw_s: list, attempted: int, failed: int) -> dict:
    kinds: dict[str, int] = {}
    for job in seg.deck:
        kinds[job.kind] = kinds.get(job.kind, 0) + 1
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "deck_jobs": len(seg.deck),
        "job_mix": kinds,
        "job_sizes": [f"{job.kind}:{job.size()}" for job in seg.deck],
        "passes": seg.passes,
        "job_runs": len(seg.times_ns),
        "fail_ratio": failed / attempted,
        "calibration_ms": seg.speed.median_ms(),
        "raw_jobs_per_s": len(seg.raw_ns) / (sum(seg.raw_ns) / 1e9),
        "raw_setup_s": setup_raw_s,
        "job_costs_ms": [round(c / 1e6, 3) for c in seg.job_costs_ns()],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=decks.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trilie" / "__init__.py").is_file():
        print(f"error: no trilie sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_speed = speed.Speed()
    setup_raw = []
    for _ in range(SETUP_REPS):
        setup_speed.mark()
        t0 = time.perf_counter()
        modules, deck = set_up(args.workload, args.seed)
        setup_raw.append(time.perf_counter() - t0)
        setup_speed.sample()
    setup_s = statistics.median(
        t * f for t, f in zip(setup_raw, setup_speed.close()))
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        print("error: imported trilie from outside the checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        seg = Segment(deck, modules, args.seconds)
        failed = seg.failures()
        attempted = len(seg.times_ns)
        measured, tail = end_to_end(seg, setup_s, failed)
        ctx = context(args, seg, setup_raw, attempted, failed)
        ctx.update(digest=seg.digest(), tail=tail)
        correct = failed == 0
    else:
        plain = Segment(deck, modules, args.seconds / 2)
        trace = tracer.Tracer()
        trace.install(modules)
        try:
            seg = Segment(deck, modules, args.seconds / 2, trace)
        finally:
            trace.uninstall()
        failed = plain.failures() + seg.failures()
        attempted = len(plain.times_ns) + len(seg.times_ns)
        measured = {name: (value, tracer.unit_of(name)) for name, value
                    in trace.layer_metrics(seg.passes, seg.scale).items()}
        overhead = plain.jobs_per_s() / seg.jobs_per_s() - 1
        measured["trace.overhead_ratio"] = (overhead, "ratio")
        ctx = context(args, seg, setup_raw, attempted, failed)
        totals = {name: value for name, (value, _) in measured.items()
                  if name.endswith(".total_s") and name != "cli.run.total_s"}
        ctx.update(digest=plain.digest(), traced_digest=seg.digest(),
                   spans=len(trace.names), job_s_per_pass=sum(seg.times_ns) / 1e9 / seg.passes,
                   largest_inclusive_layer=max(totals, key=totals.get))
        correct = failed == 0 and plain.digest() == seg.digest()
        trace.write_spans(OUT / f"spans-{args.workload}.tsv")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in measured.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({"context": ctx, **result}, indent=1) + "\n")
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
