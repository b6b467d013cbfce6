"""Benchmark for giwa: one workload, one seed, one process, one thread.

Usage (from the repository root)::

    python3 bench/run.py --workload random-towers --seed 1 --seconds 30 --trace 0

The run is a closed loop with one client.  It draws pass i of the workload
from the seed, runs its jobs one after another (each under a per-job budget),
checks every answer, and repeats with the next pass until ``--seconds`` have
gone by (three passes at least).  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` the
run then replays pass 0 with spans around every call into ``giwa`` and
reports the per-layer metrics instead.  A record of the run (machine, seed,
inputs, every job's outcome) goes to ``.bench_out/`` under the repository
root, and the traced run's spans next to it.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import JOB, PASS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 3
REFERENCE_SAMPLES = 15      # reference timings before the first pass
REFERENCE_EVERY_S = 0.25    # job seconds between reference timings in a pass
REFERENCE_WINDOW = (3, 2)   # a job's reference: median of the 3 timings before it, 2 after
SETUP_SPAWNS = 21
# timings in seconds, reported as per-layer metrics by the traced run
RAW_TIMINGS = ("wall_s", "jobs_per_s", "job_p50_s", "job_tail_s", "reference_s")

# Times in reference units ("ref"): each job's seconds divided by the time of
# the reference computation below, timed near that job (see run_pass).
END_TO_END = {
    "wall_ref": "ref",
    "jobs_per_kref": "1/kref",
    "job_p50_ref": "ref",
    "job_tail_ref": "ref",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# per-layer metric -> unit; spans give "<span>.calls" and "<span>.self_s",
# the tracer's counters give the rest
PER_LAYER = {
    "graphs.kappa.calls": "count", "graphs.kappa.self_s": "s",
    "graphs.kappa.max_vertices": "count",
    "graphs.bareiss.calls": "count", "graphs.bareiss.self_s": "s",
    "graphs.bareiss.cells": "count", "graphs.bareiss.max_entry_bits": "bits",
    "iwasawa.invariants.self_s": "s", "iwasawa.characteristic_series.self_s": "s",
    "iwasawa.kappa_ord_sequence.self_s": "s", "iwasawa.kida_verify.self_s": "s",
    "iwasawa.uniform_tower_check.self_s": "s",
    "iwasawa.factorization_check.self_s": "s",
    "iwasawa.laurent_evals": "count", "iwasawa.p_builds": "count",
    "iwasawa.p_builds_per_tower": "ratio", "iwasawa.refusals": "count",
    "polys.interpolate.calls": "count", "polys.interpolate.self_s": "s",
    "polys.interpolate.max_points": "count",
    "series.ring_determinant.calls": "count", "series.ring_determinant.self_s": "s",
    "series.ring_determinant.max_n": "count", "series.binomial_series.self_s": "s",
    "series.mu_lambda.self_s": "s", "series.cap_doublings": "count",
    "series.precision_refusals": "count",
    "cyclotomic.mul.calls": "count", "cyclotomic.mul.self_s": "s",
    "cyclotomic.norm.calls": "count", "cyclotomic.norm.self_s": "s",
    "characters.all_characters.self_s": "s",
    "lfunctions.h_polynomial.calls": "count", "lfunctions.h_polynomial.self_s": "s",
    "lfunctions.artin_product_check.self_s": "s",
    "lfunctions.class_number_check.self_s": "s",
    "voltage.derived_graph.calls": "count", "voltage.derived_graph.self_s": "s",
    "voltage.derived_graph.max_vertices": "count",
    "voltage.connectedness.calls": "count", "voltage.connectedness.self_s": "s",
    "groups.closure.calls": "count", "groups.closure.self_s": "s",
    "groups.closure.max_elements": "count", "groups.sl2_level_quotient.self_s": "s",
    "cli.main.self_s": "s",
    "bench.job.self_s": "s",
    "trace.overhead_s": "s",
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "reference_s": "s",
    "failed_ratio": "ratio",
    "refused_ratio": "ratio",
}


class OverBudget(BaseException):
    """Raised by the budget alarm inside a job that ran too long."""


def _on_alarm(_signum, _frame):
    raise OverBudget()


def run_job(job, budget_s: float, refusals: tuple) -> tuple:
    """(outcome, seconds, answer or error text) for one job under the budget."""
    answer = None
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    start = time.perf_counter()
    try:
        answer = job.run(job)
        outcome = None
    except OverBudget:
        outcome = "over_budget"
    except refusals as exc:
        outcome, answer = "refused", f"{type(exc).__name__}: {exc}"
    except Exception:
        outcome, answer = "error", traceback.format_exc(limit=3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return outcome, time.perf_counter() - start, answer


# The 2-core machine the baseline was measured on changes speed by up to 50%
# for tens of seconds at a time, for identical work; at times
# interpreter-bound code slows most, at times memory-bound code.  So each
# untraced pass also times a fixed computation that does not use giwa and has
# three kinds of work: fraction-free elimination of a 24 x 24 matrix of 31-bit
# integers (big-integer arithmetic, like Bareiss on Laurent matrices); one
# sweep over 8000 integers of 1600 bits (1.6 MB, like the large level-graph
# Laplacians); and the product of two 40-term power series whose
# coefficients are small objects reduced mod 3^40 (interpreter-bound, like
# the truncated series).  Program changes cannot move it; the machine's
# drift moves it and the jobs alike, and dividing by it cancels most of that
# drift.  Without the third part the jobs of truncated-twisted slowed about
# as the reference time to the power 1.4.
_REFERENCE_RNG = random.Random("giwa-bench-reference")
REFERENCE_MATRIX = tuple(tuple(_REFERENCE_RNG.randint(-2**30, 2**30) for _ in range(24))
                         for _ in range(24))
REFERENCE_SWEEP = [_REFERENCE_RNG.getrandbits(1600) for _ in range(8000)]
_REFERENCE_MODULUS = 3 ** 40


class _Residue:
    """A residue mod 3^40 with a precision, as small as a truncated coefficient."""

    __slots__ = ("value", "precision")

    def __init__(self, value: int, precision: int):
        self.value, self.precision = value, precision

    def __add__(self, other):
        return _Residue((self.value + other.value) % _REFERENCE_MODULUS,
                        min(self.precision, other.precision))

    def __mul__(self, other):
        return _Residue(self.value * other.value % _REFERENCE_MODULUS,
                        min(self.precision, other.precision))


REFERENCE_SERIES = tuple(tuple(_Residue(_REFERENCE_RNG.randrange(_REFERENCE_MODULUS), 40)
                               for _ in range(40)) for _ in range(2))


def reference_seconds() -> float:
    """Seconds for one run of the reference computation."""
    start = time.perf_counter()
    a = [list(row) for row in REFERENCE_MATRIX]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        akk, row_k = a[k][k], a[k]
        for row in a[k + 1:]:
            aik = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * akk - aik * row_k[j]) // prev
        prev = akk
    acc = 0
    for x in REFERENCE_SWEEP:
        acc += x * 7 // 3
    f, g = REFERENCE_SERIES
    for _ in range(3):
        product = [_Residue(0, 40)] * len(f)
        for i, x in enumerate(f):
            for j in range(len(f) - i):
                product[i + j] = product[i + j] + x * g[j]
    return time.perf_counter() - start


def run_pass(jobs, budget_s: float, refusals: tuple, tracer=None) -> tuple:
    """Run every job of a pass.

    Returns (seconds spent in jobs, [(outcome, seconds, answer)], reference
    seconds per job).  An untraced pass times the reference before its first
    job, again whenever REFERENCE_EVERY_S of job time has gone by, and after
    its last job.  A job's reference is the median of the REFERENCE_WINDOW
    timings nearest to it, so a slow spell of the machine divides out of the
    jobs it slowed.  A traced pass times no reference and returns None.
    """
    results, samples, since = [], [], REFERENCE_EVERY_S
    if tracer is not None:
        tracer.enter(PASS)
    for i, job in enumerate(jobs):
        if tracer is None:
            if since >= REFERENCE_EVERY_S:
                samples.append((i, reference_seconds()))
                since = 0.0
        else:
            tracer.job(i)
            tracer.enter(JOB)
        results.append(run_job(job, budget_s, refusals))
        since += results[-1][1]
        if tracer is not None:
            tracer.unwind(2)      # the pass and job spans stay open
            tracer.leave()
    wall = sum(seconds for _outcome, seconds, _answer in results)
    if tracer is not None:
        tracer.job(-1)
        tracer.leave()
        return wall, results, None
    samples.append((len(jobs), reference_seconds()))
    return wall, results, job_references(samples, len(jobs))


def job_references(samples, n_jobs: int) -> list:
    """Each job's reference seconds, from (jobs run before it, seconds) timings."""
    before, after = REFERENCE_WINDOW
    out = []
    for i in range(n_jobs):
        taken = sum(1 for position, _ in samples if position <= i)
        window = samples[max(0, taken - before):taken + after]
        out.append(statistics.median(seconds for _, seconds in window))
    return out


def classify(job, outcome, answer) -> tuple:
    """(outcome, detail): an answer the job's check rejects is "wrong"."""
    if outcome is not None:
        return outcome, answer if outcome == "error" else None
    try:
        return job.check(job, answer), None
    except Exception:
        return "error", traceback.format_exc(limit=3)


SETUP_CODE = ("import time; t = time.perf_counter(); import giwa, giwa.cli; "
              "print(time.perf_counter() - t)")


def measure_setup(n: int) -> float:
    """Median seconds a fresh interpreter spends importing giwa and its CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times = []
    for _ in range(n):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout))
    return statistics.median(times)


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        # the ceiling keeps git from looking for a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "platform": platform.platform(),
            "git_commit": commit}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _percentile(sorted_values, p):
    if len(sorted_values) >= 2:
        return statistics.quantiles(sorted_values, n=100, method="inclusive")[p - 1]
    return sorted_values[-1] if sorted_values else float("nan")


def timings(walls, records, tail_percentile: int) -> tuple:
    """Pass and job times in seconds and in reference units, over verified jobs.

    walls[i] is pass i's job seconds; every record holds its job's seconds
    and reference seconds.  Returns (values by metric name, tail percentile
    details).
    """
    ok = [r for r in records if r["outcome"] == "ok"]
    lat_s = sorted(r["seconds"] for r in ok)
    lat_ref = sorted(r["seconds"] / r["ref"] for r in ok)
    walls_ref = [0.0] * len(walls)
    for r in records:
        walls_ref[r["pass"]] += r["seconds"] / r["ref"]
    values = {
        "wall_s": statistics.median(walls),
        "jobs_per_s": len(ok) / sum(walls),
        "job_p50_s": _percentile(lat_s, 50),
        "job_tail_s": _percentile(lat_s, tail_percentile),
        "reference_s": statistics.median(r["ref"] for r in records),
        "wall_ref": statistics.median(walls_ref),
        "jobs_per_kref": 1000 * len(ok) / sum(walls_ref),
        "job_p50_ref": _percentile(lat_ref, 50),
        "job_tail_ref": _percentile(lat_ref, tail_percentile),
    }
    tail = values["job_tail_ref"]
    tail_info = {"percentile": tail_percentile, "samples": len(lat_ref),
                 "beyond": sum(1 for x in lat_ref if x > tail)}
    return values, tail_info


def per_layer(tracer, overhead_s, failed_ratio, refused_ratio, raw) -> dict:
    self_s, calls = tracer.self_seconds()
    counters = dict(tracer.counters)
    builds = counters.get("iwasawa.p_builds", 0)
    counters["iwasawa.p_builds_per_tower"] = len(tracer.towers) / builds if builds else 0.0
    counters["trace.overhead_s"] = overhead_s
    counters["failed_ratio"] = failed_ratio
    counters["refused_ratio"] = refused_ratio
    counters.update(raw)
    out = {}
    for name, unit in PER_LAYER.items():
        span, _, suffix = name.rpartition(".")
        if suffix == "self_s":
            value = self_s.get(span, 0.0)
        elif suffix == "calls":
            value = calls.get(span, 0)
        else:
            value = counters.get(name, 0)
        out[name] = _metric(value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "giwa" / "__init__.py").is_file():
        print(f"error: no giwa sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import giwa
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    generate = workloads.WORKLOADS[args.workload]
    refusals = (giwa.PrecisionError, giwa.ResourceLimitError)
    budget_ref = workloads.BUDGET_REF[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    OUT.mkdir(exist_ok=True)
    host = machine()
    host["load_before"] = os.getloadavg()
    setup_s = measure_setup(SETUP_SPAWNS) if args.trace == 0 else None

    # untraced passes: these give the end-to-end metrics
    # each pass's budget in seconds comes from the previous pass's reference
    walls, refs, budgets, records = [], [], [], []
    ref = statistics.median(reference_seconds() for _ in range(REFERENCE_SAMPLES))
    started = time.perf_counter()
    index = 0
    while index < MIN_PASSES or time.perf_counter() - started < args.seconds:
        jobs = generate(args.seed, index)
        budgets.append(budget_ref * ref)
        wall, results, job_refs = run_pass(jobs, budgets[-1], refusals)
        ref = statistics.median(job_refs)
        walls.append(wall)
        refs.append(ref)
        for i, (job, (outcome, seconds, answer)) in enumerate(zip(jobs, results)):
            outcome, detail = classify(job, outcome, answer)
            records.append({"pass": index, "job": i, "kind": job.kind,
                            "outcome": outcome, "seconds": seconds, "ref": job_refs[i],
                            "inputs": job.summary, "detail": detail})
        index += 1
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(records)
    failed = sum(1 for r in records if r["outcome"] in ("wrong", "error", "over_budget"))
    refused = sum(1 for r in records if r["outcome"] == "refused")
    correct = True
    notes = []
    values, tail_info = timings(walls, records, workloads.TAIL_PERCENTILE[args.workload])

    if args.trace == 0:
        values.update(setup_s=setup_s, peak_rss_mib=rss_mib)
        metrics = {k: _metric(values[k], unit) for k, unit in END_TO_END.items()}
    else:
        # replay pass 0 with spans; outcomes must repeat exactly
        tracer = Tracer()
        jobs = generate(args.seed, 0)
        tracer.install()
        try:
            traced_wall, results, _ = run_pass(jobs, budget_ref * statistics.median(refs),
                                               refusals, tracer)
        finally:
            tracer.uninstall()
        for i, (job, (outcome, _seconds, answer)) in enumerate(zip(jobs, results)):
            traced = classify(job, outcome, answer)[0]
            if traced != records[i]["outcome"]:
                correct = False
                notes.append(f"traced job {i} gave {traced!r}, untraced "
                             f"{records[i]['outcome']!r}")
        tree_ok, message = tracer.check_tree()
        if not tree_ok:
            correct = False
            notes.append(f"span tree: {message}")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
        n_spans = tracer.write(spans_path)
        notes.append(f"{n_spans} spans written to {spans_path.relative_to(ROOT)}")
        notes.append(f"traced minus untraced wall of pass 0: {traced_wall - walls[0]:.3f} s "
                     f"(machine drift included)")
        raw = {k: values[k] for k in RAW_TIMINGS}
        metrics = per_layer(tracer, tracer.overhead_seconds(), failed / attempted,
                            refused / attempted, raw)

    host["load_after"] = os.getloadavg()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "budget_ref": budget_ref,
              "pass_budget_s": budgets, "machine": host,
              "passes": len(walls), "pass_walls_s": walls, "pass_reference_s": refs,
              "timings": values, "tail": tail_info,
              "attempted": attempted, "failed": failed, "refused": refused,
              "outcomes": {k: sum(1 for r in records if r["outcome"] == k)
                           for k in ("ok", "wrong", "error", "over_budget", "refused")},
              "notes": notes, "metrics": metrics, "jobs": records}
    record_path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload} seed {args.seed}: {len(walls)} passes, "
          f"{attempted} jobs, {record['outcomes']}; record in "
          f"{record_path.relative_to(ROOT)}")
    print("machine " + json.dumps(host))
    print(f"job tail is p{tail_info['percentile']} of {tail_info['samples']} "
          f"verified jobs, {tail_info['beyond']} beyond it")
    print("timings " + json.dumps(values))
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
