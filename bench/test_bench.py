"""Tests of the benchmark itself: seeded inputs, metric names, and a tiny smoke pass.

Run with ``python3 -m pytest bench/test_bench.py``.
"""

import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import giwa  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
REFUSALS = (giwa.PrecisionError, giwa.ResourceLimitError)
BUDGET_S = 60.0


def _inputs(jobs):
    return [(job.kind, job.inputs, job.expected) for job in jobs]


def test_generator_is_deterministic_per_seed():
    for name, generate in workloads.WORKLOADS.items():
        first = _inputs(generate(7, 1))
        assert first == _inputs(generate(7, 1)), name
        if name != "paper-examples":
            assert first != _inputs(generate(8, 1)), name
            assert first != _inputs(generate(7, 2)), name


def test_strata_sizes_are_fixed():
    kinds = [sorted(job.kind for job in workloads.random_towers(seed, 0)) for seed in (1, 2)]
    assert kinds[0] == kinds[1]
    assert kinds[0].count("heavy") == 1
    passes = [workloads.truncated_twisted(seed, 0) for seed in (1, 2)]
    assert sorted(job.kind for job in passes[0]) == sorted(job.kind for job in passes[1])
    for jobs in passes:
        deep = [job for job in jobs if job.kind == "truncated-deep"]
        assert [job.inputs["cap"] for job in sorted(deep, key=lambda j: j.inputs["cap"])] == [16, 32]
        for job in jobs:
            if job.kind == "truncated-shallow":
                assert job.expected[1] + 1 < workloads.LAMBDA_F_BELOW


def test_metric_names_match_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])


def test_tracer_restores_every_hook():
    before = (giwa.bareiss_determinant, giwa.iwasawa.bareiss_determinant,
              giwa.cyclotomic.CyclotomicElement.__mul__)
    tracer = Tracer()
    tracer.install()
    assert giwa.iwasawa.bareiss_determinant is not before[1]
    tracer.uninstall()
    after = (giwa.bareiss_determinant, giwa.iwasawa.bareiss_determinant,
             giwa.cyclotomic.CyclotomicElement.__mul__)
    assert before == after


def test_tiny_smoke_pass_checks_and_traces():
    for name, generate in workloads.WORKLOADS.items():
        jobs = generate(1, 0, tiny=True)
        tracer = Tracer()
        tracer.install()
        try:
            wall, results, _ = run.run_pass(jobs, BUDGET_S, REFUSALS, tracer)
        finally:
            tracer.uninstall()
        outcomes = [run.classify(job, *result[::2])[0] for job, result in zip(jobs, results)]
        assert outcomes == ["ok"] * len(jobs), (name, outcomes)
        assert tracer.check_tree() == (True, "ok")
        assert 0 < tracer.overhead_seconds() < wall
        metrics = run.per_layer(tracer, 0.0, 0.0, 0.0, dict.fromkeys(run.RAW_TIMINGS, 0.0))
        assert set(metrics) == set(run.PER_LAYER)
        assert wall > 0


def test_truncated_defect_is_counted_wrong():
    """The ex1 pullback at voltage precision 40 reports mu > 0 at caps 16 and 32."""
    for cap, reported in ((16, (5, 11)), (32, (3, 23))):
        job = workloads._truncated_job(
            "truncated-deep", dict(workloads.EX1_PULLBACK, precision=40, cap=cap))
        assert job.expected == (0, 53)
        outcome, _seconds, answer = run.run_job(job, BUDGET_S, REFUSALS)
        assert outcome is None and answer == reported
        assert run.classify(job, outcome, answer) == ("wrong", None)


def test_stable_levels_follow_weierstrass_bound():
    # phi(ell^n) = ell^(n-1) (ell - 1) must exceed lambda(f)
    assert workloads.stable_levels(2, 4, 5) == [4, 5]
    assert workloads.stable_levels(3, 54, 3) == []
    assert workloads.series_agrees([0, 0, 3, 1, 2], 3, 0, 3)
    assert not workloads.series_agrees([0, 0, 1, 3, 2], 3, 0, 3)


def test_timings_divide_by_each_jobs_reference():
    records = [{"pass": p, "outcome": o, "seconds": s, "ref": r}
               for p, o, s, r in ((0, "ok", 1.0, 0.5), (0, "wrong", 5.0, 1.0), (1, "ok", 4.0, 2.0))]
    values, tail = run.timings([6.0, 4.0], records, 90)
    assert values["wall_s"] == 5.0 and values["wall_ref"] == 4.5
    assert values["job_p50_ref"] == 2.0 and values["jobs_per_kref"] == 1000 * 2 / 9
    assert tail["samples"] == 2


def test_each_job_gets_the_reference_timed_near_it():
    # timings before jobs 0, 2, 3 and 4, and after the last job
    samples = [(0, 1.0), (2, 9.0), (3, 2.0), (4, 3.0), (5, 4.0)]
    # job 0 sees the 1 timing before it and 2 after; job 4 sees 3 before, 1 after
    assert run.job_references(samples, 5) == [2.0, 2.0, 2.5, 3.0, 3.5]
