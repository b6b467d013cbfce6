"""The three benchmark workloads: seeded inputs, the jobs that run them, and the checks.

A pass is a fixed list of jobs.  Seeded workloads draw the jobs of pass i from
``random.Random(f"{workload}:{seed}:{i}")``, so one seed always gives the same
inputs.  Every pass of a workload holds the same shapes (ell, base size,
group, cap), so seeds change voltages, edges and betas but not the mix of
sizes, which keeps pass times comparable across seeds.  With ``tiny=True`` a
generator returns a few small jobs, for the benchmark's own smoke test.

Inputs are plain data (ints, strings, tuples).  A job builds the program's
objects from them inside its timed region, calls the program, and returns
what it computed; ``check`` then compares that with an oracle that was fixed
before any timing (the reference tables, an exact answer computed up front,
or an identity the result must satisfy).  Only ``giwa`` attribute lookups are
used (``giwa.kida_verify(...)``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field

import giwa
import giwa.cli
import giwa.iwasawa
import giwa.refdata

SERIES_CAP = 64        # cap of the characteristic series a random-towers job asks for
KAPPA_VERTICES = 100   # kappa levels are computed up to this many vertices


@dataclass
class Job:
    kind: str          # stratum, e.g. "light" or "truncated-deep"
    inputs: dict       # plain data the job builds its objects from
    summary: dict      # ell, vertex counts, voltage bound, |G|, P, cap
    run: object = field(repr=False)     # run(job) -> answer, the timed part
    check: object = field(repr=False)   # check(job, answer) -> "ok" | "wrong" | "refused"
    expected: object = None             # oracle answer fixed before timing, if any


# ---------------------------------------------------------------------------
# Shared input generation


def _group(kind: str, ell: int):
    if kind == "c":
        return giwa.cyclic(ell)
    if kind == "cc":
        return giwa.product(giwa.cyclic(ell), giwa.cyclic(ell))
    if kind == "d8":
        return giwa.dihedral_8()
    if kind.startswith("c^"):
        return giwa.cyclic(ell ** int(kind[2:]))
    raise ValueError(f"unknown group kind {kind!r}")


def _random_base(rng: random.Random, n_vertices: int) -> tuple:
    """A connected multigraph on n vertices with chi != 0: (vertices, edges)."""
    verts = [f"v{i}" for i in range(n_vertices)]
    while True:
        n_edges = rng.randint(max(n_vertices - 1, 2), n_vertices + 2)
        if n_edges != n_vertices:
            break
    edges = []
    for i in range(1, n_vertices):          # a random tree keeps it connected
        edges.append((verts[rng.randrange(i)], verts[i], f"s{len(edges) + 1}"))
    while len(edges) < n_edges:
        edges.append((rng.choice(verts), rng.choice(verts), f"s{len(edges) + 1}"))
    return verts, edges


def _draw_tower(rng: random.Random, ell: int, n_vertices: int, bound: int,
                group_kind: str | None, low: int = 0, magnitudes: tuple = ()) -> dict:
    """Voltages in [-bound, bound] (|v| >= low on every edge) whose levels are all
    connected and, with a group kind, a beta whose cover and pullback tower are too.
    With magnitudes, the edges' |v| are distinct picks from them instead."""
    while True:
        verts, edges = _random_base(rng, n_vertices)
        picks = rng.sample(magnitudes, len(edges)) if magnitudes else None
        alpha = {}
        for i, (_u, _v, eid) in enumerate(edges):
            v = picks[i] if picks else rng.randint(low, bound)
            alpha[eid] = v if rng.random() < 0.5 else -v
        t = giwa.tower(giwa.build_multigraph(verts, edges), ell, alpha)
        if not giwa.certify_levels_connected(t):
            continue
        spec = {"ell": ell, "vertices": verts, "edges": edges, "alpha": alpha}
        if group_kind is None:
            return spec
        G = _group(group_kind, ell)
        beta = {eid: rng.choice(G.elements) for _u, _v, eid in edges}
        va = giwa.voltage_assignment(t.graph, G, beta, t.orientation)
        if not giwa.voltage_connectedness(va)[0]:
            continue
        if not giwa.iwasawa.certify_pullback_connected(t, va)[0]:
            continue
        spec.update(group=group_kind, beta=beta)
        return spec


def _summary(spec: dict, **extra) -> dict:
    out = {"ell": spec["ell"], "vertices": len(spec["vertices"]),
           "edges": len(spec["edges"]),
           "voltage_bound": max(abs(v) for v in spec["alpha"].values())}
    if "group" in spec:
        order = _group(spec["group"], spec["ell"]).order
        out.update(group=spec["group"], group_order=order,
                   pullback_vertices=order * len(spec["vertices"]))
    out.update(extra)
    return out


def _build_tower(spec: dict):
    graph = giwa.build_multigraph(spec["vertices"], spec["edges"])
    return giwa.tower(graph, spec["ell"], spec["alpha"])


def _pullback(t, spec: dict):
    G = _group(spec["group"], spec["ell"])
    va = giwa.voltage_assignment(t.graph, G, spec["beta"], t.orientation)
    return giwa.lift_tower(t, giwa.derived_graph(va).projection)


def _ord(n: int, ell: int) -> int | None:
    if n == 0:
        return None
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


# ---------------------------------------------------------------------------
# paper-examples: the paper's reproductions through the CLI


PAPER_EXAMPLES = ("ex1", "ex2", "sl2")


def _example_expectations(name: str) -> dict:
    """Check name -> expected value, straight from the reference tables."""
    data = giwa.refdata.BY_NAME[name]
    if name == "sl2":
        out = {f"sl2 level {n} lambda": d["lambda"] for n, d in data["levels"].items()}
        out.update({f"sl2 level {n} mu": d["mu"] for n, d in data["levels"].items()})
        out["sl2 base lambda"] = data["base"]["lambda"]
        return {k: str(v) for k, v in out.items()}
    pb = data["pullback"]
    out = {f"{name} base mu": data["base"]["mu"],
           f"{name} base lambda": data["base"]["lambda"],
           f"{name} pullback mu": pb["mu"],
           f"{name} pullback lambda": pb["lambda"]}
    out.update({f"{name} pullback kappa_{n}": k for n, k in pb["kappa"].items()})
    return {k: str(v) for k, v in out.items()}


def _run_example(job: Job) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = giwa.cli.main(job.inputs["argv"])
    return code, buf.getvalue()


def _check_example(job: Job, answer) -> str:
    code, text = answer
    if code == 3:
        return "refused"
    if code != 0:
        return "wrong"
    payload = json.loads(text)
    rows = {r["check"]: r for r in payload["checks"]}
    if payload["pass"] is not True or len(rows) != len(payload["checks"]):
        return "wrong"
    if any(r["expected"] != r["actual"] for r in rows.values() if r["expected"]):
        return "wrong"
    for name, value in job.expected.items():
        if name not in rows or rows[name]["actual"] != value:
            return "wrong"
    return "ok"


def paper_examples(seed: int, index: int, tiny: bool = False) -> list:
    """ex1, ex2 and sl2 through ``giwa examples <name> --json``; the seed is unused."""
    jobs = []
    for name in PAPER_EXAMPLES[-1:] if tiny else PAPER_EXAMPLES:
        argv = ["examples", name, "--json"]
        jobs.append(Job(kind=name, inputs={"argv": argv},
                        summary={"example": name},
                        run=_run_example, check=_check_example,
                        expected=_example_expectations(name)))
    return jobs


# ---------------------------------------------------------------------------
# random-towers: user sessions on random exact towers

# Every pass holds the same shapes, so seeds change voltages, edges and
# betas but not the mix of sizes.  A shape is (ell, base vertices, group kind,
# copies per pass); sizes below are pullback vertex counts, times at baseline.
_LIGHT = [(2, v, g, 4) for v in (1, 2, 3) for g in ("c", "cc")] + [
    (2, 1, "d8", 4), (3, 1, "c", 4), (3, 2, "c", 4), (3, 3, "c", 4),
    (3, 1, "cc", 4), (5, 1, "c", 4), (5, 2, "c", 4), (5, 3, "c", 4)]
_TOWER_STRATA = {
    # at most 15 vertices: 1 ms to 0.2 s
    "light": (_LIGHT, {"bound": 6}),
    # 16 or 18 vertices whose 3 or 4 edges carry distinct voltages of 1 to 4
    # (in magnitude): 0.05 s to 0.6 s.  Independent draws of 1 to 4 spread the
    # stratum's cost twice as wide, which moved its p90 from seed to seed.
    # Larger pullbacks (25 vertices for Z/5 x Z/5, 24 for D8 over three
    # vertices) take up to 5 s, too close to the budget.  At 12 of 68
    # verified jobs a pass, the p90 latency falls inside this stratum rather
    # than at its boundary with the light one, where it would jump between
    # seeds.
    "medium": ([(3, 2, "cc", 6), (2, 2, "d8", 6)], {"bound": 4, "magnitudes": (1, 2, 3, 4)}),
    # 18 vertices with voltages of 40 to 60: minutes of Laurent interpolation,
    # so it always runs out of budget at baseline
    "heavy": ([(3, 2, "cc", 1)], {"low": 40, "bound": 60}),
}


def _run_tower_job(job: Job):
    spec = job.inputs
    reuse = spec["reuse"]
    G = _group(spec["group"], spec["ell"])
    t = _build_tower(spec)
    report = giwa.kida_verify(t, spec["beta"], G)
    lifted = _pullback(t, spec)
    series = giwa.characteristic_series(lifted, cap=SERIES_CAP)
    if not reuse:
        lifted = _pullback(_build_tower(spec), spec)
    levels = spec["levels"]
    rows = giwa.kappa_ord_sequence(lifted, levels)
    ords = [row[2] for row in rows]
    fit = None
    if levels >= 2:
        try:
            fit = giwa.fit_iwasawa(ords, 0, spec["ell"])
        except giwa.NotStabilizedError:
            fit = None
    return report, series.coeffs, ords, fit


def series_agrees(coeffs, ell: int, mu: int, lam_f: int) -> bool:
    """The truncated series has minimal valuation mu, first attained at lam_f."""
    for k, c in enumerate(coeffs):
        v = _ord(c, ell)
        if k < lam_f and v is not None and v <= mu:
            return False
        if k == lam_f and v != mu:
            return False
        if v is not None and v < mu:
            return False
    return True


def stable_levels(ell: int, lam_f: int, levels: int) -> list:
    """Levels n >= 1 whose ord(kappa_n) step is fixed by (mu, lambda).

    Through the class number formula, ord kappa_n - ord kappa_(n-1) is
    -1 + sum over primitive ell^n-th roots zeta of ord f(zeta - 1), and by
    Weierstrass preparation each term is mu + lam_f / phi(ell^n) once
    phi(ell^n) > lam_f.  The step is then mu * phi(ell^n) + lam_f - 1.
    """
    return [n for n in range(1, levels + 1) if ell ** (n - 1) * (ell - 1) > lam_f]


def _check_tower_job(job: Job, answer) -> str:
    report, coeffs, ords, fit = answer
    ell = job.inputs["ell"]
    if not report.ok:
        return "wrong"
    mu, lam_f = report.cover.mu, report.cover.lam + 1
    if not series_agrees(coeffs, ell, mu, lam_f):
        return "wrong"
    stable = stable_levels(ell, lam_f, len(ords) - 1)
    for n in stable:
        if ords[n] - ords[n - 1] != mu * (ell ** n - ell ** (n - 1)) + lam_f - 1:
            return "wrong"
    levels = len(ords) - 1
    if levels >= 2 and levels - 1 in stable:
        # the top three values fit exactly, so the fit's (mu, lambda) is forced
        if fit is None or (fit[0], fit[1]) != (mu, lam_f - 1):
            return "wrong"
    return "ok"


def random_towers(seed: int, index: int, tiny: bool = False) -> list:
    rng = random.Random(f"random-towers:{seed}:{index}")
    jobs = []
    for stratum, (shapes, voltages) in _TOWER_STRATA.items():
        if tiny:
            if stratum != "light":
                continue
            shapes = [(ell, n, kind, 1) for ell, n, kind, _ in shapes[:2]]
        for ell, n_vertices, kind, copies in shapes:
            for _ in range(copies):
                spec = _draw_tower(rng, ell, n_vertices, group_kind=kind, **voltages)
                pb_vertices = n_vertices * _group(kind, ell).order
                levels = 0
                while pb_vertices * ell ** (levels + 1) <= KAPPA_VERTICES:
                    levels += 1
                spec.update(reuse=len(jobs) % 2 == 0, levels=levels)
                jobs.append(Job(kind=stratum, inputs=spec,
                                summary=_summary(spec, levels=levels, reuse=spec["reuse"]),
                                run=_run_tower_job, check=_check_tower_job))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# truncated-twisted: the series, cyclotomic and character layers


def _run_truncated(job: Job):
    spec = job.inputs
    t = _build_tower(spec)
    if "group" in spec:
        t = _pullback(t, spec)
    ell, P = spec["ell"], spec["precision"]
    values = {d: giwa.PadicTruncated(ell, P, v) for d, v in t.values.items()}
    truncated = giwa.Tower(graph=t.graph, orientation=t.orientation, ell=ell,
                           values=values)
    inv = giwa.iwasawa_invariants(truncated, cap=spec["cap"])
    return inv.mu, inv.lam


def _check_truncated(job: Job, answer) -> str:
    return "ok" if tuple(answer) == job.expected else "wrong"


def _run_factorization(job: Job):
    spec = job.inputs
    return giwa.factorization_check(_build_tower(spec), spec["beta"], cap=spec["cap"])


def _run_identity(job: Job):
    spec = job.inputs
    graph = giwa.build_multigraph(spec["vertices"], spec["edges"])
    G = _group(spec["group"], spec["ell"])
    va = giwa.voltage_assignment(graph, G, spec["beta"])
    check = giwa.artin_product_check if spec["identity"] == "artin" else giwa.class_number_check
    return check(va)


def _check_report(_job: Job, answer) -> str:
    return "ok" if answer.passed is True else "wrong"


def _exact_invariants(spec: dict) -> tuple:
    """The exact Laurent answer for the integer representatives (the oracle)."""
    t = _build_tower(spec)
    if "group" in spec:
        t = _pullback(t, spec)
    inv = giwa.iwasawa_invariants(t)
    return inv.mu, inv.lam


def _truncated_job(kind: str, spec: dict, expected: tuple | None = None) -> Job:
    return Job(kind=kind, inputs=spec,
               summary=_summary(spec, P=spec["precision"], cap=spec["cap"]),
               run=_run_truncated, check=_check_truncated,
               expected=expected or _exact_invariants(spec))


def _draw_cover(rng: random.Random, spec: dict, order: int) -> dict:
    """A beta into Z/order whose cover and pullback tower have connected levels."""
    t = _build_tower(spec)
    G = giwa.cyclic(order)
    while True:
        beta = {eid: rng.randrange(order) for _u, _v, eid in spec["edges"]}
        va = giwa.voltage_assignment(t.graph, G, beta, t.orientation)
        if giwa.voltage_connectedness(va)[0] and \
                giwa.iwasawa.certify_pullback_connected(t, va)[0]:
            return beta


# Shapes of the truncated-twisted jobs, the same in every pass: (ell, base
# vertices, group kind or None for the base tower itself, initial cap).  The
# Z/5 pullback runs at cap 16 only: at caps 32 and 64 it takes 20 and 70 ref,
# a third of a pass for two jobs.
_SHALLOW = [(ell, n, kind, cap)
            for ell, n, kind in [(ell, n, None) for ell in (2, 3, 5) for n in (1, 2, 3)]
            + [(2, 1, "c"), (2, 1, "cc"), (3, 1, "c")]
            for cap in (16, 32, 64)] + [(5, 1, "c", 16)]
# Random truncated jobs have an exact lambda(f) below this, so it lies inside
# every job's certified window: every initial cap is at least 16, and for
# P >= 20 the precision allows caps of 23 (ell = 2) or more.  Jobs at or above
# the cap hit the cap defect of ROADMAP item 2 or not, depending on where the
# minimal valuation first falls, so the number of wrong answers would change
# from pass to pass; the pinned ex1 jobs below carry that defect instead.
LAMBDA_F_BELOW = 16
_FACTORIZATION = [(ell, n) for ell in (2, 3, 5) for n in (1, 2, 3)]
# (ell, k) of the Z/ell^k covers.  A Z/27 cover of a 2-vertex base takes 3 to
# 5 s for the Artin product, so covers of order 16 or more use 1 vertex.
_IDENTITY = [(2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1)]
# Every random shape is drawn this many times a pass, so that the verified
# jobs outnumber the two pinned deep jobs' cost and the p50 and p90 latencies
# rest on many samples.
COPIES = 2


EX1 = giwa.refdata.EX1
EX1_PULLBACK = {"ell": EX1["ell"], "vertices": ["v"],
                "edges": [("v", "v", eid) for eid in sorted(EX1["alpha"])],
                "alpha": EX1["alpha"], "group": "cc", "beta": EX1["beta"]}
# the exact ex1 pullback invariants (mu, lambda), from the reference tables
EX1_EXACT = (EX1["pullback"]["mu"], EX1["pullback"]["lambda"])


def _draw_shallow(rng: random.Random, ell: int, n_vertices: int, kind, cap: int) -> Job:
    while True:
        spec = _draw_tower(rng, ell, n_vertices, 6, kind)
        spec.update(precision=rng.randint(20, 40), cap=cap)
        exact = _exact_invariants(spec)
        if exact[1] + 1 < LAMBDA_F_BELOW:
            return _truncated_job("truncated-shallow", spec, exact)


def truncated_twisted(seed: int, index: int, tiny: bool = False) -> list:
    rng = random.Random(f"truncated-twisted:{seed}:{index}")
    pick = (lambda xs: xs[:1]) if tiny else (lambda xs: xs)
    copies = 1 if tiny else COPIES
    jobs = []
    # (a) deep: the ex1 pullback (Z/3 x Z/3 over a bouquet, 9 vertices) at
    # precision 40, caps 16 and 32.  It reports mu=5 lambda=11 and mu=3
    # lambda=23 against the exact mu=0 lambda=53: the cap defect of ROADMAP
    # item 2, two wrong answers in every pass.
    if not tiny:
        for cap in (16, 32):
            jobs.append(_truncated_job("truncated-deep", dict(EX1_PULLBACK, precision=40, cap=cap),
                                       EX1_EXACT))
    for _ in range(copies):
        # (a) shallow: base towers and pullbacks of at most 4 vertices, each
        # at every initial cap
        for ell, n_vertices, kind, cap in pick(_SHALLOW):
            jobs.append(_draw_shallow(rng, ell, n_vertices, kind, cap))
        # (b) the factorization identity on degree-ell cyclic covers
        for ell, n_vertices in pick(_FACTORIZATION):
            for cap in pick([8, 16]):
                spec = _draw_tower(rng, ell, n_vertices, 6, None)
                spec.update(beta=_draw_cover(rng, spec, ell), cap=cap)
                jobs.append(Job(kind="factorization", inputs=spec,
                                summary=_summary(spec, group_order=ell, cap=cap),
                                run=_run_factorization, check=_check_report))
        # (c) Artin product and class number identities on Z/ell^k covers
        for ell, k in pick(_IDENTITY):
            for identity in ("artin", "class_number"):
                spec = _draw_tower(rng, ell, 1 if ell ** k >= 16 else 2, 6, None)
                spec.update(group=f"c^{k}", beta=_draw_cover(rng, spec, ell ** k),
                            identity=identity)
                jobs.append(Job(kind=identity, inputs=spec, summary=_summary(spec),
                                run=_run_identity, check=_check_report))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "paper-examples": paper_examples,
    "random-towers": random_towers,
    "truncated-twisted": truncated_twisted,
}

# Per-job budget in reference units (see run.py): a job still running then is
# stopped and counted as failed.  With the reference at 13 to 19 ms, every
# baseline job takes under a third of its workload's budget, or (the
# random-towers heavy job) minutes.  In reference units a stopped job costs
# the same however fast the machine runs at the time.
BUDGET_REF = {
    "paper-examples": 600,       # about 10 s; ex1 takes about 220
    "random-towers": 120,        # about 2 s; medium jobs take at most about 35
    "truncated-twisted": 600,    # about 10 s; deep jobs take at most about 160
}

# Percentile of the verified jobs' latencies that job_tail_ref reports.  A
# truncated-twisted run verifies 550 to 1000 jobs, so p95 leaves 27 or more
# beyond it; over ten seeds its p90 moved more (interquartile range 10% of
# the median, against 7% for p95).  A random-towers run verifies about 270 jobs and
# its p90 falls inside the medium stratum.  paper-examples has 3 jobs a pass,
# so its p90 is in effect the ex1 latency.
TAIL_PERCENTILE = {
    "paper-examples": 90,
    "random-towers": 90,
    "truncated-twisted": 95,
}
