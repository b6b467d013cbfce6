"""nu and n0 read off the kappa table against the certified (mu, lambda).

From level K on, K the least n with phi(ell^n) > lambda(f), the class number
formula fixes each step of ord kappa_n, so `with_growth_constant` reads nu at
the top level once the table reaches K - 1 and claims none below.  These
tests pin it against `fit_iwasawa` where the fit is forced onto the certified
line, on the paper's pullbacks and on towers with mu > 0, and run a seeded
sweep of random towers through `giwa invariants`.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import assume, event, given, settings, strategies as st

import giwa.cli
from giwa import (GiwaError, IwasawaData, ValidationError, bouquet, build_multigraph,
                  certify_levels_connected, fit_iwasawa, iwasawa_invariants,
                  kappa_ord_sequence, refdata, tower, voltage_assignment,
                  with_growth_constant)
from giwa.iwasawa import _certified_pullback
from giwa.specio import group_from_spec, parse_element

FUZZ_TOWER = {"graph": {"vertices": ["v0", "v1"],
                        "edges": [["v0", "v1", "e0"], ["v0", "v1", "e1"], ["v1", "v0", "e2"],
                                  ["v0", "v1", "e3"], ["v0", "v1", "e4"]]},
              "ell": 2, "alpha": {"e0": -1, "e1": -7, "e2": 6, "e3": -6, "e4": 1}}


def least_stable_level(ell: int, lam_f: int) -> int:
    """K: the least n with phi(ell^n) > lambda(f)."""
    k = 1
    while ell ** (k - 1) * (ell - 1) <= lam_f:
        k += 1
    return k


def run_invariants(spec: dict, tmp_path, *extra) -> tuple:
    """(exit code, stdout, stderr) of `giwa invariants <spec> --json <extra>`."""
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = giwa.cli.main(["invariants", str(path), "--json", *extra])
    return code, out.getvalue(), err.getvalue()


@st.composite
def exact_towers(draw):
    """Towers over 1-3 vertices with integer voltages in [-9, 9], about a
    third of them drawn as multiples of ell, so that some have mu > 0."""
    ell = draw(st.sampled_from([2, 3, 5]))
    verts = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    ends = [(verts[draw(st.integers(0, i - 1))], verts[i]) for i in range(1, len(verts))]
    ends += draw(st.lists(st.tuples(st.sampled_from(verts), st.sampled_from(verts)),
                          min_size=1, max_size=4))
    assume(len(ends) != len(verts))              # chi = 0 is no tower base
    graph = build_multigraph(verts, [(u, v, f"e{k}") for k, (u, v) in enumerate(ends)])
    values = {}
    for k in range(len(ends)):
        if draw(st.integers(0, 2)) == 0:
            values[f"e{k}"] = ell * draw(st.integers(-(9 // ell), 9 // ell))
        else:
            values[f"e{k}"] = draw(st.integers(-9, 9))
    return tower(graph, ell, values)


@settings(max_examples=150, deadline=None)
@given(exact_towers())
def test_readout_is_the_forced_fit_at_level_k_plus_one(t):
    # the top three levels K - 1, K, K + 1 lie on the certified line, so the
    # fit's longest suffix is that line too
    assume(certify_levels_connected(t))
    try:
        inv = iwasawa_invariants(t)
    except ValidationError:                      # f = 0: a degenerate voltage
        assume(False)
    top = least_stable_level(t.ell, inv.lam + 1) + 1
    assume(t.graph.vertex_count * t.ell ** top <= 1000)
    ords = [row[2] for row in kappa_ord_sequence(t, top)]
    event(f"mu {'>' if inv.mu else '='} 0")
    got = with_growth_constant(inv, ords, t.ell)
    assert (got.mu, got.lam, got.nu, got.n0) == fit_iwasawa(ords, 0, t.ell)


@pytest.mark.parametrize("data, expected", [(refdata.EX1, (0, 53, -32, 2)),
                                            (refdata.EX2, (0, 15, 18, 2))])
def test_paper_pullbacks_at_level_k_plus_one(data, expected):
    t = tower(bouquet(3), data["ell"], data["alpha"])
    G = group_from_spec(data["group"])
    beta = {e: parse_element(G, b) if isinstance(b, str) else b for e, b in data["beta"].items()}
    lifted = _certified_pullback(t, voltage_assignment(t.graph, G, beta))
    inv = iwasawa_invariants(lifted)
    top = least_stable_level(t.ell, inv.lam + 1) + 1
    ords = [row[2] for row in kappa_ord_sequence(lifted, top, vertex_cap=10 ** 4)]
    assert all(ords[n] == o for n, o in data["pullback"]["kappa_ords"].items())
    got = with_growth_constant(inv, ords, t.ell)
    assert (got.mu, got.lam, got.nu, got.n0) == expected == fit_iwasawa(ords, 0, t.ell)
    assert data["pullback"].get("fit", expected) == expected


@pytest.mark.parametrize("ell, verts, edges, alpha, expected", [
    # B2 at ell = 2: ord kappa_n = 2^n + n - 1 from level 0
    (2, ["v0"], [("v0", "v0"), ("v0", "v0")], (7, -7), (1, 1, -1, 0)),
    # three vertices at ell = 2: 2^n + 3n + 5 from level 2 only
    (2, ["v0", "v1", "v2"],
     [("v0", "v1"), ("v1", "v2"), ("v2", "v1"), ("v2", "v1"), ("v2", "v1"), ("v1", "v0")],
     (2, -8, 0, 1, 3, 3), (1, 3, 5, 2)),
])
def test_positive_mu(ell, verts, edges, alpha, expected):
    graph = build_multigraph(verts, [(u, v, f"e{k}") for k, (u, v) in enumerate(edges)])
    t = tower(graph, ell, {f"e{k}": a for k, a in enumerate(alpha)})
    inv = iwasawa_invariants(t)
    ords = [row[2] for row in kappa_ord_sequence(t, least_stable_level(ell, inv.lam + 1) + 1)]
    got = with_growth_constant(inv, ords, ell)
    assert (got.mu, got.lam, got.nu, got.n0) == expected == fit_iwasawa(ords, 0, ell)


class TestReadoutRule:
    def test_no_nu_below_k_minus_one(self):
        # ex1's base: lambda(f) = 6, K = 3, so the line is fixed from level 2
        inv = IwasawaData(0, 5)
        assert with_growth_constant(inv, [0, 3], 3) == inv
        assert with_growth_constant(inv, [0, 3, 8], 3) == IwasawaData(0, 5, -2, 1)
        assert with_growth_constant(inv, [0, 3, 8, 13], 3) == IwasawaData(0, 5, -2, 1)

    def test_n0_follows_the_levels_below_k_minus_one(self):
        inv = IwasawaData(0, 5)
        assert with_growth_constant(inv, [-2, 3, 8, 13], 3) == IwasawaData(0, 5, -2, 0)
        assert with_growth_constant(inv, [-2, 4, 8, 13], 3) == IwasawaData(0, 5, -2, 2)

    @pytest.mark.parametrize("ords", [[0, 3, 8, 14], [0, 3, 8, 13, 19], [0, 3, 7, 13, 18]])
    def test_an_ord_off_the_line_past_k_minus_one_is_a_contradiction(self, ords):
        with pytest.raises(GiwaError, match="lie on no line"):
            with_growth_constant(IwasawaData(0, 5), ords, 3)

    def test_k_is_read_from_lambda_f(self):
        # lambda = 1 at ell = 3: lambda(f) = 2 = phi(3), so K = 2 and level 0
        # alone fixes nothing; with K read from lambda it would be 1
        assert with_growth_constant(IwasawaData(0, 1), [5], 3) == IwasawaData(0, 1)
        assert with_growth_constant(IwasawaData(0, 1), [5, 1], 3) == IwasawaData(0, 1, 0, 1)


class TestCli:
    def test_fuzz_found_tower(self, tmp_path):
        # levels 0..3 fit (mu, lambda, nu) = (1, 1, -1) from n >= 0; the
        # certified lambda(f) = 12 puts K at 5, so level 3 fixes no nu
        code, out, err = run_invariants(FUZZ_TOWER, tmp_path, "--levels", "3")
        payload = json.loads(out)
        assert (code, err, payload["fit"]) == (0, "", None)
        assert payload["summary"] == "mu=0 lambda=11"
        code, out, err = run_invariants(FUZZ_TOWER, tmp_path, "--levels", "7")
        payload = json.loads(out)
        assert (code, err) == (0, "")
        assert payload["fit"] == {"mu": 0, "lambda": 11, "nu": -25, "n0": 4}
        assert payload["summary"] == "mu=0 lambda=11 nu=-25 (n>=4)"

    def test_bent_ord_past_k_minus_one_exits_one(self, tmp_path, monkeypatch):
        real = giwa.cli.kappa_ord_sequence

        def bent(*args, **kwargs):
            rows = real(*args, **kwargs)
            n, kappa, o, fac = rows[-1]
            return rows[:-1] + [(n, kappa, o + 1, fac)]

        monkeypatch.setattr(giwa.cli, "kappa_ord_sequence", bent)
        spec = {"graph": {"vertices": ["v"], "edges": [["v", "v", "s1"], ["v", "v", "s2"],
                                                       ["v", "v", "s3"]]},
                "ell": 3, "alpha": refdata.EX1["alpha"]}
        code, out, err = run_invariants(spec, tmp_path, "--levels", "3")
        assert (code, out) == (1, "")
        assert err.startswith("error: ord kappa_2..3 lie on no line")

    @pytest.mark.parametrize("levels", ["0", "1"])
    def test_levels_zero_and_one_print_no_nu(self, levels, tmp_path):
        # B2 at ell = 5 with voltages (1, 0): lambda(f) = 2 < phi(5), so K = 1
        # and the readout alone would claim nu from level 0
        spec = {"graph": {"vertices": ["v"], "edges": [["v", "v", "s1"], ["v", "v", "s2"]]},
                "ell": 5, "alpha": {"s1": 1, "s2": 0}}
        code, out, _err = run_invariants(spec, tmp_path, "--levels", levels)
        payload = json.loads(out)
        assert (code, payload["fit"], payload["summary"]) == (0, None, "mu=0 lambda=1")
        assert with_growth_constant(IwasawaData(0, 1), [0], 5) == IwasawaData(0, 1, 0, 0)


def random_tower_spec(rng: random.Random) -> tuple:
    """(spec, level): a tower over 1-3 vertices, a spanning tree plus 1-4
    random edges (loops and parallels allowed), ell in {2, 3, 5}, voltages in
    [-8, 8], and a level whose graph is within the 1,000-vertex cap."""
    ell = rng.choice([2, 3, 5])
    verts = [f"v{i}" for i in range(rng.randint(1, 3))]
    ends = [(verts[rng.randrange(i)], verts[i]) for i in range(1, len(verts))]
    ends += [(rng.choice(verts), rng.choice(verts)) for _ in range(rng.randint(1, 4))]
    edges = [[u, v, f"e{k}"] for k, (u, v) in enumerate(ends)]
    top = 0
    while len(verts) * ell ** (top + 1) <= 1000:
        top += 1
    return ({"graph": {"vertices": verts, "edges": edges}, "ell": ell,
             "alpha": {e[2]: rng.randint(-8, 8) for e in edges}}, rng.randint(0, top))


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_seeded_sweep_never_exits_one(seed, tmp_path):
    rng = random.Random(seed)
    for _ in range(150):
        spec, level = random_tower_spec(rng)
        code, out, err = run_invariants(spec, tmp_path, "--levels", str(level))
        assert code in (0, 2), (spec, level, err)
        if code == 2:
            continue
        payload = json.loads(out)
        fit = payload["fit"]
        if fit is None:
            continue
        assert (fit["mu"], fit["lambda"]) == (payload["invariants"]["mu"],
                                              payload["invariants"]["lambda"])
        for row in payload["levels"][fit["n0"]:]:
            n = row["n"]
            assert row["ord"] == fit["mu"] * spec["ell"] ** n + fit["lambda"] * n + fit["nu"]
