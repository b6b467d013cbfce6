"""What a Tower reads off its voltages, against per-voltage reads.

A Tower keeps the least precision of its truncated voltages (_precision),
their integer representatives (_ints) and, once built, its Laurent
determinant P (_p) as cached properties; every other route reads the
voltages through these.  The oracles here read each voltage on its own, by
type, as the routes did before, on towers with all-int, all-truncated and
mixed voltages.
"""

import contextlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import giwa.iwasawa
from giwa import (GiwaError, PadicTruncated, PrecisionError, Tower, build_multigraph,
                  characteristic_series, factorization_check, iwasawa_invariants,
                  kappa_ord_sequence, tower)
from giwa.iwasawa import _laurent_matrix, certify_levels_connected

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large,
                                           HealthCheck.filter_too_much])


@st.composite
def towers(draw):
    """A tower over 1 to 3 vertices with voltages in [-30, 30], each an int or
    known mod ell^P for P in [1, 5], as the kind drawn says."""
    ell = draw(st.sampled_from([2, 3, 5]))
    n_vertices = draw(st.integers(1, 3))
    n_edges = draw(st.sampled_from([e for e in range(max(n_vertices - 1, 1), n_vertices + 3)
                                    if e != n_vertices]))
    verts = [f"v{i}" for i in range(n_vertices)]
    edges = [(verts[draw(st.integers(0, i - 1))], verts[i], f"s{i}")
             for i in range(1, n_vertices)]
    while len(edges) < n_edges:
        u, v = draw(st.sampled_from(verts)), draw(st.sampled_from(verts))
        edges.append((u, v, f"s{len(edges) + 1}"))
    kind = draw(st.sampled_from(["int", "truncated", "mixed"]))
    alpha = {}
    for _u, _v, eid in edges:
        a = draw(st.integers(-30, 30))
        if kind == "truncated" or kind == "mixed" and draw(st.booleans()):
            a = PadicTruncated(ell, draw(st.integers(1, 5)), a)
        alpha[eid] = a
    return tower(build_multigraph(verts, edges), ell, alpha)


def integer_of(v):
    return v if isinstance(v, int) else v.value


def least_precision(t):
    return min((v.precision for v in t.values.values() if not isinstance(v, int)),
               default=None)


def first_precision_error(t, n_max):
    """(level, message) of the first voltage read past its precision by the
    per-edge loop over levels 0..n_max, or None."""
    for n in range(n_max + 1):
        for d in t.orientation:
            v = t.values[d]
            if not isinstance(v, int) and v.precision < n:
                return n, f"voltage known mod {t.ell}^{v.precision} cannot be reduced mod {t.ell}^{n}"
    return None


def per_entry_laurent_matrix(t):
    """D - A_rho with each voltage read by type, entry by entry."""
    g = t.graph.vertex_count
    ent = [[dict() for _ in range(g)] for _ in range(g)]
    for s in t.orientation:
        i, j = t.graph.origin[s], t.graph.terminus[s]
        a = integer_of(t.values[s])
        ent[i][i][0] = ent[i][i].get(0, 0) + 1
        ent[j][j][0] = ent[j][j].get(0, 0) + 1
        ent[i][j][a] = ent[i][j].get(a, 0) - 1
        ent[j][i][-a] = ent[j][i].get(-a, 0) - 1
    return ent


@SETTINGS
@given(towers())
def test_precision_exact_and_integers(t):
    assert t._precision == least_precision(t)
    assert t.exact == all(isinstance(v, int) for v in t.values.values())
    assert dict(t._ints) == {d: integer_of(v) for d, v in t.values.items()}
    for d, v in t.values.items():
        for n in range(7):
            if not isinstance(v, int) and v.precision < n:
                with pytest.raises(PrecisionError) as err:
                    t.value_mod(d, n)
                assert str(err.value) == (f"voltage known mod {t.ell}^{v.precision} "
                                          f"cannot be reduced mod {t.ell}^{n}")
            else:
                assert t.value_mod(d, n) == integer_of(v) % t.ell ** n


@SETTINGS
@given(towers())
def test_laurent_matrix_reads_the_integer_representatives(t):
    def nonzero(ent):
        return [[{e: c for e, c in d.items() if c} for d in row] for row in ent]

    assert nonzero(_laurent_matrix(t, t._ints)) == nonzero(per_entry_laurent_matrix(t))


@SETTINGS
@given(towers(), st.integers(0, 3))
def test_kappa_refuses_at_the_first_level_past_the_precision(t, n_max):
    assume(t.ell ** n_max <= 27 and certify_levels_connected(t))
    expected = first_precision_error(t, n_max)
    if expected is None:
        rows = kappa_ord_sequence(t, n_max)
        exact = Tower(graph=t.graph, orientation=t.orientation, ell=t.ell, values=t._ints)
        assert rows == kappa_ord_sequence(exact, n_max)
        return
    with pytest.raises(PrecisionError) as err:
        kappa_ord_sequence(t, n_max)
    assert str(err.value) == expected[1]
    # one level less is within the precision everywhere
    kappa_ord_sequence(t, expected[0] - 1)


@SETTINGS
@given(towers(), st.integers(0, 4), st.integers(0, 4))
def test_one_p_build_per_exact_tower(t, b1, b2):
    assume(t.exact and certify_levels_connected(t))
    assert "_p" not in vars(t)
    beta = {eid: (b1, b2)[k % 2] % t.ell for k, eid in enumerate(t.graph.edge_ids)}
    with mock.patch.object(giwa.iwasawa, "_laurent_determinant",
                           wraps=giwa.iwasawa._laurent_determinant) as built:
        with contextlib.suppress(GiwaError):       # a zero series, or a refused pullback
            iwasawa_invariants(t)
        assert "_p" in vars(t)
        characteristic_series(t, 8)
        kappa_ord_sequence(t, 2, vertex_cap=10 ** 6)
        with contextlib.suppress(GiwaError):
            factorization_check(t, beta, cap=8)
    assert [c.args for c in built.call_args_list if c.args[0] is t] == [(t,)]
    ids = [id(c.args[0]) for c in built.call_args_list]
    assert len(ids) == len(set(ids))
