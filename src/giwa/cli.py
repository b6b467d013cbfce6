"""Command-line front end.

    giwa invariants <spec.json> [--levels N] [--cap M] [--json]
    giwa kida <spec.json> [--json]
    giwa examples <ex1|ex2|sl2> ... [--level n] [--json]
    giwa checks <spec.json> [--json]

Exit codes: 0 all identities verified, 1 verification failure,
2 input/validation error, 3 resource or precision exhaustion.
GIWA_VERTEX_CAP overrides the 1000-vertex cap on the tower levels computed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import refdata
from .errors import (DisconnectedError, GiwaError, PrecisionError,
                     ResourceLimitError, UnsupportedError, ValidationError)
from .graphs import bouquet, euler_characteristic, is_connected
from .iwasawa import (DEFAULT_VERTEX_CAP, NotStabilizedError,
                      characteristic_series, decimal_string, fit_iwasawa,
                      format_factorization, iwasawa_invariants,
                      kappa_ord_sequence, kida_verify, lift_tower, tower,
                      uniform_tower_check)
from .lfunctions import (artin_product_check, class_number_check, hashimoto_check,
                         ihara_zeta_inverse)
from .specio import (graph_from_spec, group_from_spec, load_json, parse_element,
                     tower_from_spec, voltage_from_spec)
from .voltage import derived_graph, voltage_assignment


def vertex_cap() -> int:
    raw = os.environ.get("GIWA_VERTEX_CAP")
    if raw is None:
        return DEFAULT_VERTEX_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"GIWA_VERTEX_CAP must be an integer, got {raw!r}")


class Diff:
    """Collects named expected/actual comparisons for one run."""

    def __init__(self):
        self.rows = []

    def check(self, name: str, expected, actual) -> bool:
        ok = expected == actual
        self.rows.append({"check": name, "expected": str(expected),
                          "actual": str(actual), "pass": ok})
        return ok

    def note(self, name: str, value) -> None:
        self.rows.append({"check": name, "expected": "",
                          "actual": str(value), "pass": True})

    @property
    def ok(self) -> bool:
        return all(r["pass"] for r in self.rows)

    def print_table(self, out) -> None:
        for r in self.rows:
            mark = "ok " if r["pass"] else "FAIL"
            if r["expected"]:
                out.write(f"  [{mark}] {r['check']}: expected {r['expected']}, "
                          f"got {r['actual']}\n")
            else:
                out.write(f"  [{mark}] {r['check']}: {r['actual']}\n")


# ---------------------------------------------------------------------------
# invariants


def cmd_invariants(args) -> int:
    t, _va_beta, levels = tower_from_spec(load_json(args.spec))
    if args.levels is not None:
        levels = args.levels
    if levels is None:
        levels = 3
    inv = iwasawa_invariants(t, cap=args.cap)
    seq = kappa_ord_sequence(t, levels, factor=args.factor,
                             vertex_cap=vertex_cap())
    fit = None
    if levels >= 2:
        try:
            fit = fit_iwasawa([row[2] for row in seq], 0, t.ell)
        except NotStabilizedError:
            fit = None
    rows = []
    for n, kappa, ordk, fac in seq:
        row = {"n": n, "vertices": t.graph.vertex_count * t.ell ** n,
               "ord": ordk, "kappa": decimal_string(kappa)}
        if fac is not None:
            row["factorization"] = format_factorization(fac)
        rows.append(row)
    summary = f"mu={inv.mu} lambda={inv.lam}"
    if fit is not None:
        summary += f" nu={fit[2]} (n>={fit[3]})"
    payload = {"invariants": {"mu": inv.mu, "lambda": inv.lam},
               "fit": None if fit is None else
               {"mu": fit[0], "lambda": fit[1], "nu": fit[2], "n0": fit[3]},
               "levels": rows, "summary": summary}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"tower: ell={t.ell}, base |V|={t.graph.vertex_count}, "
              f"chi={euler_characteristic(t.graph)}")
        print(f"{'n':>3} {'|V_n|':>7} {'ord':>5}  kappa_n")
        for row in rows:
            extra = f"  = {row['factorization']}" if "factorization" in row else ""
            print(f"{row['n']:>3} {row['vertices']:>7} {row['ord']:>5}  "
                  f"{row['kappa']}{extra}")
        print(summary)
    if fit is not None and (fit[0] != inv.mu or fit[1] != inv.lam):
        print("warning: fitted (mu, lambda) disagree with the series invariants",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# kida


def cmd_kida(args) -> int:
    t, va_beta, _levels = tower_from_spec(load_json(args.spec))
    if va_beta is None:
        raise ValidationError("kida needs 'beta' and 'beta_group' in the spec")
    report = kida_verify(t, {t.graph.edge_ids[d >> 1]: va_beta.values[d]
                             for d in va_beta.orientation}, va_beta.group)
    payload = {
        "degree": report.degree,
        "base": {"mu": report.base.mu, "lambda": report.base.lam},
        "cover": {"mu": report.cover.mu, "lambda": report.cover.lam},
        "mu_equivalence": report.mu_equivalence,
        "formula_holds": report.formula_holds,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"cover degree [Y:X] = {report.degree}")
        print(f"base  tower: {report.base}")
        print(f"cover tower: {report.cover}")
        if report.formula_checked:
            mark = "ok" if report.formula_holds else "FAIL"
            print(f"{report.cover.lam}+1 = {report.degree}*({report.base.lam}+1)  [{mark}]")
        else:
            print("mu > 0 on the base; only the mu equivalence was checked")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# examples


def _run_pullback_example(data: dict, diff: Diff, max_level: int | None) -> None:
    """The base tower of a refdata example over B3, then its pullback along beta."""
    name, ell, base, pb = data["name"], data["ell"], data["base"], data["pullback"]
    t = tower(bouquet(3), ell, data["alpha"])
    inv = iwasawa_invariants(t)
    diff.check(f"{name} base mu", base["mu"], inv.mu)
    diff.check(f"{name} base lambda", base["lambda"], inv.lam)
    if "series_prefix" in base:
        f = characteristic_series(t, cap=max(base["series_prefix"]))
        for k, expected in base["series_prefix"].items():
            diff.check(f"{name} base f coefficient T^{k}", expected, f.coeffs[k])
    seq = kappa_ord_sequence(t, max(base["kappa_ords"]), vertex_cap=vertex_cap())
    for n, expected in base.get("kappa", {}).items():
        diff.check(f"{name} base kappa_{n}", expected, seq[n][1])
    for n, expected in base["kappa_ords"].items():
        diff.check(f"{name} base ord{ell}(kappa_{n})", expected, seq[n][2])
    diff.check(f"{name} base fit (mu,lambda,nu,n0)", base["fit"],
               fit_iwasawa([seq[n][2] for n in base["kappa_ords"]],
                           min(base["kappa_ords"]), ell))

    G = group_from_spec(data["group"])
    beta = {eid: parse_element(G, b) if isinstance(b, str) else b
            for eid, b in data["beta"].items()}
    report = kida_verify(t, beta, G)
    diff.check(f"{name} pullback mu", pb["mu"], report.cover.mu)
    diff.check(f"{name} pullback lambda", pb["lambda"], report.cover.lam)
    lam_plus, deg, base_plus = pb["kida"]
    diff.check(f"{name} kida identity",
               f"{lam_plus} = {deg} * {base_plus}",
               f"{report.cover.lam + 1} = {report.degree} * {report.base.lam + 1}")

    lifted = lift_tower(t, derived_graph(voltage_assignment(t.graph, G, beta)).projection)
    f = characteristic_series(lifted, cap=pb["series_cap"])
    for k, expected in pb["series_coeffs"].items():
        diff.check(f"{name} pullback f coefficient T^{k}", expected, f.coeffs[k])
    if "series_note" in pb:
        diff.note(f"{name} pullback series note", pb["series_note"])
    first_unit = next(k for k, c in enumerate(f.coeffs) if c % ell != 0)
    label = "first odd coefficient" if ell == 2 else f"first coefficient prime to {ell}"
    diff.check(f"{name} pullback {label} at", pb["first_unit_index"], first_unit)

    levels = pb["levels"] if max_level is None else min(max_level, pb["levels"])
    pseq = kappa_ord_sequence(lifted, levels, vertex_cap=vertex_cap())
    for n in range(levels + 1):
        diff.check(f"{name} pullback ord{ell}(kappa_{n})", pb["kappa_ords"][n], pseq[n][2])
        diff.check(f"{name} pullback kappa_{n}", pb["kappa"][n], pseq[n][1])
    if "fit" in pb and levels >= pb["fit"][3] + 2:
        diff.check(f"{name} pullback fit (mu,lambda,nu,n0)", pb["fit"],
                   fit_iwasawa([row[2] for row in pseq], 0, ell))


def _run_sl2(data: dict, diff: Diff, max_level: int | None) -> None:
    X = bouquet(4)
    t = tower(X, data["ell"], {"s1": 0, "s2": 0, "s3": 0, "s4": 1})
    f = characteristic_series(t, cap=12)
    for k, expected in data["base"]["series_prefix"].items():
        diff.check(f"sl2 base f coefficient T^{k}", expected, f.coeffs[k])
    inv = iwasawa_invariants(t)
    diff.check("sl2 base mu", data["base"]["mu"], inv.mu)
    diff.check("sl2 base lambda", data["base"]["lambda"], inv.lam)
    top = 1 if max_level is None else min(max_level, 1)
    for n in range(top + 1):
        report = uniform_tower_check(data["ell"], n, vertex_cap=vertex_cap(), base=t)
        diff.check(f"sl2 level {n} mu", data["levels"][n]["mu"], report.cover.mu)
        diff.check(f"sl2 level {n} lambda", data["levels"][n]["lambda"],
                   report.cover.lam)
        diff.check(f"sl2 level {n} growth formula",
                   report.lambda_expected, report.cover.lam)
        diff.check(f"sl2 level {n} connectedness certified",
                   True, report.all_levels_certified)


def cmd_examples(args) -> int:
    if args.level is not None and args.level < 0:
        raise ValidationError("level must be >= 0")
    runners = {"ex1": _run_pullback_example, "ex2": _run_pullback_example,
               "sl2": _run_sl2}
    for name in args.names:
        if name not in runners:
            raise ValidationError(f"unknown example {name!r}; choose from ex1, ex2, sl2")
    diff = Diff()
    for name in args.names:
        runners[name](refdata.BY_NAME[name], diff, args.level)
    if args.json:
        print(json.dumps({"checks": diff.rows, "pass": diff.ok},
                         indent=2, sort_keys=True))
    else:
        diff.print_table(sys.stdout)
        print("all checks passed" if diff.ok else "MISMATCHES FOUND")
    return 0 if diff.ok else 1


# ---------------------------------------------------------------------------
# checks


def cmd_checks(args) -> int:
    spec = load_json(args.spec)
    reports = []
    refused = []
    if "group" in spec:
        va = voltage_from_spec(spec)
        reports.append(hashimoto_check(va.graph))
        dg = derived_graph(va)
        if is_connected(dg.graph):
            reports.append(hashimoto_check(dg.graph))
        if va.group.cyclic_factor_orders is not None:
            reports.append(artin_product_check(va))
            if euler_characteristic(va.graph) != 0:
                reports.append(class_number_check(va))
            else:
                refused.append("class number identity refused: chi(X) = 0 "
                               "(cyclic-base towers have elementary growth)")
    else:
        graph = graph_from_spec(spec.get("graph", spec))
        reports.append(hashimoto_check(graph))
        zeta = ihara_zeta_inverse(graph)
        refused.append(f"1/Z(u) = {zeta.render()}")
    payload = {"reports": [r.to_json() for r in reports], "notes": refused,
               "pass": all(r.passed for r in reports)}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in reports:
            mark = "ok " if r.passed else "FAIL"
            print(f"[{mark}] {r.identity}: lhs={r.left} rhs={r.right}")
        for note in refused:
            print(note)
    return 0 if payload["pass"] else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="giwa",
        description="exact invariants of voltage covers and graph towers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="mu/lambda/nu and the kappa table")
    p_inv.add_argument("spec")
    p_inv.add_argument("--levels", type=int, default=None)
    p_inv.add_argument("--cap", type=int, default=64)
    p_inv.add_argument("--factor", action="store_true",
                       help="factor each kappa by trial division")
    p_inv.add_argument("--json", action="store_true")
    p_inv.set_defaults(func=cmd_invariants)

    p_kida = sub.add_parser("kida", help="verify the lambda identity for a pullback")
    p_kida.add_argument("spec")
    p_kida.add_argument("--json", action="store_true")
    p_kida.set_defaults(func=cmd_kida)

    p_ex = sub.add_parser("examples", help="re-run the bundled examples and diff")
    p_ex.add_argument("names", nargs="+")
    p_ex.add_argument("--level", type=int, default=None,
                      help="cap the deepest tower level recomputed")
    p_ex.add_argument("--json", action="store_true")
    p_ex.set_defaults(func=cmd_examples)

    p_chk = sub.add_parser("checks", help="determinant identities for a spec")
    p_chk.add_argument("spec")
    p_chk.add_argument("--json", action="store_true")
    p_chk.set_defaults(func=cmd_checks)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, DisconnectedError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PrecisionError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GiwaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
