"""JSON ingestion for graph, group, voltage and tower specs.

Schemas (documented in the README):

  graph   {"vertices": [names], "edges": [[u, v], [u, v, id], ...]}
  group   {"type": "cyclic", "order": m}
          {"type": "product", "factors": [group, group, ...]}
          {"type": "dihedral8"}
          {"type": "sl2", "ell": p, "level": n}
  voltage {"graph": g, "group": G, "alpha": {edge id: element string},
           "orientation": [id or "~id", ...]?}
  tower   {"graph": g, "ell": p, "alpha": {edge id: int},
           "beta_group": G?, "beta": {edge id: element string}?,
           "levels": n?, "orientation": [...]?}

Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
from functools import reduce

from .errors import ValidationError
from .graphs import Multigraph, Orientation, build_multigraph
from .groups import (FiniteGroup, cyclic, dihedral_8, product,
                     sl2_level_quotient, DIHEDRAL_ROTATION, DIHEDRAL_REFLECTION,
                     _perm_mul)
from .iwasawa import tower
from .voltage import VoltageAssignment, voltage_assignment


def _check_keys(obj: dict, fields: dict, where: str, required=(), missing=None) -> None:
    """Refuse a field not in fields, then a missing required one (with the
    message missing, or "<where> needs '<key>'"), then one whose value is not
    of its JSON type in fields: dict, list, or None for any."""
    unknown = set(obj) - set(fields)
    if unknown:
        raise ValidationError(f"{where}: unknown fields {sorted(unknown)}")
    for key in required:
        if key not in obj:
            raise ValidationError(missing or f"{where} needs '{key}'")
    for key, kind in fields.items():
        if kind and key in obj and not isinstance(obj[key], kind):
            name = "an object" if kind is dict else "an array"
            raise ValidationError(f"{where}: '{key}' must be {name}, got {obj[key]!r}")


def _integer(value, what: str) -> int:
    if type(value) is not int:          # refuses floats, and JSON booleans too
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"spec file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from None


def graph_from_spec(spec: dict) -> Multigraph:
    if not isinstance(spec, dict):
        raise ValidationError("graph spec must be an object")
    _check_keys(spec, {"vertices": list, "edges": list}, "graph spec", ("vertices", "edges"),
                "graph spec needs 'vertices' and 'edges'")
    for pos, edge in enumerate(spec["edges"]):
        if not isinstance(edge, list):
            raise ValidationError(f"graph spec: edge #{pos + 1} must be an array, got {edge!r}")
    for name in [*spec["vertices"], *(x for e in spec["edges"] for x in e)]:
        if type(name) not in (str, int):
            raise ValidationError(f"a vertex or edge name must be a string or integer: {name!r}")
    return build_multigraph(spec["vertices"], spec["edges"])


def group_from_spec(spec: dict) -> FiniteGroup:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValidationError("group spec must be an object with a 'type'")
    kind = spec["type"]
    if kind == "cyclic":
        _check_keys(spec, {"type": None, "order": None}, "cyclic group spec")
        return cyclic(_integer(spec.get("order"), "cyclic group order"))
    if kind == "product":
        _check_keys(spec, {"type": None, "factors": list}, "product group spec", ("factors",))
        factors = [group_from_spec(f) for f in spec["factors"]]
        if len(factors) < 2:
            raise ValidationError("product needs at least two factors")
        return reduce(product, factors)
    if kind == "dihedral8":
        _check_keys(spec, {"type": None}, "dihedral group spec")
        return dihedral_8()
    if kind == "sl2":
        _check_keys(spec, {"type": None, "ell": None, "level": None}, "sl2 group spec")
        return sl2_level_quotient(_integer(spec.get("ell"), "sl2 ell"),
                                  _integer(spec.get("level"), "sl2 level")).group
    raise ValidationError(f"unknown group type {kind!r}")


def _split_top_level(body: str) -> list:
    parts = []
    depth = 0
    cur = []
    for ch in body:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_element(group: FiniteGroup, text) -> object:
    """Parse one element from its spec string (or int for cyclic groups)."""
    if type(text) is int:               # a JSON boolean is refused below
        text = str(text)
    if not isinstance(text, str):
        raise ValidationError(f"a group element must be a string or integer, got {text!r}")
    text = text.strip()
    name = group.name
    if group.factors is None and name.startswith("Z/"):
        try:
            return int(text) % group.order
        except ValueError:
            raise ValidationError(f"bad residue {text!r} for {name}") from None
    if group.factors is not None:         # direct product: "(a,b)"
        if not (text.startswith("(") and text.endswith(")")):
            raise ValidationError(f"product element must look like '(a,b)': {text!r}")
        parts = _split_top_level(text[1:-1])
        if len(parts) != 2:
            # products associate left, so "(a,b,c)" means "((a,b),c)"
            parts = ["(" + ",".join(parts[:-1]) + ")", parts[-1]]
        g1, g2 = group.factors
        return (parse_element(g1, parts[0]), parse_element(g2, parts[1]))
    if name == "D8":
        return _parse_dihedral_word(text)
    if name.startswith("SL2ker"):
        try:
            rows = json.loads(text)
            flat = (rows[0][0], rows[0][1], rows[1][0], rows[1][1])
        except Exception:
            raise ValidationError(f"bad SL2 element {text!r}") from None
        if not group.contains(flat):
            raise ValidationError(f"matrix {text} is not in {name}")
        return flat
    raise ValidationError(f"no element parser for group {name}")


def _parse_dihedral_word(text: str):
    ident = (0, 1, 2, 3)
    if text in ("1", "e", ""):
        return ident
    out = ident
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "r":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            power = int(text[i + 1:j]) if j > i + 1 else 1
            for _ in range(power % 4):
                out = _perm_mul(out, DIHEDRAL_ROTATION)
            i = j
        elif ch == "t":
            out = _perm_mul(out, DIHEDRAL_REFLECTION)
            i += 1
        else:
            raise ValidationError(f"bad dihedral word {text!r}")
    return out


def orientation_from_spec(graph: Multigraph, entries: list | None) -> Orientation:
    if entries is None:
        return graph.default_orientation()
    chosen = []
    for entry in entries:
        flip = isinstance(entry, str) and entry.startswith("~")
        chosen.append(2 * graph.edge_index(entry[1:] if flip else entry) + flip)
    orientation = Orientation(tuple(chosen))
    orientation.check(graph)
    return orientation


def voltage_from_spec(spec: dict) -> VoltageAssignment:
    _check_keys(spec, {"graph": None, "group": None, "alpha": dict, "orientation": list},
                "voltage spec", ("graph", "group", "alpha"))
    graph = graph_from_spec(spec["graph"])
    group = group_from_spec(spec["group"])
    orientation = orientation_from_spec(graph, spec.get("orientation"))
    values = {eid: parse_element(group, text) for eid, text in spec["alpha"].items()}
    return voltage_assignment(graph, group, values, orientation)


def tower_from_spec(spec: dict) -> tuple:
    """Returns (tower, beta voltage assignment or None, requested levels or None)."""
    _check_keys(spec, {"graph": None, "ell": None, "alpha": dict, "beta": dict,
                       "beta_group": None, "levels": None, "orientation": list},
                "tower spec", ("graph", "ell", "alpha"))
    graph = graph_from_spec(spec["graph"])
    orientation = orientation_from_spec(graph, spec.get("orientation"))
    ell = _integer(spec["ell"], "'ell'")
    alpha = {eid: _integer(v, f"tower voltage on {eid!r}")
             for eid, v in spec["alpha"].items()}
    t = tower(graph, ell, alpha, orientation)
    va_beta = None
    if ("beta" in spec) != ("beta_group" in spec):
        raise ValidationError("'beta' and 'beta_group' must be given together")
    if "beta" in spec:
        group = group_from_spec(spec["beta_group"])
        values = {eid: parse_element(group, text)
                  for eid, text in spec["beta"].items()}
        va_beta = voltage_assignment(graph, group, values, orientation)
    levels = spec.get("levels")
    return t, va_beta, None if levels is None else _integer(levels, "'levels'")
