"""Derived graphs from voltage assignments, covers, Galois covers, pullbacks.

A voltage assignment maps an orientation S into a finite group G and extends
to all directed edges by alpha(s-bar) = alpha(s)^(-1).  Derived graphs, their
quotients and combined covers are laid out by permutation_cover: vertices
(v, x) for x in a point set F, one edge (e, x) from (o(e), x) to (t(e), act(e, x)).
The derived graph takes F = G and act(e, sigma) = sigma * alpha(e); it is
connected exactly when the voltage images of a fundamental-group basis generate G.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .errors import DisconnectedError, ValidationError
from .graphs import (Multigraph, Orientation, build_multigraph, components,
                     cotree_voltages, is_connected)
from .groups import FiniteGroup, GroupHom, subgroup_generated


@dataclass(frozen=True)
class VoltageAssignment:
    graph: Multigraph
    orientation: Orientation
    group: FiniteGroup
    values: dict = field(repr=False)      # orientation edge index -> group element

    def __post_init__(self):
        self.orientation.check(self.graph, self.values)
        for d in self.orientation:
            if not self.group.contains(self.values[d]):
                raise ValidationError(
                    f"voltage on {self.graph.edge_label(d)} is not a group element")

    def voltage(self, d: int):
        """Voltage of any directed edge; the reverse carries the inverse."""
        if d in self.values:
            return self.values[d]
        return self.group.inverse(self.values[self.graph.inv(d)])

    def path_voltage(self, path) -> object:
        out = self.group.identity
        for d in path:
            out = self.group.multiply(out, self.voltage(d))
        return out


def voltage_assignment(graph: Multigraph, group: FiniteGroup,
                       values_by_edge_id: Mapping, orientation: Orientation | None = None
                       ) -> VoltageAssignment:
    """Build a voltage assignment keyed by undirected edge ids."""
    if orientation is None:
        orientation = graph.default_orientation()
    return VoltageAssignment(graph=graph, orientation=orientation, group=group,
                             values=orientation.by_index(graph, values_by_edge_id))


@dataclass(frozen=True)
class CoverMap:
    """Graph morphism given by explicit vertex and directed-edge maps."""

    source: Multigraph
    target: Multigraph
    vertex_map: tuple           # source vertex index -> target vertex index
    edge_map: tuple             # source directed edge index -> target directed edge index

    def __post_init__(self):
        s, t = self.source, self.target
        if len(self.vertex_map) != s.vertex_count or \
                len(self.edge_map) != s.directed_edge_count:
            raise ValidationError("morphism maps have wrong lengths")
        for d in range(s.directed_edge_count):
            img = self.edge_map[d]
            if self.vertex_map[s.origin[d]] != t.origin[img] or \
                    self.vertex_map[s.terminus[d]] != t.terminus[img]:
                raise ValidationError(
                    f"morphism breaks incidence at {s.edge_label(d)}")
            if self.edge_map[s.inv(d)] != t.inv(img):
                raise ValidationError(
                    f"morphism breaks the involution at {s.edge_label(d)}")

    def fiber(self, target_vertex: int) -> list:
        return [i for i, v in enumerate(self.vertex_map) if v == target_vertex]


def _label_cover(source: Multigraph, target: Multigraph, vertex_image,
                 edge_image) -> CoverMap:
    """The morphism sending each vertex label v of source to the target vertex
    labelled vertex_image(v), and the declared direction of each edge id e to
    the target directed edge edge_image(e) (its reverse to the reverse)."""
    edge_map = []
    for eid in source.edge_ids:
        d = edge_image(eid)
        edge_map.extend((d, target.inv(d)))
    return CoverMap(source=source, target=target,
                    vertex_map=tuple(target.vertex_index(vertex_image(v))
                                     for v in source.vertices),
                    edge_map=tuple(edge_map))


@dataclass(frozen=True)
class DerivedGraph:
    """A derived graph together with its projection cover."""

    graph: Multigraph
    projection: CoverMap
    assignment: VoltageAssignment


def permutation_cover(graph: Multigraph, orientation: Orientation, points: Sequence,
                      act: Callable) -> CoverMap:
    """Gross and Tucker's permutation voltages: vertices (v, x) for x in points, and an
    edge (eid, x) from (v, x) to (w, act(s, x)) per orientation edge s of eid, v to w."""
    edges, along = [], {}   # along: base edge id -> the orientation edge carrying it
    for s in orientation:
        images = [act(s, x) for x in points]
        if set(images) != set(points):
            raise ValidationError(f"act({graph.edge_label(s)}, .) does not permute the points")
        eid = graph.edge_ids[s >> 1]
        along[eid] = s
        v, w = graph.vertices[graph.origin[s]], graph.vertices[graph.terminus[s]]
        edges.extend(((v, x), (w, y), (eid, x)) for x, y in zip(points, images))
    cover = build_multigraph([(v, x) for v in graph.vertices for x in points], edges)
    return _label_cover(cover, graph, lambda v: v[0], lambda e: along[e[0]])


def derived_graph(va: VoltageAssignment) -> DerivedGraph:
    """X(G, S, alpha) and its projection: G permuted by sigma -> sigma * alpha(s)."""
    p = permutation_cover(va.graph, va.orientation, va.group.elements,
                          lambda s, sigma: va.group.multiply(sigma, va.values[s]))
    return DerivedGraph(graph=p.source, projection=p, assignment=va)


def voltage_connectedness(va: VoltageAssignment) -> tuple:
    """Connectedness of the derived graph via the fundamental group.

    Returns (connected, generated_subgroup): the derived graph is connected
    exactly when the voltages of a basis of loops generate the whole group.
    The loop voltages come from one potential walk (graphs.cotree_voltages).
    """
    group = va.group
    try:
        images = cotree_voltages(va.graph, va.orientation, va.voltage, group.multiply,
                                 group.inverse, group.identity)
    except DisconnectedError:
        raise DisconnectedError("voltage connectedness needs a connected base") from None
    generated = subgroup_generated(group, images)
    return len(generated) == group.order, generated


def is_cover(f: CoverMap) -> bool:
    """Vertex surjectivity plus a bijection on every edge star."""
    s, t = f.source, f.target
    if set(f.vertex_map) != set(range(t.vertex_count)):
        return False
    for i in range(s.vertex_count):
        star = s.out_edges(i)
        images = [f.edge_map[d] for d in star]
        target_star = t.out_edges(f.vertex_map[i])
        if len(set(images)) != len(star) or set(images) != set(target_star):
            return False
    return True


def cover_degree(f: CoverMap) -> int:
    """Degree of a cover with connected source; fibers all have this size."""
    if not is_connected(f.source):
        raise DisconnectedError(
            "degree of a disconnected cover is only defined per component")
    sizes = {len(f.fiber(v)) for v in range(f.target.vertex_count)}
    if len(sizes) != 1:
        raise ValidationError("fibers have unequal sizes; not a cover")
    return sizes.pop()


def _lift_automorphism(f: CoverMap, w0: int, w1: int):
    """Attempt the unique deck transformation sending w0 to w1.

    Covers admit unique path lifts, so an automorphism over the base is
    determined by the image of one vertex: each edge out of a reached vertex
    goes to the edge over the same base edge out of its image.  CoverMap
    checks that the result is a morphism; it must also be a bijection.
    """
    s = f.source
    vmap = {w0: w1}
    emap = {}
    stack = [w0]
    while stack:
        w = stack.pop()
        star_img = {f.edge_map[d]: d for d in s.out_edges(vmap[w])}
        if len(star_img) != len(s.out_edges(vmap[w])):
            return None
        for d in s.out_edges(w):
            lifted = star_img.get(f.edge_map[d])
            if lifted is None:
                return None
            emap[d] = lifted
            if s.terminus[d] not in vmap:
                vmap[s.terminus[d]] = s.terminus[lifted]
                stack.append(s.terminus[d])
    try:
        CoverMap(source=s, target=s,
                 vertex_map=tuple(vmap[w] for w in range(s.vertex_count)),
                 edge_map=tuple(emap[d] for d in range(s.directed_edge_count)))
    except ValidationError:
        return None
    if len(set(vmap.values())) != s.vertex_count:
        return None
    return vmap, emap


def deck_transformations(f: CoverMap) -> list:
    """All automorphisms over the base, as (vertex map, edge map) dicts.

    Uses unique lifting, which pins an automorphism down by the image of a
    single vertex; the source must be connected for this to enumerate all.
    """
    if not is_connected(f.source):
        raise DisconnectedError("deck transformations need a connected source")
    w0 = 0
    decks = []
    for w1 in f.fiber(f.vertex_map[w0]):
        lifted = _lift_automorphism(f, w0, w1)
        if lifted is not None:
            decks.append(lifted)
    return decks


def is_galois(f: CoverMap) -> tuple:
    """(galois?, deck transformations).

    Galois means: connected source and the deck group transitive on every
    fiber.  For a disconnected source the answer is False with no decks.
    Decks act freely and the fibers of a connected cover have one size, so
    the deck group is transitive on every fiber when it is as large as one.
    """
    if not is_cover(f):
        raise ValidationError("not a cover")
    if not is_connected(f.source):
        return False, []
    decks = deck_transformations(f)
    return len(decks) == len(f.fiber(f.vertex_map[0])), decks


def component_degrees(f: CoverMap) -> list:
    """Fiber size of each source component over the (connected) target.

    This is the per-component replacement for the scalar degree, which is
    only defined when the source is connected.
    """
    if not is_connected(f.target):
        raise DisconnectedError("component degrees need a connected target")
    degs = []
    for comp in components(f.source):
        comp_set = set(comp)
        sizes = {sum(1 for w in f.fiber(v) if w in comp_set)
                 for v in range(f.target.vertex_count)}
        if len(sizes) != 1:
            raise ValidationError("restriction to a component is not a cover")
        degs.append(sizes.pop())
    return degs


def quotient_cover(va: VoltageAssignment, f: GroupHom) -> tuple:
    """Cover X(G,S,alpha) -> X(G1,S,f(alpha)) induced by a surjective morphism f.

    Returns (cover map, source derived graph, target derived graph).
    """
    if f.source is not va.group and f.source.elements != va.group.elements:
        raise ValidationError("morphism source must be the voltage group")
    if not f.is_surjective():
        raise ValidationError("group morphism must be surjective")
    top = derived_graph(va)
    push = VoltageAssignment(graph=va.graph, orientation=va.orientation,
                             group=f.target,
                             values={d: f(v) for d, v in va.values.items()})
    bottom = derived_graph(push)
    return (_label_cover(top.graph, bottom.graph, lambda v: (v[0], f(v[1])),
                         lambda e: 2 * bottom.graph.edge_index((e[0], f(e[1])))),
            top, bottom)


@dataclass(frozen=True)
class Pullback:
    graph: Multigraph
    to_first: CoverMap
    to_second: CoverMap
    component_count: int


def pullback(p1: CoverMap, p2: CoverMap) -> Pullback:
    """Fiber product of two morphisms over a common target.

    Vertices are pairs agreeing downstairs, directed edges likewise.  The
    result may be disconnected; a component count is reported instead of an
    error since disconnected pullbacks are legitimate objects.
    """
    if p1.target is not p2.target and p1.target != p2.target:
        raise ValidationError("pullback requires a common target graph")
    g1, g2 = p1.source, p2.source
    verts = [(v1, v2) for i, v1 in enumerate(g1.vertices)
             for j, v2 in enumerate(g2.vertices)
             if p1.vertex_map[i] == p2.vertex_map[j]]
    above = {}                # target directed edge -> the g2 edges over it
    for d2 in range(g2.directed_edge_count):
        above.setdefault(p2.edge_map[d2], []).append(d2)
    edges, over = [], {}      # over: pullback edge id -> the pair (d1, d2) under it
    # (d1, d2) and (~d1, ~d2) are one undirected edge; keep the one with d1 declared
    for d1 in range(0, g1.directed_edge_count, 2):
        for d2 in above.get(p1.edge_map[d1], ()):
            eid = (g1.edge_label(d1), g2.edge_label(d2))
            over[eid] = (d1, d2)
            edges.append(((g1.vertices[g1.origin[d1]], g2.vertices[g2.origin[d2]]),
                          (g1.vertices[g1.terminus[d1]], g2.vertices[g2.terminus[d2]]),
                          eid))
    graph = build_multigraph(verts, edges)
    return Pullback(graph=graph,
                    to_first=_label_cover(graph, g1, lambda v: v[0],
                                          lambda e: over[e][0]),
                    to_second=_label_cover(graph, g2, lambda v: v[1],
                                           lambda e: over[e][1]),
                    component_count=len(components(graph)))


def identity_cover(graph: Multigraph) -> CoverMap:
    return CoverMap(source=graph, target=graph,
                    vertex_map=tuple(range(graph.vertex_count)),
                    edge_map=tuple(range(graph.directed_edge_count)))


def lift_voltages(p: CoverMap, orientation: Orientation, values: Mapping) -> tuple:
    """Pull an orientation and its edge values back along p.

    The orientation upstairs is p^(-1)(S) and each lifted edge carries the
    value of its image.  Returns (orientation, values).
    """
    chosen = set(orientation.edges)
    lifted = tuple(d for d in range(p.source.directed_edge_count)
                   if p.edge_map[d] in chosen)
    return Orientation(lifted), {d: values[p.edge_map[d]] for d in lifted}


def pullback_voltage(p: CoverMap, base_orientation: Orientation,
                     base_values: dict, group: FiniteGroup) -> VoltageAssignment:
    """Transport a voltage assignment along an edge-surjective morphism (lift_voltages)."""
    if set(p.edge_map) != set(range(p.target.directed_edge_count)):
        raise ValidationError("morphism must be surjective on directed edges")
    orientation, values = lift_voltages(p, base_orientation, base_values)
    return VoltageAssignment(graph=p.source, orientation=orientation,
                             group=group, values=values)


def combined_voltage(va_beta: VoltageAssignment, va_alpha: VoltageAssignment,
                     product_group: FiniteGroup) -> VoltageAssignment:
    """The assignment s -> (beta(s), alpha(s)) into the direct product."""
    if (va_beta.graph, va_beta.orientation) != (va_alpha.graph, va_alpha.orientation):
        raise ValidationError("combined voltages need one graph and one orientation")
    values = {d: (va_beta.values[d], va_alpha.values[d])
              for d in va_beta.orientation}
    return VoltageAssignment(graph=va_beta.graph, orientation=va_beta.orientation,
                             group=product_group, values=values)


def verify_combined_iso(va_beta: VoltageAssignment, va_alpha: VoltageAssignment) -> bool:
    """Check X(G2 x G1, S, (beta, alpha)) == Y(G1, S_Y, alpha o p) as covers of X.

    Both graphs are built and compared through the canonical relabeling
    (v, (s2, s1)) <-> ((v, s2), s1); the relabeling must match vertices,
    edges, incidence and involution, and commute with the projections.
    """
    if (va_beta.graph, va_beta.orientation) != (va_alpha.graph, va_alpha.orientation):
        raise ValidationError("combined voltages need one graph and one orientation")
    for va in (va_beta, va_alpha):
        ok, _ = voltage_connectedness(va)
        if not ok:
            raise DisconnectedError("both intermediate derived graphs must be connected")
    G2, G1 = va_beta.group, va_alpha.group
    combined = permutation_cover(
        va_beta.graph, va_beta.orientation, [(a, b) for a in G2.elements for b in G1.elements],
        lambda s, x: (G2.multiply(x[0], va_beta.values[s]),
                      G1.multiply(x[1], va_alpha.values[s])))
    upstairs = derived_graph(va_beta)
    lifted = pullback_voltage(upstairs.projection, va_alpha.orientation,
                              va_alpha.values, G1)
    big = derived_graph(lifted)

    def relabel(x):
        return ((x[0], x[1][0]), x[1][1])

    try:
        iso = _label_cover(combined.source, big.graph, relabel,
                           lambda e: 2 * big.graph.edge_index(relabel(e)))
    except ValidationError:
        return False
    if len(set(iso.vertex_map)) != big.graph.vertex_count or \
            len(set(iso.edge_map)) != big.graph.directed_edge_count:
        return False
    down, up = combined.edge_map, upstairs.projection.edge_map
    return all(down[d] == up[big.projection.edge_map[img]]
               for d, img in enumerate(iso.edge_map))
