"""Finite multigraphs with involutive directed edges.

A graph is stored with both directions of every undirected edge: undirected
edge number k yields directed edges 2k (the declared direction) and 2k+1
(its reverse), so the involution is ``e ^ 1``.  Loops and parallel edges are
allowed; a loop at v contributes two directed edges at v and counts twice in
the valency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import DisconnectedError, ValidationError

VertexId = Hashable
EdgeId = Hashable


@dataclass(frozen=True)
class Multigraph:
    vertices: tuple
    edge_ids: tuple                 # one id per undirected edge
    origin: tuple                   # origin[d] = vertex index, d a directed edge index
    terminus: tuple
    _vertex_index: dict = field(repr=False)
    _edge_index: dict = field(repr=False)   # edge id -> undirected edge number
    _out_edges: tuple = field(repr=False)   # out_edges[i] = directed edges with origin i

    # -- basic accessors -------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def undirected_edge_count(self) -> int:
        return len(self.edge_ids)

    @property
    def directed_edge_count(self) -> int:
        return 2 * len(self.edge_ids)

    def vertex_index(self, v: VertexId) -> int:
        try:
            return self._vertex_index[v]
        except KeyError:
            raise ValidationError(f"unknown vertex {v!r}") from None

    def edge_index(self, eid: EdgeId) -> int:
        """Undirected edge number k of an edge id; its directed edges are 2k and 2k+1."""
        try:
            return self._edge_index[eid]
        except (KeyError, TypeError):
            raise ValidationError(f"unknown edge {eid!r}") from None

    def inv(self, d: int) -> int:
        """The involution e -> e-bar on directed edge indices."""
        return d ^ 1

    def out_edges(self, i: int) -> tuple:
        """Directed edges with origin at vertex index i (the star of v_i)."""
        return self._out_edges[i]

    def valency(self, i: int) -> int:
        return len(self._out_edges[i])

    def edge_label(self, d: int) -> str:
        """Readable name for a directed edge: 'id' or '~id' for the reverse."""
        eid = self.edge_ids[d >> 1]
        return f"~{eid}" if d & 1 else str(eid)

    def default_orientation(self) -> "Orientation":
        return Orientation(tuple(2 * k for k in range(len(self.edge_ids))))

    def undirected_edges(self) -> Iterable[tuple]:
        """Yield (edge id, origin index, terminus index) in declared direction."""
        for k, eid in enumerate(self.edge_ids):
            yield eid, self.origin[2 * k], self.terminus[2 * k]


@dataclass(frozen=True)
class Orientation:
    """One directed representative per undirected edge."""

    edges: tuple  # directed edge indices

    def __iter__(self):
        return iter(self.edges)

    def __len__(self):
        return len(self.edges)

    def check(self, graph: Multigraph, values: Mapping | None = None) -> None:
        """Refuse unless this picks exactly one direction of every edge of graph
        and, when values are given, they are keyed by exactly those directions."""
        if sorted(d >> 1 for d in self.edges) != list(range(graph.undirected_edge_count)):
            raise ValidationError("orientation must pick one direction of every edge, once")
        if values is not None and values.keys() != set(self.edges):
            missing = [graph.edge_label(d) for d in self.edges if d not in values]
            raise ValidationError(f"no value on orientation edges {missing}" if missing
                                  else "a value is keyed by an edge outside the orientation")

    def by_index(self, graph: Multigraph, values_by_edge_id: Mapping) -> dict:
        """Values given by edge id, rekeyed by the direction of each edge picked here."""
        by_edge = {graph.edge_index(eid): v for eid, v in values_by_edge_id.items()}
        return {d: by_edge[d >> 1] for d in self.edges if d >> 1 in by_edge}


@dataclass(frozen=True)
class Pi1Basis:
    """Free generators of the fundamental group from a spanning tree.

    Each loop is a closed edge path at the base vertex, stored as a tuple of
    directed edge indices, indexed by the non-tree orientation edge it uses.
    """

    base_vertex: int
    tree_undirected: frozenset      # undirected edge numbers in the spanning tree
    loops: tuple                    # tuple of (orientation edge s, path tuple)


def build_multigraph(vertices: Sequence[VertexId], edges: Sequence) -> Multigraph:
    """Assemble a multigraph from a vertex list and undirected edge list.

    Each edge is (u, v) or (u, v, id); ids default to "e1", "e2", ...
    Both directions of every edge are materialized and the involution pairs
    them.  Unknown endpoints raise a validation error naming the edge.
    """
    verts = tuple(vertices)
    vindex = {}
    for i, v in enumerate(verts):
        if v in vindex:
            raise ValidationError(f"duplicate vertex {v!r}")
        vindex[v] = i
    eindex = {}
    origin = []
    terminus = []
    for pos, spec in enumerate(edges):
        spec = tuple(spec)
        if len(spec) == 2:
            u, v = spec
            eid = f"e{pos + 1}"
        elif len(spec) == 3:
            u, v, eid = spec
        else:
            raise ValidationError(f"edge #{pos + 1}: expected (u, v) or (u, v, id)")
        if eid in eindex:
            raise ValidationError(f"duplicate edge id {eid!r}")
        eindex[eid] = pos
        for w in (u, v):
            if w not in vindex:
                raise ValidationError(
                    f"edge {eid!r} references undeclared vertex {w!r}")
        origin.extend((vindex[u], vindex[v]))
        terminus.extend((vindex[v], vindex[u]))
    out = [[] for _ in verts]
    for d, o in enumerate(origin):
        out[o].append(d)
    return Multigraph(
        vertices=verts,
        edge_ids=tuple(eindex),
        origin=tuple(origin),
        terminus=tuple(terminus),
        _vertex_index=vindex,
        _edge_index=eindex,
        _out_edges=tuple(tuple(x) for x in out),
    )


def components(graph: Multigraph) -> list:
    """Vertex index sets of the connected components."""
    seen = [False] * graph.vertex_count
    comps = []
    for start in range(graph.vertex_count):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for d in graph.out_edges(i):
                j = graph.terminus[d]
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def is_connected(graph: Multigraph) -> bool:
    """True iff the graph has exactly one component; the empty graph is not connected."""
    if graph.vertex_count == 0:
        return False
    return len(components(graph)) == 1


def euler_characteristic(graph: Multigraph) -> int:
    """b0 - b1, which for any finite graph equals |V| - |E|."""
    return graph.vertex_count - graph.undirected_edge_count


def matrices(graph: Multigraph) -> tuple:
    """Degree matrix D, adjacency matrix A, and Laplacian Q = D - A.

    Diagonal adjacency entries count each undirected loop twice; the vertex
    order fixed at construction is the labeling used for rows and columns.
    """
    g = graph.vertex_count
    D = [[0] * g for _ in range(g)]
    A = [[0] * g for _ in range(g)]
    for i in range(g):
        D[i][i] = graph.valency(i)
    for _, i, j in graph.undirected_edges():
        if i == j:
            A[i][i] += 2
        else:
            A[i][j] += 1
            A[j][i] += 1
    Q = [[D[i][j] - A[i][j] for j in range(g)] for i in range(g)]
    return D, A, Q


# A row is divided by the pivot of its last update (see bareiss_determinant).
# Divisors wider than this many bits are divided through a 2-adic inverse
# (_exact_divider); below it, CPython's floor division is faster.
_TWO_ADIC_CUTOFF = 1024


def _exact_divider(d: int):
    """Return a function x -> x / d for exact multiples x of d, d != 0.

    With d = +-2^s * o and o odd, the quotient q satisfies
    q = +-(x >> s) * o^-1 mod 2^k, and k = bits(x) - bits(d) + 2 makes
    |q| < 2^(k-1), so q is the signed residue (Jebelean's exact division).
    o^-1 mod 2^p is lifted by Newton doubling, x <- x(2 - o x) mod 2^(2p),
    and kept between calls, extended only when a wider quotient needs it.
    Only multiplications are used: CPython's `//` is quadratic in the size
    of the divisor, and so is `pow(o, -1, 2**k)`.
    """
    s = (d & -d).bit_length() - 1
    odd = abs(d) >> s
    d_bits = d.bit_length()
    negative = d < 0
    inverse, precision = 1, 1

    def divide(x: int) -> int:
        nonlocal inverse, precision
        if not x:
            return 0
        k = x.bit_length() - d_bits + 2
        while precision < k:
            precision *= 2
            mask = (1 << precision) - 1
            inverse = inverse * (2 - (odd & mask) * inverse) & mask
        mask = (1 << k) - 1
        q = ((x >> s) & mask) * (inverse & mask) & mask
        if q >> (k - 1):
            q -= 1 << k
        return -q if negative else q

    return divide


def _fill_reducing_order(a: list) -> list | None:
    """A greedy minimum-degree order on the nonzero pattern of a + a^T, or
    None when no off-diagonal entry is 0 and every order fills alike.

    Each step takes a vertex of least degree (the lowest index on a tie),
    joins its neighbours into a clique, the fill its elimination makes, and
    drops it (Rose; George and Liu, ch. 5).
    """
    n = len(a)
    if not any(0 in row[:i] or 0 in row[i + 1:] for i, row in enumerate(a)):
        return None
    adj = [set() for _ in range(n)]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x and i != j:
                adj[i].add(j)
                adj[j].add(i)
    order = []
    left = set(range(n))
    while left:
        v = min(left, key=lambda i: (len(adj[i]), i))
        if len(adj[v]) == len(left) - 1:
            # the rest is a clique: every order of it fills alike
            return order + sorted(left)
        order.append(v)
        left.remove(v)
        for u in adj[v]:
            adj[u] |= adj[v]
            adj[u] -= {u, v}
    return order


def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination.

    Every division in the Bareiss recurrence is exact over the integers
    (Sylvester's identity), so the result is exact for arbitrary-precision
    entries; O(n^3) ring ops.  Two things make sparse matrices cheaper:

    - The matrix is first permuted symmetrically, which leaves det alone,
      into a minimum-degree order of its pattern (_fill_reducing_order).
    - A row whose entry in the pivot column is 0 is not touched.  Step k
      would scale it by p_k / p_(k-1), with p_k the pivot of step k, and
      these factors telescope: a row last updated at step s - 1 and skipped
      since holds a^(s), and a^(k) = a^(s) p_(k-1) / p_(s-1).  When the row
      is next eliminated, at step k, its new entries are read off in one
      exact division, (a^(s)_ij p_k - a^(s)_ik a^(k)_kj) / p_(s-1).  A
      pivot row, and the last row, is first brought up to date with one
      multiplication and one exact division per entry.

    A divisor at most _TWO_ADIC_CUTOFF (1024) bits wide divides with `//`;
    a wider one is inverted once modulo a power of 2, shared by every row
    that divides by it, and each quotient is read off as a signed residue
    (_exact_divider), which replaces CPython's quadratic long division by
    multiplications.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    for row in a:
        if len(row) != n:
            raise ValidationError("determinant of a non-square matrix")
    order = _fill_reducing_order(a)
    if order is not None:
        a = [[a[i][j] for j in order] for i in order]
    # pivots[s] divides a row last updated at step s - 1: p_(s-1), p_(-1) = 1
    pivots = [1]
    dividers = {}
    level = [0] * n            # level[i] = s: row i holds a^(s)

    def divider(s: int):
        if s not in dividers:
            d = pivots[s]
            dividers[s] = (_exact_divider(d) if d.bit_length() > _TWO_ADIC_CUTOFF
                           else lambda x: x // d)
        return dividers[s]

    def bring_up_to_date(k: int) -> None:
        s = level[k]
        if s < k:
            divide, scale = divider(s), pivots[k]
            a[k][k:] = [divide(x * scale) for x in a[k][k:]]
            level[k] = k

    sign = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            level[k], level[pivot] = level[pivot], level[k]
            sign = -sign
        bring_up_to_date(k)
        row_k = a[k]
        akk = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            if not aik:
                continue
            s = level[i]
            prev = pivots[s]
            if prev.bit_length() <= _TWO_ADIC_CUTOFF:
                for j in range(k + 1, n):
                    row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            else:
                divide = divider(s)
                for j in range(k + 1, n):
                    row_i[j] = divide(row_i[j] * akk - aik * row_k[j])
            level[i] = k + 1
        pivots.append(akk)
    bring_up_to_date(n - 1)
    return sign * a[n - 1][n - 1]


def laplacian_cofactor(graph: Multigraph, delete: int = -1) -> int:
    """Cofactor of the Laplacian obtained by deleting one row/column (default: last)."""
    _, _, Q = matrices(graph)
    g = graph.vertex_count
    if g == 0:
        raise ValidationError("cofactor of an empty Laplacian")
    delete %= g
    M = [[Q[i][j] for j in range(g) if j != delete] for i in range(g) if i != delete]
    return bareiss_determinant(M)


def spanning_tree_count(graph: Multigraph) -> int:
    """Number of spanning trees via the matrix-tree theorem.

    Equals any cofactor of the Laplacian; computed from the last one.
    Disconnected input is an error rather than a silent zero.
    """
    if not is_connected(graph):
        raise DisconnectedError("spanning tree count requires a connected graph")
    if graph.vertex_count == 1:
        return 1
    return laplacian_cofactor(graph)


def count_spanning_trees_bruteforce(graph: Multigraph) -> int:
    """Independent oracle: enumerate all (|V|-1)-subsets of undirected edges.

    Intended for small graphs only; loops can never occur in a tree and are
    skipped.  Parallel edges are distinct candidates.
    """
    g = graph.vertex_count
    if g == 0:
        raise ValidationError("empty graph")
    if g == 1:
        return 1
    nonloops = [k for k in range(graph.undirected_edge_count)
                if graph.origin[2 * k] != graph.terminus[2 * k]]
    count = 0
    for subset in combinations(nonloops, g - 1):
        parent = list(range(g))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for k in subset:
            a, b = find(graph.origin[2 * k]), find(graph.terminus[2 * k])
            if a == b:
                acyclic = False
                break
            parent[a] = b
        if acyclic:
            count += 1
    return count


def _bfs_tree(graph: Multigraph, v0: int, allowed: set | None = None) -> tuple:
    """(parent directed edge of each vertex, vertices in the order reached) for
    a breadth-first search from v0, edges taken in declaration order and only
    undirected ones in allowed (every edge when None); the order holds only
    the vertices of v0's component."""
    parent_edge = [None] * graph.vertex_count
    seen = [False] * graph.vertex_count
    seen[v0] = True
    order = [v0]
    for i in order:
        for d in graph.out_edges(i):
            if allowed is not None and (d >> 1) not in allowed:
                continue
            j = graph.terminus[d]
            if not seen[j]:
                seen[j] = True
                parent_edge[j] = d
                order.append(j)
    return parent_edge, order


def cotree_voltages(graph: Multigraph, orientation: Orientation, voltage, multiply,
                    inverse, identity) -> list:
    """The voltage of each loop of pi1_basis(graph, graph.vertices[0],
    orientation), in its order, from one walk over the same tree.

    voltage(d) is the value of any directed edge d in a group given by
    multiply, inverse and identity.  A potential phi(v) is the voltage of the
    tree path from the base to v, taken in breadth-first order, and the loop of
    a non-tree orientation edge s has voltage phi(o(s)) voltage(s) phi(t(s))^-1
    (Gross and Tucker's T-reduction, Topological Graph Theory, 2.5), with no
    loop path listed.  DisconnectedError if the graph is not connected.
    """
    parent_edge, order = _bfs_tree(graph, 0) if graph.vertex_count else ([], [])
    if not order or len(order) < graph.vertex_count:
        raise DisconnectedError("loop voltages need a connected graph")
    phi = [identity] * graph.vertex_count
    in_tree = [False] * graph.undirected_edge_count
    for j in order[1:]:
        d = parent_edge[j]
        phi[j] = multiply(phi[graph.origin[d]], voltage(d))
        in_tree[d >> 1] = True
    return [multiply(multiply(phi[graph.origin[s]], voltage(s)), inverse(phi[graph.terminus[s]]))
            for s in orientation if not in_tree[s >> 1]]


def pi1_basis(graph: Multigraph, v0: VertexId, orientation: Orientation | None = None,
              tree_edge_ids: Iterable[EdgeId] | None = None) -> Pi1Basis:
    """Free basis of the fundamental group at v0.

    A spanning tree is found by breadth-first search from v0 with edges taken
    in declaration order (or may be supplied explicitly by edge ids).  For
    each orientation edge s outside the tree the loop is: tree geodesic from
    v0 to o(s), then s, then tree geodesic from t(s) back to v0.
    """
    if not is_connected(graph):
        raise DisconnectedError("pi1 basis requires a connected graph")
    if orientation is None:
        orientation = graph.default_orientation()
    base = graph.vertex_index(v0)

    tree = None
    if tree_edge_ids is not None:
        tree = {graph.edge_index(eid) for eid in tree_edge_ids}
        if len(tree) != graph.vertex_count - 1:
            raise ValidationError("spanning tree must have |V| - 1 edges")
    parent_edge, order = _bfs_tree(graph, base, tree)
    if len(order) != graph.vertex_count:
        raise ValidationError("given edge set is not a spanning tree")
    tree = {d >> 1 for d in parent_edge if d is not None}

    def path_from_base(i: int) -> list:
        rev = []
        while i != base:
            d = parent_edge[i]
            rev.append(d)
            i = graph.origin[d]
        return rev[::-1]

    loops = []
    for s in orientation:
        if (s >> 1) in tree:
            continue
        head = path_from_base(graph.origin[s])
        tail = [graph.inv(d) for d in reversed(path_from_base(graph.terminus[s]))]
        loops.append((s, tuple(head + [s] + tail)))
    return Pi1Basis(base_vertex=base, tree_undirected=frozenset(tree),
                    loops=tuple(loops))


def path_is_closed_at(graph: Multigraph, path: Sequence[int], v: int) -> bool:
    """Check a directed edge path starts and ends at vertex index v and chains up."""
    if not path:
        return True
    if graph.origin[path[0]] != v or graph.terminus[path[-1]] != v:
        return False
    return all(graph.terminus[path[i]] == graph.origin[path[i + 1]]
               for i in range(len(path) - 1))


def bouquet(loops: int, vertex: VertexId = "v") -> Multigraph:
    """Single vertex with the given number of loops."""
    return build_multigraph([vertex], [(vertex, vertex, f"s{i + 1}") for i in range(loops)])


def cycle_graph(g: int) -> Multigraph:
    """Cycle on g >= 1 vertices (a single loop when g = 1)."""
    verts = [f"v{i + 1}" for i in range(g)]
    edges = [(verts[i], verts[(i + 1) % g], f"s{i + 1}") for i in range(g)]
    return build_multigraph(verts, edges)
