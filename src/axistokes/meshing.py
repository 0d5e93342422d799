"""Triangle meshes of meridian domains in the (r, z) half plane.

A meridian mesh discretizes the planar section of an axisymmetric domain.
Boundary edges carry one of two tags: ``G`` for the physical boundary and
``G0`` for the part lying on the symmetry axis r = 0.  The axis is where
the mode-dependent essential conditions of the Fourier solver live, so the
tagging must be exact; every generator and reader below validates it.
"""

import hashlib
from dataclasses import dataclass, field
from math import ceil

import numpy as np

__all__ = [
    "GAMMA",
    "GAMMA0",
    "MeshError",
    "MeridianMesh",
    "DomainSpec",
    "generate_structured",
    "triangulate_polygon",
    "refine",
    "mesh_from_spec",
    "read_mesh",
    "write_mesh",
    "locate_points",
]

GAMMA = "G"
GAMMA0 = "G0"

_SNAP_REL = 1e-12


class MeshError(ValueError):
    """Raised for invalid geometry, tagging or mesh file contents."""


@dataclass(frozen=True)
class MeridianMesh:
    """Conforming triangulation of a meridian domain.

    Attributes
    ----------
    vertices : ndarray, shape (nv, 2)
        Vertex coordinates (r, z) with r >= 0.
    triangles : ndarray, shape (nt, 3)
        Vertex indices, counterclockwise.
    boundary_edges : ndarray, shape (ne, 2)
        Vertex index pairs of boundary edges.
    boundary_tags : tuple of str
        Per-edge tag, ``G`` or ``G0``.
    edges : ndarray, shape (n_edges, 2)
        Every edge as its sorted vertex pair, numbered in order of first
        occurrence in ``triangle_edges``.
    triangle_edges : ndarray, shape (nt, 3)
        Edge number of the side of each triangle opposite its vertex 0, 1
        and 2, that is of the local edges (1, 2), (2, 0), (0, 1).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: tuple
    corner_nodes: np.ndarray = field(init=False)
    mesh_id: str = field(init=False)
    edges: np.ndarray = field(init=False, repr=False, compare=False)
    triangle_edges: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        verts = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        tris = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        edges = np.ascontiguousarray(np.asarray(self.boundary_edges, dtype=np.int64))
        tags = tuple(self.boundary_tags)
        all_edges, tri_edges = _validate(verts, tris, edges, tags)
        for arr in (verts, tris, edges, all_edges, tri_edges):
            arr.flags.writeable = False
        object.__setattr__(self, "edges", all_edges)
        object.__setattr__(self, "triangle_edges", tri_edges)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "boundary_edges", edges)
        object.__setattr__(self, "boundary_tags", tags)
        gamma_nodes = set()
        axis_nodes = set()
        for (a, b), tag in zip(edges, tags):
            target = axis_nodes if tag == GAMMA0 else gamma_nodes
            target.add(int(a))
            target.add(int(b))
        corners = np.array(sorted(gamma_nodes & axis_nodes), dtype=np.int64)
        corners.flags.writeable = False
        object.__setattr__(self, "corner_nodes", corners)
        digest = hashlib.sha256()
        digest.update(np.round(verts, 12).tobytes())
        digest.update(tris.tobytes())
        digest.update(edges.tobytes())
        digest.update(",".join(tags).encode())
        object.__setattr__(self, "mesh_id", digest.hexdigest()[:12])

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def edge_lengths(self) -> np.ndarray:
        """Lengths of all triangle edges (with repetition across elements)."""
        v = self.vertices[self.triangles]
        d = v - np.roll(v, shift=-1, axis=1)
        return np.linalg.norm(d, axis=2).ravel()

    @property
    def h_max(self) -> float:
        return float(self.edge_lengths().max())

    def triangle_areas(self) -> np.ndarray:
        v = self.vertices[self.triangles]
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _edge_table(tris: np.ndarray, nv: int):
    """Edges of a triangulation as (edges, triangle_edges, counts).

    ``edges`` holds sorted vertex pairs numbered by first occurrence over
    the triangles in order, each through its local edges (1, 2), (2, 0),
    (0, 1); ``triangle_edges`` (nt, 3) gives the number of each local edge
    and ``counts`` how many triangles share each edge.
    """
    pairs = np.sort(tris[:, [[1, 2], [2, 0], [0, 1]]], axis=2).reshape(-1, 2)
    _, first, inverse, counts = np.unique(
        pairs[:, 0] * nv + pairs[:, 1],
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return pairs[first[order]], rank[inverse].reshape(-1, 3), counts[order]


def _validate(verts, tris, edges, tags):
    """Raise MeshError for an invalid mesh; else return its edge table.

    The result is (edges, triangle_edges) as ``MeridianMesh`` stores them.
    """
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise MeshError("vertices must have shape (nv, 2)")
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise MeshError("triangles must have shape (nt, 3)")
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise MeshError("boundary_edges must have shape (ne, 2)")
    if len(tags) != edges.shape[0]:
        raise MeshError("one tag required per boundary edge")
    nv = verts.shape[0]
    if tris.size and (tris.min() < 0 or tris.max() >= nv):
        raise MeshError("triangle vertex index out of range")
    if edges.size and (edges.min() < 0 or edges.max() >= nv):
        raise MeshError("boundary edge vertex index out of range")
    if np.any(verts[:, 0] < 0.0):
        bad = int(np.argmin(verts[:, 0]))
        raise MeshError(
            f"vertex {bad} has negative radius r={verts[bad, 0]!r}; "
            "meridian domains live in the half plane r >= 0"
        )
    e1 = verts[tris[:, 1]] - verts[tris[:, 0]]
    e2 = verts[tris[:, 2]] - verts[tris[:, 0]]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    if np.any(areas <= 0.0):
        bad = int(np.argmin(areas))
        raise MeshError(f"triangle {bad} is degenerate or clockwise (area {areas[bad]:g})")
    for tag in tags:
        if tag not in (GAMMA, GAMMA0):
            raise MeshError(f"unknown boundary tag {tag!r}")

    # Topological boundary: edges adjacent to exactly one triangle.
    all_edges, tri_edges, counts = _edge_table(tris, nv)
    topo = set(map(tuple, all_edges[counts == 1]))
    tagged = set()
    for a, b in edges:
        key = (min(a, b), max(a, b))
        if key in tagged:
            raise MeshError(f"boundary edge {key} listed twice")
        tagged.add(key)
    if tagged != topo:
        missing = sorted(topo - tagged)
        extra = sorted(tagged - topo)
        raise MeshError(
            "tagged edges do not match the topological boundary "
            f"(missing {missing[:4]}, extra {extra[:4]})"
        )

    on_axis = verts[:, 0] == 0.0
    for (a, b), tag in zip(edges, tags):
        both_axis = on_axis[a] and on_axis[b]
        if tag == GAMMA0 and not both_axis:
            raise MeshError(
                f"edge ({a}, {b}) tagged {GAMMA0} but has an endpoint off the axis"
            )
        if tag == GAMMA and both_axis:
            raise MeshError(
                f"edge ({a}, {b}) lies on the axis r = 0 but is tagged {GAMMA}"
            )
    # Every axis vertex must be covered by an axis edge: a domain touching
    # r = 0 in an isolated point has no consistent essential conditions.
    axis_pts = set(np.nonzero(on_axis)[0])
    covered = set()
    for (a, b), tag in zip(edges, tags):
        if tag == GAMMA0:
            covered.add(int(a))
            covered.add(int(b))
    uncovered = axis_pts - covered
    if uncovered:
        raise MeshError(
            f"vertices {sorted(uncovered)[:4]} touch the axis r = 0 in isolated "
            "points; the domain must meet the axis along edges or not at all"
        )
    return all_edges, tri_edges


@dataclass(frozen=True)
class DomainSpec:
    """Description of a meridian domain to mesh.

    Exactly one of ``rectangle`` (rmin, rmax, zmin, zmax) or ``polygon``
    (sequence of (r, z) vertices of a simple polygon) must be given.
    ``target_h`` bounds the structured grid pitch, and for polygons drives
    extra uniform refinements; ``refinement_level`` uniform refinements are
    applied to polygon triangulations first.
    """

    rectangle: tuple | None = None
    polygon: tuple | None = None
    target_h: float = 0.0
    refinement_level: int = 0

    def __post_init__(self):
        if (self.rectangle is None) == (self.polygon is None):
            raise MeshError("specify exactly one of rectangle or polygon")
        if self.refinement_level < 0:
            raise MeshError("refinement_level must be nonnegative")


def _snap_axis(coords: np.ndarray) -> np.ndarray:
    coords = np.array(coords, dtype=float)
    scale = max(1.0, float(np.abs(coords).max())) if coords.size else 1.0
    tol = _SNAP_REL * scale
    r = coords[:, 0]
    near = np.abs(r) < tol
    coords[near, 0] = 0.0
    if np.any(coords[:, 0] < 0.0):
        bad = int(np.argmin(coords[:, 0]))
        raise MeshError(
            f"vertex {bad} has negative radius r={coords[bad, 0]!r}; "
            "meridian domains live in the half plane r >= 0"
        )
    return coords


def generate_structured(rectangle, h: float) -> MeridianMesh:
    """Uniform right-triangle mesh of an axis-aligned rectangle.

    Parameters
    ----------
    rectangle : tuple
        Either (rmax, zmax) for [0, rmax] x [0, zmax] or the full
        (rmin, rmax, zmin, zmax).
    h : float
        Target grid pitch; each direction uses ceil(extent / h) cells so the
        actual pitch never exceeds ``h``.
    """
    if h <= 0.0:
        raise MeshError("grid pitch h must be positive")
    if len(rectangle) == 2:
        rmin, rmax, zmin, zmax = 0.0, float(rectangle[0]), 0.0, float(rectangle[1])
    elif len(rectangle) == 4:
        rmin, rmax, zmin, zmax = map(float, rectangle)
    else:
        raise MeshError("rectangle must have 2 or 4 entries")
    if not (rmax > rmin and zmax > zmin):
        raise MeshError("rectangle extents must be positive")
    # A left side within rounding of the axis is the axis, as in
    # triangulate_polygon and read_mesh (_snap_axis).
    if abs(rmin) < _SNAP_REL * max(1.0, rmax, abs(zmin), abs(zmax)):
        rmin = 0.0
    if rmin < 0.0:
        raise MeshError("rectangle must lie in r >= 0")
    n_r =max(1, ceil((rmax - rmin) / h - 1e-12))
    n_z = max(1, ceil((zmax - zmin) / h - 1e-12))
    r = np.linspace(rmin, rmax, n_r + 1)
    z = np.linspace(zmin, zmax, n_z + 1)
    if rmin == 0.0:
        r[0] = 0.0
    verts = np.column_stack([np.repeat(r, n_z + 1), np.tile(z, n_r + 1)])

    def vid(i, j):
        return i * (n_z + 1) + j

    tris = []
    for i in range(n_r):
        for j in range(n_z):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    edges = []
    tags = []
    axis_left = rmin == 0.0
    for j in range(n_z):
        edges.append((vid(0, j), vid(0, j + 1)))
        tags.append(GAMMA0 if axis_left else GAMMA)
        edges.append((vid(n_r, j), vid(n_r, j + 1)))
        tags.append(GAMMA)
    for i in range(n_r):
        edges.append((vid(i, 0), vid(i + 1, 0)))
        tags.append(GAMMA)
        edges.append((vid(i, n_z), vid(i + 1, n_z)))
        tags.append(GAMMA)
    return MeridianMesh(verts, np.array(tris), np.array(edges), tuple(tags))


def _polygon_area(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _ear_clip(pts: np.ndarray) -> np.ndarray:
    """Triangulate a simple polygon (counterclockwise) by ear clipping."""
    n = len(pts)
    idx = list(range(n))
    scale = float(np.ptp(pts, axis=0).max())
    eps = 1e-12 * scale * scale
    tris = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * n * n:
            raise MeshError("polygon triangulation failed; is the polygon simple?")
        clipped = False
        m = len(idx)
        for pos in range(m):
            i0, i1, i2 = idx[pos - 1], idx[pos], idx[(pos + 1) % m]
            a, b, c = pts[i0], pts[i1], pts[i2]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross <= eps:
                if abs(cross) <= eps and np.dot(b - a, c - b) > 0.0:
                    # Collinear vertex: drop without emitting a triangle.
                    idx.pop(pos)
                    clipped = True
                    break
                continue
            ear = True
            for other in idx:
                if other in (i0, i1, i2):
                    continue
                if _point_in_triangle(pts[other], a, b, c, eps):
                    ear = False
                    break
            if ear:
                tris.append((i0, i1, i2))
                idx.pop(pos)
                clipped = True
                break
        if not clipped:
            raise MeshError("polygon triangulation found no ear; is the polygon simple?")
    tris.append((idx[0], idx[1], idx[2]))
    return np.array(tris, dtype=np.int64)


def _point_in_triangle(p, a, b, c, eps) -> bool:
    d1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    d2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
    d3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
    return d1 >= -eps and d2 >= -eps and d3 >= -eps


def triangulate_polygon(vertices, refinement_level: int = 0, target_h: float = 0.0) -> MeridianMesh:
    """Mesh a simple polygon in the half plane r >= 0.

    Sides with both endpoints on r = 0 are tagged as axis boundary; all
    others as physical boundary.  Polygons that touch the axis only in
    isolated vertices are rejected.
    """
    pts = _snap_axis(np.asarray(vertices, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise MeshError("polygon needs at least three (r, z) vertices")
    area = _polygon_area(pts)
    if area == 0.0:
        raise MeshError("polygon is degenerate")
    if area < 0.0:
        pts = pts[::-1].copy()

    n = len(pts)
    on_axis = pts[:, 0] == 0.0
    for i in range(n):
        if on_axis[i] and not (on_axis[i - 1] or on_axis[(i + 1) % n]):
            raise MeshError(
                f"polygon vertex {i} touches the axis r = 0 in an isolated point; "
                "the domain must meet the axis along whole sides or not at all"
            )

    tris = _ear_clip(pts)
    edges = []
    tags = []
    for i in range(n):
        j = (i + 1) % n
        edges.append((i, j))
        tags.append(GAMMA0 if on_axis[i] and on_axis[j] else GAMMA)
    mesh = MeridianMesh(pts, tris, np.array(edges), tuple(tags))
    for _ in range(refinement_level):
        mesh = refine(mesh)
    if target_h > 0.0:
        while mesh.h_max > target_h:
            mesh = refine(mesh)
    return mesh


def refine(mesh: MeridianMesh) -> MeridianMesh:
    """Uniform refinement: each triangle splits into four via edge midpoints."""
    verts = mesh.vertices
    tris = mesh.triangles
    edge_set = {}

    def midpoint_id(a, b, new_pts):
        key = (min(a, b), max(a, b))
        if key not in edge_set:
            edge_set[key] = len(verts) + len(new_pts)
            new_pts.append(0.5 * (verts[a] + verts[b]))
        return edge_set[key]

    new_pts = []
    children = []
    for t0, t1, t2 in tris:
        m01 = midpoint_id(t0, t1, new_pts)
        m12 = midpoint_id(t1, t2, new_pts)
        m20 = midpoint_id(t2, t0, new_pts)
        children += [
            (t0, m01, m20),
            (t1, m12, m01),
            (t2, m20, m12),
            (m01, m12, m20),
        ]
    all_verts = np.vstack([verts, np.array(new_pts)]) if new_pts else verts.copy()
    # Midpoints of axis edges inherit r = 0 exactly by averaging equal zeros.
    edges = []
    tags = []
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        m = edge_set[(min(a, b), max(a, b))]
        edges.append((a, m))
        edges.append((m, b))
        tags += [tag, tag]
    return MeridianMesh(all_verts, np.array(children), np.array(edges), tuple(tags))


def mesh_from_spec(spec: DomainSpec) -> MeridianMesh:
    """Build the mesh described by a DomainSpec."""
    if spec.rectangle is not None:
        if spec.target_h <= 0.0:
            raise MeshError("rectangle domains need a positive target_h")
        mesh = generate_structured(spec.rectangle, spec.target_h)
        for _ in range(spec.refinement_level):
            mesh = refine(mesh)
        return mesh
    return triangulate_polygon(
        spec.polygon, refinement_level=spec.refinement_level, target_h=spec.target_h
    )


_HEADER = "axistokes-mesh v1"


def write_mesh(mesh: MeridianMesh, path) -> None:
    """Write a mesh in the native text format."""
    lines = [_HEADER]
    lines.append(f"vertices {mesh.n_vertices}")
    for r, z in mesh.vertices:
        lines.append(f"{float(r)!r} {float(z)!r}")
    lines.append(f"triangles {mesh.n_triangles}")
    for a, b, c in mesh.triangles:
        lines.append(f"{int(a)} {int(b)} {int(c)}")
    lines.append(f"boundary {len(mesh.boundary_tags)}")
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        lines.append(f"{int(a)} {int(b)} {tag}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path) -> MeridianMesh:
    """Read a mesh in the native text format, validating as it goes."""
    with open(path) as fh:
        raw = fh.readlines()
    rows = []
    for lineno, line in enumerate(raw, start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body))
    if not rows or rows[0][1] != _HEADER:
        raise MeshError(f"{path}: expected header {_HEADER!r} on the first line")
    pos = 1

    def take(expect_kw):
        nonlocal pos
        if pos >= len(rows):
            raise MeshError(f"{path}: unexpected end of file, expected {expect_kw!r}")
        lineno, body = rows[pos]
        parts = body.split()
        if len(parts) != 2 or parts[0] != expect_kw:
            raise MeshError(f"{path}:{lineno}: expected '{expect_kw} N', got {body!r}")
        try:
            count = int(parts[1])
        except ValueError:
            raise MeshError(f"{path}:{lineno}: bad count {parts[1]!r}") from None
        pos += 1
        out = []
        for _ in range(count):
            if pos >= len(rows):
                raise MeshError(f"{path}: unexpected end of file in {expect_kw} section")
            out.append(rows[pos])
            pos += 1
        return out

    verts = []
    for lineno, body in take("vertices"):
        parts = body.split()
        if len(parts) != 2:
            raise MeshError(f"{path}:{lineno}: vertex line needs 'r z', got {body!r}")
        try:
            verts.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise MeshError(f"{path}:{lineno}: bad vertex coordinates {body!r}") from None
    tris = []
    for lineno, body in take("triangles"):
        parts = body.split()
        if len(parts) != 3:
            raise MeshError(f"{path}:{lineno}: triangle line needs three indices")
        try:
            tris.append(tuple(int(p) for p in parts))
        except ValueError:
            raise MeshError(f"{path}:{lineno}: bad triangle indices {body!r}") from None
    edges = []
    tags = []
    for lineno, body in take("boundary"):
        parts = body.split()
        if len(parts) != 3 or parts[2] not in (GAMMA, GAMMA0):
            raise MeshError(
                f"{path}:{lineno}: boundary line needs 'i j TAG' with TAG in "
                f"{{{GAMMA}, {GAMMA0}}}, got {body!r}"
            )
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise MeshError(f"{path}:{lineno}: bad edge indices {body!r}") from None
        tags.append(parts[2])
    if pos != len(rows):
        lineno, body = rows[pos]
        raise MeshError(f"{path}:{lineno}: trailing content {body!r}")
    verts = _snap_axis(np.array(verts, dtype=float))
    try:
        return MeridianMesh(verts, np.array(tris), np.array(edges), tuple(tags))
    except MeshError as err:
        raise MeshError(f"{path}: {err}") from None


def locate_points(mesh: MeridianMesh, points, tol: float = 1e-10):
    """Find the containing triangle and barycentric coordinates of points.

    Returns (tri_index, barycentric) arrays; raises MeshError for points
    outside the mesh beyond ``tol`` (relative to the mesh diameter).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    verts = mesh.vertices
    tris = mesh.triangles
    v0 = verts[tris[:, 0]]
    e1 = verts[tris[:, 1]] - v0
    e2 = verts[tris[:, 2]] - v0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    scale = float(np.ptp(verts, axis=0).max())
    atol = tol * max(scale, 1.0)

    n = len(pts)
    tri_idx = np.full(n, -1, dtype=np.int64)
    bary = np.zeros((n, 3))
    chunk = max(1, int(2e6) // max(1, len(tris)))
    for start in range(0, n, chunk):
        P = pts[start : start + chunk]
        d = P[:, None, :] - v0[None, :, :]
        lam1 = (d[:, :, 0] * e2[None, :, 1] - d[:, :, 1] * e2[None, :, 0]) / det
        lam2 = (e1[None, :, 0] * d[:, :, 1] - e1[None, :, 1] * d[:, :, 0]) / det
        lam0 = 1.0 - lam1 - lam2
        inside = (lam0 >= -atol) & (lam1 >= -atol) & (lam2 >= -atol)
        hit = inside.argmax(axis=1)
        ok = inside[np.arange(len(P)), hit]
        rows = np.arange(start, start + len(P))
        tri_idx[rows[ok]] = hit[ok]
        bary[rows[ok], 0] = lam0[ok, hit[ok]]
        bary[rows[ok], 1] = lam1[ok, hit[ok]]
        bary[rows[ok], 2] = lam2[ok, hit[ok]]
    if np.any(tri_idx < 0):
        bad = pts[tri_idx < 0][0]
        raise MeshError(f"point ({bad[0]:g}, {bad[1]:g}) lies outside the mesh")
    return tri_idx, bary
