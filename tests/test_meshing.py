"""Meridian mesh generation, validation, refinement, and serialization."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axistokes.fem import FemSpace
from axistokes.meshing import (
    GAMMA,
    GAMMA0,
    DomainSpec,
    MeridianMesh,
    MeshError,
    generate_structured,
    mesh_from_spec,
    read_mesh,
    refine,
    triangulate_polygon,
    write_mesh,
)

L_SHAPE = ((0.0, 0.5), (1.0, 0.5), (1.0, 0.0), (3.0, 0.0), (3.0, 1.0), (0.0, 1.0))


def test_structured_unit_square_counts():
    mesh = generate_structured((1.0, 1.0), 0.5)
    assert mesh.n_vertices == 9
    assert mesh.n_triangles == 8
    assert len(mesh.boundary_tags) == 8
    assert mesh.boundary_tags.count(GAMMA0) == 2
    assert mesh.boundary_tags.count(GAMMA) == 6


def test_structured_areas_positive_and_sum_to_domain():
    mesh = generate_structured((2.0, 3.0), 0.4)
    areas = mesh.triangle_areas()
    assert np.all(areas > 0.0)
    assert areas.sum() == pytest.approx(6.0, rel=1e-13)


def test_structured_pitch_never_exceeds_target():
    mesh = generate_structured((1.0, 1.0), 0.3)
    axis_aligned = mesh.edge_lengths().min()
    assert axis_aligned <= 0.3 + 1e-12
    assert mesh.h_max <= 0.3 * np.sqrt(2.0) + 1e-12


def test_rectangle_away_from_axis_has_no_axis_edges():
    mesh = generate_structured((0.5, 1.0, 0.0, 1.0), 0.25)
    assert GAMMA0 not in mesh.boundary_tags
    assert np.all(mesh.vertices[:, 0] >= 0.5)
    assert mesh.corner_nodes.size == 0


def test_axis_edges_get_the_axis_tag():
    mesh = generate_structured((1.0, 1.0), 0.25)
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        on_axis = mesh.vertices[a, 0] == 0.0 and mesh.vertices[b, 0] == 0.0
        assert on_axis == (tag == GAMMA0)
    assert mesh.corner_nodes.size == 2


def test_refine_quadruples_and_preserves_area():
    coarse = generate_structured((1.0, 1.0), 0.5)
    fine = refine(coarse)
    assert fine.n_triangles == 4 * coarse.n_triangles
    assert len(fine.boundary_tags) == 2 * len(coarse.boundary_tags)
    assert fine.triangle_areas().sum() == pytest.approx(1.0, rel=1e-13)
    assert fine.h_max == pytest.approx(coarse.h_max / 2.0, rel=1e-12)


def test_polygon_triangulation_covers_l_shape():
    mesh = triangulate_polygon(L_SHAPE, target_h=0.5)
    assert mesh.triangle_areas().sum() == pytest.approx(2.5, rel=1e-12)
    assert mesh.h_max <= 0.5 + 1e-12
    # The left side of this meridian runs along r = 0 between z = 0.5 and 1.
    axis_len = sum(
        np.linalg.norm(mesh.vertices[a] - mesh.vertices[b])
        for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags)
        if tag == GAMMA0
    )
    assert axis_len == pytest.approx(0.5, rel=1e-12)


def test_mesh_from_spec_dispatches():
    square = mesh_from_spec(DomainSpec(rectangle=(1.0, 1.0), target_h=0.5))
    assert square.n_vertices == 9
    lshape = mesh_from_spec(DomainSpec(polygon=L_SHAPE, target_h=1.0))
    assert lshape.triangle_areas().sum() == pytest.approx(2.5, rel=1e-12)
    with pytest.raises(MeshError):
        DomainSpec(rectangle=(1.0, 1.0), polygon=L_SHAPE)
    with pytest.raises(MeshError):
        DomainSpec()


def test_roundtrip_through_text_format(tmp_path):
    mesh = triangulate_polygon(L_SHAPE, target_h=0.7)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.mesh_id == mesh.mesh_id
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.triangles, mesh.triangles)
    assert back.boundary_tags == mesh.boundary_tags


_lengths = st.floats(0.1, 3.0, allow_subnormal=False)


@st.composite
def _meshes(draw):
    if draw(st.booleans()):
        r0 = draw(st.floats(0.0, 2.0, allow_subnormal=False))
        z0 = draw(st.floats(-2.0, 2.0, allow_subnormal=False))
        width, height = draw(_lengths), draw(_lengths)
        n = draw(st.integers(1, 5))
        rect = (r0, r0 + width, z0, z0 + height)
        return generate_structured(rect, max(width, height) / n)
    sr, sz = draw(_lengths), draw(_lengths)
    shift = draw(st.floats(-2.0, 2.0, allow_subnormal=False))
    polygon = tuple((sr * r, shift + sz * z) for r, z in L_SHAPE)
    target_h = max(sr, sz) * draw(st.floats(0.6, 1.5))
    return triangulate_polygon(polygon, target_h=target_h)


@settings(max_examples=30, deadline=None)
@given(mesh=_meshes())
def test_write_read_roundtrip_is_bitwise(mesh):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mesh.txt"
        write_mesh(mesh, path)
        back = read_mesh(path)
    assert back.mesh_id == mesh.mesh_id
    for a, b in (
        (back.vertices, mesh.vertices),
        (back.triangles, mesh.triangles),
        (back.boundary_edges, mesh.boundary_edges),
    ):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert back.boundary_tags == mesh.boundary_tags


def test_read_mesh_rejects_bad_header(tmp_path):
    path = tmp_path / "mesh.txt"
    path.write_text("something else\n")
    with pytest.raises(MeshError):
        read_mesh(path)


def test_mesh_id_tracks_geometry():
    a = generate_structured((1.0, 1.0), 0.5)
    b = generate_structured((1.0, 1.0), 0.25)
    c = generate_structured((1.0, 2.0), 0.5)
    assert len({a.mesh_id, b.mesh_id, c.mesh_id}) == 3
    again = generate_structured((1.0, 1.0), 0.5)
    assert again.mesh_id == a.mesh_id


def test_negative_radius_rejected():
    verts = [(-0.1, 0.0), (1.0, 0.0), (0.0, 1.0)]
    tris = [(0, 1, 2)]
    edges = [(0, 1), (1, 2), (2, 0)]
    with pytest.raises(MeshError, match="negative radius"):
        MeridianMesh(verts, tris, edges, (GAMMA, GAMMA, GAMMA))


def test_clockwise_triangle_rejected():
    verts = [(0.5, 0.0), (0.5, 1.0), (1.5, 0.0)]
    tris = [(0, 1, 2)]
    edges = [(0, 1), (1, 2), (2, 0)]
    with pytest.raises(MeshError, match="clockwise"):
        MeridianMesh(verts, tris, edges, (GAMMA, GAMMA, GAMMA))


def test_axis_edge_tag_consistency_enforced():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    tris = [(0, 1, 2)]
    edges = [(0, 1), (1, 2), (2, 0)]
    with pytest.raises(MeshError, match="tagged G"):
        MeridianMesh(verts, tris, edges, (GAMMA, GAMMA, GAMMA))
    with pytest.raises(MeshError, match="off the axis"):
        MeridianMesh(verts, tris, edges, (GAMMA0, GAMMA, GAMMA0))


def test_isolated_axis_contact_rejected():
    # Only the vertex (0, 0) touches the axis; no edge runs along it.
    verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
    tris = [(0, 1, 2)]
    edges = [(0, 1), (1, 2), (2, 0)]
    with pytest.raises(MeshError, match="isolated"):
        MeridianMesh(verts, tris, edges, (GAMMA, GAMMA, GAMMA))


def test_untagged_boundary_rejected():
    verts = [(0.5, 0.0), (1.5, 0.0), (0.5, 1.0)]
    tris = [(0, 1, 2)]
    edges = [(0, 1), (1, 2)]
    with pytest.raises(MeshError, match="topological boundary"):
        MeridianMesh(verts, tris, edges, (GAMMA, GAMMA))


def _loop_edge_table(tris):
    """Reference for the mesh's edge table, one triangle at a time.

    Returns the edge numbering (sorted pair -> id by first occurrence over
    the local edges (1, 2), (2, 0), (0, 1)), the edge id of each local
    edge, and the set of edges adjacent to exactly one triangle.
    """
    edge_ids = {}
    tri_edges = np.empty((len(tris), 3), dtype=np.int64)
    for t in range(len(tris)):
        for slot, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
            key = tuple(sorted((tris[t, a], tris[t, b])))
            tri_edges[t, slot] = edge_ids.setdefault(key, len(edge_ids))
    counts = {}
    for t in tris:
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return edge_ids, tri_edges, {k for k, c in counts.items() if c == 1}


@pytest.mark.parametrize(
    "mesh",
    [
        generate_structured((1.0, 1.0), 0.25),
        generate_structured((2.0, 1.0), 1.0 / 7.0),
        triangulate_polygon(L_SHAPE, target_h=0.3),
        refine(triangulate_polygon(L_SHAPE, target_h=0.6)),
    ],
    ids=["square", "rectangle", "L-shape", "refined-L-shape"],
)
def test_edge_table_matches_triangle_loops(mesh):
    edge_ids, tri_edges, boundary = _loop_edge_table(mesh.triangles)
    assert {tuple(e): i for i, e in enumerate(mesh.edges.tolist())} == edge_ids
    np.testing.assert_array_equal(mesh.triangle_edges, tri_edges)
    assert boundary == {tuple(sorted(e)) for e in mesh.boundary_edges.tolist()}
    want = [edge_ids[tuple(sorted(e))] for e in mesh.boundary_edges.tolist()]
    np.testing.assert_array_equal(mesh.boundary_edge_ids, want)
    space = FemSpace(mesh)
    np.testing.assert_array_equal(space.dof_map[:, 3:], mesh.n_vertices + tri_edges)


def _loop_refine(mesh):
    """Reference for ``refine``: midpoints numbered by a dict, one triangle at a time."""
    verts = mesh.vertices
    edge_set = {}
    new_pts = []

    def midpoint_id(a, b):
        key = (min(a, b), max(a, b))
        if key not in edge_set:
            edge_set[key] = len(verts) + len(new_pts)
            new_pts.append(0.5 * (verts[a] + verts[b]))
        return edge_set[key]

    children = []
    for t0, t1, t2 in mesh.triangles:
        m01 = midpoint_id(t0, t1)
        m12 = midpoint_id(t1, t2)
        m20 = midpoint_id(t2, t0)
        children += [(t0, m01, m20), (t1, m12, m01), (t2, m20, m12), (m01, m12, m20)]
    edges, tags = [], []
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        m = edge_set[(min(a, b), max(a, b))]
        edges += [(a, m), (m, b)]
        tags += [tag, tag]
    all_verts = np.vstack([verts, np.array(new_pts)])
    return MeridianMesh(all_verts, np.array(children), np.array(edges), tuple(tags))


@pytest.mark.parametrize(
    "coarse",
    [
        triangulate_polygon(L_SHAPE),
        triangulate_polygon(((0.5, 0.0), (1.5, 0.0), (1.5, 1.0), (0.5, 1.0))),
    ],
    ids=["L-shape", "square-polygon"],
)
def test_refine_matches_triangle_loop(coarse):
    mesh = coarse
    for _ in range(3):
        got, want = refine(mesh), _loop_refine(mesh)
        np.testing.assert_array_equal(got.vertices, want.vertices)
        np.testing.assert_array_equal(got.triangles, want.triangles)
        np.testing.assert_array_equal(got.boundary_edges, want.boundary_edges)
        assert got.boundary_tags == want.boundary_tags
        assert got.mesh_id == want.mesh_id
        mesh = got
