import pytest

from islide import (
    FormatError,
    Graph,
    NonSimpleDualError,
    NotBipartiteError,
    NotConnectedError,
    NotCubicError,
    NotPlanarEmbeddingError,
    RotationSystem,
    RotationError,
    complete_graph,
    cycle_graph,
    cartesian_product,
    disjoint_union,
    is_isomorphic,
    i_graph,
    contains_induced,
    independence_report,
    parse_rotation_file,
    path_graph,
    planar_dual,
    rotation_from_layout,
    rotation_to_file,
    trace_faces,
)
from islide.planar import planar_seed


def cube_with_rotation():
    g = Graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (1, 5), (2, 6), (3, 7)],
    )
    pos = [(-1, -1), (1, -1), (1, 1), (-1, 1), (-2, -2), (2, -2), (2, 2), (-2, 2)]
    return g, rotation_from_layout(g, pos)


def cube_on_torus():
    """The cube with the rotation at vertex 0 reversed: 4 faces, so
    8 - 12 + 4 = 0 and the embedding is not a sphere embedding."""
    g, rot = cube_with_rotation()
    return g, RotationSystem((tuple(reversed(rot.order[0])),) + rot.order[1:])


def k4_with_rotation():
    g = complete_graph(4)
    pos = [(0.0, 0.0), (1.0, 0.0), (-0.5, 0.87), (-0.5, -0.87)]
    return g, rotation_from_layout(g, pos)


def octahedron() -> Graph:
    return Graph(
        6,
        [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5), (2, 3),
         (2, 4), (3, 4), (3, 5), (4, 5)],
    )


def hex_prism_with_rotation():
    inner = [(i, (i + 1) % 6) for i in range(6)]
    outer = [(i + 6, (i + 1) % 6 + 6) for i in range(6)]
    rungs = [(i, i + 6) for i in range(6)]
    g = Graph(12, inner + outer + rungs)
    import math

    pos = []
    for r in (1.0, 2.0):
        for i in range(6):
            pos.append((r * math.cos(i * math.pi / 3), r * math.sin(i * math.pi / 3)))
    return g, rotation_from_layout(g, pos)


def test_rotation_validation():
    g = cycle_graph(4)
    bad = RotationSystem(((1, 3), (0, 2), (1, 3), (0, 0)))
    with pytest.raises(RotationError):
        bad.validate(g)
    with pytest.raises(RotationError, match="wrong number of vertices"):
        trace_faces(g, RotationSystem(((1, 3), (0, 2), (1, 3))))
    with pytest.raises(RotationError, match="rotation at 3 does not list its neighbors"):
        trace_faces(g, RotationSystem(((1, 3), (0, 2), (1, 3), (0, 1))))
    with pytest.raises(RotationError, match="one position per vertex"):
        rotation_from_layout(g, [(0.0, 0.0)] * 3)


def test_k4_is_self_dual():
    g, rot = k4_with_rotation()
    faces = trace_faces(g, rot)
    assert len(faces) == 4
    dual = planar_dual(g, rot)
    assert is_isomorphic(dual, complete_graph(4))


def test_cube_dual_is_octahedron():
    g, rot = cube_with_rotation()
    faces = trace_faces(g, rot)
    assert len(faces) == 6
    assert all(len(f) == 4 for f in faces)
    dual = planar_dual(g, rot)
    assert is_isomorphic(dual, octahedron())


def test_cycle_embedding_dual_rejected():
    g = cycle_graph(4)
    rot = RotationSystem(((1, 3), (0, 2), (1, 3), (2, 0)))
    with pytest.raises(NonSimpleDualError):
        planar_dual(g, rot)


def test_planar_dual_rejects_torus_rotation():
    with pytest.raises(NotPlanarEmbeddingError):
        planar_dual(*cube_on_torus())


def test_one_face_sphere_embedding_is_rejected_as_a_bridge():
    # P3 on the sphere: 3 - 2 + 1 = 2, and both edges border the one face twice
    g = path_graph(3)
    rot = RotationSystem(((1,), (0, 2), (1,)))
    assert len(trace_faces(g, rot)) == 1
    with pytest.raises(NonSimpleDualError, match=r"^edge \(0,1\) borders one face on both sides \(bridge\)$"):
        planar_dual(g, rot)


def test_rotation_file_takes_ascii_digits_only():
    # int() would read each edited token as the vertex it replaces
    g, rot = cube_with_rotation()
    text = rotation_to_file(g, rot)
    assert text.startswith("0: 0-1 ")
    for head in ["0: 0-0_1 ", "+0: 0-1 ", "0: +0-1 ", "\u0660: 0-1 ", "0: 0-\u0661 "]:
        with pytest.raises(FormatError):
            parse_rotation_file(text.replace("0: 0-1 ", head, 1), g)


def test_rotation_file_rejects_a_vertex_listed_twice():
    # the toroidal rotation of vertex 0 ahead of its sphere rotation
    g, rot = cube_with_rotation()
    with pytest.raises(FormatError, match="vertex 0 listed twice"):
        parse_rotation_file("0: 0-4 0-3 0-1\n" + rotation_to_file(g, rot), g)


def test_rotation_file_rejections():
    g, rot = cube_with_rotation()
    text = rotation_to_file(g, rot)
    for edited, message in [
        (text.replace("0: ", "0 ", 1), "expected 'v: edge edge ...'"),
        (text.replace("0: 0-1 ", "0: 1-0 ", 1), "must name the smaller endpoint first"),
        (text.replace("0: 0-1 ", "0: 1-2 ", 1), "not incident to vertex 0"),
        (text.rsplit("7:", 1)[0], "must cover every vertex exactly once"),
        (text.replace("0: 0-1 0-3 0-4", "0: 0-1 0-3 0-1", 1), "repeated neighbor in rotation at 0"),
        (text.replace("0: 0-1 0-3 0-4", "0: 0-1 0-3", 1), "rotation at 0 does not list its neighbors"),
    ]:
        with pytest.raises(FormatError, match=message):
            parse_rotation_file(edited, g)


def test_rotation_file_roundtrip():
    g, rot = cube_with_rotation()
    text = rotation_to_file(g, rot)
    back = parse_rotation_file("# the cube\n\n" + text, g)
    assert back == rot


def test_planar_seed_cube():
    g, rot = cube_with_rotation()
    seed = planar_seed(g, rot)
    # complement of the octahedron: three disjoint edges
    assert seed.n == 6 and seed.edge_count() == 3
    sg = i_graph(seed)
    assert sg.node_count() == 8
    assert is_isomorphic(sg.skeleton, g)


def test_planar_seed_hexagonal_prism():
    g, rot = hex_prism_with_rotation()
    seed = planar_seed(g, rot)
    sg = i_graph(seed)
    assert contains_induced(sg.skeleton, g)


def test_planar_seed_trace():
    # the paper's claim: i = alpha = 3, and the three faces at each vertex
    # of g (dual vertices in face-trace order) form an i-set of the seed
    for builder in (cube_with_rotation, hex_prism_with_rotation):
        g, rot = builder()
        rep = independence_report(planar_seed(g, rot))
        assert rep.i == rep.alpha == 3
        corners = [0] * g.n
        for fi, face in enumerate(trace_faces(g, rot)):
            for _, v in face:
                corners[v] |= 1 << fi
        for mask in corners:
            assert mask.bit_count() == 3
            assert mask in rep.i_sets


def test_planar_seed_rejections():
    g, rot = k4_with_rotation()
    with pytest.raises(NotBipartiteError):
        planar_seed(g, rot)
    h = cycle_graph(4)
    rot4 = RotationSystem(((1, 3), (0, 2), (1, 3), (2, 0)))
    with pytest.raises(NotCubicError):
        planar_seed(h, rot4)
    g, rot = cube_on_torus()
    assert len(trace_faces(g, rot)) == 4
    with pytest.raises(NotPlanarEmbeddingError):
        planar_seed(g, rot)
    two = disjoint_union(complete_graph(2), complete_graph(2))
    with pytest.raises(NotConnectedError, match="planar seed needs a connected graph"):
        planar_seed(two, RotationSystem(((1,), (0,), (3,), (2,))))
