"""From a cube drawing to a seed whose i-graph is the cube.

Builds the cube with an explicit planar layout, traces its faces, takes the
dual (the octahedron), complements it into the seed 3K_2, and checks the
resulting i-graph vertex by vertex.  Exits 1 if the i-graph is not the cube.
"""
import sys

from islide import (
    Graph,
    i_graph,
    is_isomorphic,
    planar_dual,
    planar_seed,
    rotation_from_layout,
    trace_faces,
)

cube = Graph(
    8,
    [(0, 1), (1, 2), (2, 3), (3, 0),
     (4, 5), (5, 6), (6, 7), (7, 4),
     (0, 4), (1, 5), (2, 6), (3, 7)],
)
layout = [(-1, -1), (1, -1), (1, 1), (-1, 1), (-2, -2), (2, -2), (2, 2), (-2, 2)]
rotation = rotation_from_layout(cube, layout)

faces = trace_faces(cube, rotation)
print(f"faces traced: {len(faces)} (each of length 4)")
for face in faces:
    print("  ", " -> ".join(str(u) for u, _ in face))

dual = planar_dual(cube, rotation)
print(f"dual: {dual.n} vertices, {dual.edge_count()} edges (the octahedron)")

seed = planar_seed(cube, rotation)
print(f"seed = complement(dual): {seed.n} vertices, {seed.edge_count()} edges")

sg = i_graph(seed)
print(f"i-sets of the seed: {sg.node_count()} (one per octahedron face)")
for idx, node in enumerate(sg.nodes):
    members = [v for v in range(seed.n) if node >> v & 1]
    print(f"  node {idx}: {members}")
matches = is_isomorphic(sg.skeleton, cube)
print("i-graph isomorphic to the cube:", matches)
sys.exit(0 if matches else 1)
