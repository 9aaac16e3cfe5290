"""Root reconstruction round trips.

Every connected graph with at least one edge has a line graph; the
recognizer inverts the construction, returning a root plus the exact
edge-to-vertex bijection, which is right by construction; this demo
checks each one independently with `RootMapping.verify_against`.
K3 is the classical ambiguous case: both K3 and the 3-star are roots, and
this implementation emits the star.
"""

import random

from tperfect.core import Graph, complete_graph, is_isomorphic_small
from tperfect.linegraph import line_graph, recognize_line_graph

rm = recognize_line_graph(complete_graph(3))
print("root of K3:", sorted(rm.root.edges), "(the 3-star)")

octahedron, _ = line_graph(complete_graph(4))
rm = recognize_line_graph(octahedron)
print("root of the octahedron is K4:", is_isomorphic_small(rm.root, complete_graph(4)))

rng = random.Random(0)
trips = 0
while trips < 200:
    n = rng.randint(2, 10)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    ]
    h = Graph(n, edges)
    comp = next((c for c in h.connected_components() if len(c) >= 2), None)
    if comp is None:
        continue
    root, _ = h.induced(comp)
    g, _ = line_graph(root)
    back = recognize_line_graph(g)
    assert back is not None and back.verify_against(g)
    trips += 1

print(f"{trips} random round trips verified exactly")
