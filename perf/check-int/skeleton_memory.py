"""Time and trace the memory of build_slide_graph on the i-sets of r*K3 for
r = 7, 8, 9, with the library source of the checkout named on the command line:

    python3 perf/check-int/skeleton_memory.py CHECKOUT

``rows`` is the sys.getsizeof total of the skeleton's adjacency ints and
``peak`` the tracemalloc peak of the build.  Each step multiplies the node
count by 3 and the memory by about 9.
"""
import sys, time, tracemalloc
sys.path.insert(0, sys.argv[1] + "/src")
from islide import complete_graph, disjoint_union, independence_report, build_slide_graph
for r in (7, 8, 9):
    g = complete_graph(3)
    for _ in range(r - 1):
        g = disjoint_union(g, complete_graph(3))
    sets = list(independence_report(g).i_sets)
    tracemalloc.start()
    t = time.perf_counter()
    sg = build_slide_graph(g, sets)
    rows = sum(sys.getsizeof(x) for x in sg.skeleton.adj)
    took = time.perf_counter() - t
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"r={r} nodes={len(sets)} rows={rows / 2**20:.1f} MiB peak={peak / 2**20:.1f} MiB time={took:.2f} s")
    del sg
