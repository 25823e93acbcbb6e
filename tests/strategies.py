"""Hypothesis strategies and graph builders shared by the test modules."""

from hypothesis import strategies as st

from signforge.core import NEG, POS, build_graph


def k4_all_negative():
    return build_graph([(u, v, "-") for u in range(4) for v in range(u)])


@st.composite
def signed_graphs(draw, max_n=6, max_m=10, loops=True):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    edges = []
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v and not loops:
            continue
        sign = draw(st.sampled_from((POS, NEG)))
        if u == v:
            sign = NEG  # positive loops are inert everywhere
        edges.append((u, v, sign))
    if not edges:
        edges = [(0, 0, NEG)]
    used = sorted({u for u, _, _ in edges} | {v for _, v, _ in edges})
    remap = {v: i for i, v in enumerate(used)}
    return build_graph([(remap[u], remap[v], s) for u, v, s in edges])


@st.composite
def vertex_subsets(draw, g):
    return frozenset(v for v in g.vertices if draw(st.booleans()))


@st.composite
def part_unions(draw, max_n=6, max_m=14):
    """Edge-disjoint unions of small decomposition parts on at most max_n
    vertices, switched at random: negative cycles of length 1-3 and
    all-negative K4s, some with one edge subdivided, plus up to two stray
    edges.  Graphs with decompositions of every kind through index 4 are
    common here and rare among uniform random graphs."""
    n = draw(st.integers(4, max_n))
    edges = []
    for cycle in draw(st.lists(st.booleans(), min_size=2, max_size=4)):
        if cycle:
            vs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                               unique=True))
            if len(vs) == 1:
                part = [(vs[0], vs[0], NEG)]
            else:
                part = [(vs[i - 1], vs[i], POS) for i in range(len(vs))]
                part[0] = (*part[0][:2], NEG)
        else:
            quad = draw(st.permutations(range(n)))[:4]
            part = [(quad[i], quad[j], NEG)
                    for i in range(4) for j in range(i + 1, 4)]
            if n > 4 and draw(st.booleans()):
                u, v, _ = part.pop(draw(st.integers(0, 5)))
                w = draw(st.sampled_from(sorted(set(range(n)) - set(quad))))
                part += [(u, w, NEG), (w, v, POS)]
        if len(edges) + len(part) <= max_m:
            edges += part
    # a few stray edges, which can leave parts that overlap or nothing
    for u, v, sign in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1),
            st.sampled_from((POS, NEG))), max_size=2)):
        if len(edges) < max_m:
            edges.append((u, v, NEG if u == v else sign))
    side = draw(st.frozensets(st.integers(0, n - 1)))
    edges = [(u, v, -s if (u in side) != (v in side) else s)
             for u, v, s in edges]
    return build_graph(draw(st.permutations(edges)))
