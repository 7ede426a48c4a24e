import pytest

from redld.graph import (
    Graph,
    build_cycle,
    build_hypercube,
    build_kary_tree,
    build_ladder,
    build_path,
    build_petersen,
    kary_depth_blocks,
    parse_edge_list,
    render_edge_list,
)
from redld.solver import min_redld


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4
    assert g.edge_count() == 4
    assert g.adj[1] == (0, 2)
    assert g.degree(2) == 2
    assert g.open_neighborhood(0) == (1, 3)
    assert g.closed_neighborhood(0) == (0, 1, 3)
    assert g.min_degree() == 2 and g.max_degree() == 2


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1)], labels=["a"])


def test_graph_equality_and_hash():
    g1 = Graph(3, [(0, 1), (1, 2)])
    g2 = Graph(3, [(1, 2), (0, 1)])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != Graph(3, [(0, 1), (0, 2)])


def test_components():
    g = Graph(5, [(0, 1), (3, 4)])
    assert g.connected_components() == [[0, 1], [2], [3, 4]]


def test_builders_shapes():
    p = build_path(5)
    assert p.n == 5 and p.edge_count() == 4
    assert [p.degree(v) for v in range(5)] == [1, 2, 2, 2, 1]

    c = build_cycle(6)
    assert c.n == 6 and c.edge_count() == 6
    assert c.min_degree() == c.max_degree() == 2

    lad = build_ladder(4)
    assert lad.n == 8 and lad.edge_count() == 10

    q3 = build_hypercube(3)
    assert q3.n == 8 and q3.edge_count() == 12
    assert q3.min_degree() == q3.max_degree() == 3

    pet = build_petersen()
    assert pet.n == 10 and pet.edge_count() == 15
    assert pet.min_degree() == pet.max_degree() == 3


def test_kary_tree():
    t = build_kary_tree(2, 3)
    assert t.n == 15 and t.edge_count() == 14
    blocks = kary_depth_blocks(2, 3)
    assert [len(b) for b in blocks] == [1, 2, 4, 8]
    assert list(blocks[0]) == [0]
    # every non-root has exactly one neighbor in the previous depth block
    depth = {}
    for d, blk in enumerate(blocks):
        for v in blk:
            depth[v] = d
    for v in range(1, t.n):
        parents = [w for w in t.adj[v] if depth[w] == depth[v] - 1]
        assert len(parents) == 1


def test_labels():
    p = build_path(3)
    assert p.labels == ("v_1", "v_2", "v_3")
    assert p.label(1) == "v_2"
    g = Graph(2, [(0, 1)])
    assert g.label(1) == "1"


def test_kernel_ctx_is_built_once():
    g = build_petersen()
    ctx = g.kernel_ctx()
    assert g.kernel_ctx() is ctx
    assert ctx.n == g.n
    assert Graph(10, g.edges()).kernel_ctx() is not ctx


def test_induced_subgraph_on_every_vertex_is_the_graph():
    g = build_petersen()
    sub, index = g.induced_subgraph(range(g.n))
    assert sub is g
    assert index == {v: v for v in range(g.n)}
    # a connected graph is solved on its own context
    assert min_redld(g).optimum == 6
    assert g._ctx is not None
    sub, index = g.induced_subgraph([9, 2, 4])
    assert sub is not g and index == {2: 0, 4: 1, 9: 2}
    assert sub.edges() == [(1, 2)]


def test_edge_list_round_trip():
    g = build_petersen()
    text = render_edge_list(g)
    back = parse_edge_list(text)
    assert back.n == g.n
    assert back.adj == g.adj


def test_parse_edge_list_comments_and_errors():
    g = parse_edge_list("# header\n3\n0 1\n\n1 2  # tail comment\n")
    assert g.n == 3 and g.edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("x\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("3\n0 1 2\n")
    with pytest.raises(ValueError):
        parse_edge_list("3\n0 a\n")
