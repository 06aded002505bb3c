import numpy as np
import pytest

from blendnet.graph import (
    DirectedGraph,
    GraphError,
    Join,
    Leave,
    degree_sequence,
    generate_connected,
    is_strongly_connected,
    mutate,
    parse_edge_list,
    serialize_edge_list,
)


def cycle3():
    return DirectedGraph.build([(1, 2), (2, 3), (3, 1)])


def chain3():
    return DirectedGraph.build([(1, 2), (2, 3)])


def upath(n):
    return DirectedGraph.build([(i, i + 1) for i in range(1, n)], undirected=True)


def triangle():
    return DirectedGraph.build([(1, 2), (2, 3), (1, 3)], undirected=True)


def test_no_self_loops():
    with pytest.raises(GraphError):
        DirectedGraph.build([(1, 1)])


def test_ids_positive():
    with pytest.raises(GraphError):
        DirectedGraph.build([(0, 1)])


def test_undirected_requires_symmetry():
    with pytest.raises(GraphError):
        DirectedGraph((1, 2), frozenset({(1, 2)}), undirected=True)


def test_edge_endpoints_must_exist():
    with pytest.raises(GraphError):
        DirectedGraph((1, 2), frozenset({(1, 3)}))


def test_degrees_orientation():
    g = DirectedGraph.build([(1, 2), (3, 2)])
    assert g.in_neighbors(2) == {1, 3}
    assert g.in_degree(2) == 2
    assert g.out_degree(1) == 1
    a = g.adjacency()
    idx = g.index_of()
    assert a[idx[2], idx[1]] == 1 and a[idx[2], idx[3]] == 1
    assert a.sum() == 2


def test_strongly_connected_cycle():
    assert is_strongly_connected(cycle3())


def test_chain_not_strongly_connected():
    assert not is_strongly_connected(chain3())


def test_undirected_path_connected():
    assert is_strongly_connected(upath(3))


def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        is_strongly_connected(DirectedGraph((), frozenset()))


def test_self_loops_make_strongly_connected_primitive():
    # adding self-connections makes any strongly connected graph aperiodic:
    # (A + I)^(N-1) is positive, which is why planning needs no primitivity check
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = generate_connected(int(rng.integers(2, 9)), 0.4, seed=int(rng.integers(1 << 30)))
        assert is_strongly_connected(g)
        a = g.adjacency(self_loops=True).astype(np.int64)
        assert (np.linalg.matrix_power(a, g.n - 1) > 0).all()


def test_degree_sequence_path():
    assert degree_sequence(upath(3)) == (2, 1, 1)


def test_degree_sequence_complete4():
    g = DirectedGraph.build(
        [(a, b) for a in range(1, 5) for b in range(a + 1, 5)], undirected=True
    )
    assert degree_sequence(g) == (3, 3, 3, 3)


def test_degree_sequence_star():
    g = DirectedGraph.build([(1, leaf) for leaf in (2, 3, 4, 5)], undirected=True)
    assert degree_sequence(g) == (4, 1, 1, 1, 1)


def test_degree_sequence_rejects_directed():
    with pytest.raises(GraphError):
        degree_sequence(cycle3())


def test_degree_sequence_relabel_invariant():
    g1 = DirectedGraph.build([(1, 2), (2, 3), (3, 4)], undirected=True)
    g2 = DirectedGraph.build([(9, 7), (7, 5), (5, 2)], undirected=True)
    assert degree_sequence(g1) == degree_sequence(g2)


def test_leave_on_triangle():
    g = mutate(triangle(), Leave(3))
    assert g.nodes == (1, 2)
    assert g.edges == frozenset({(1, 2), (2, 1)})


def test_join_on_triangle():
    g = mutate(triangle(), Join(4, ((1, 4),)))
    assert g.nodes == (1, 2, 3, 4)
    assert (4, 1) in g.edges and (1, 4) in g.edges
    assert is_strongly_connected(g)


def test_leave_can_disconnect():
    g = mutate(upath(3), Leave(2))
    assert not is_strongly_connected(g)


def test_leave_then_join_restores():
    g = triangle()
    edges_of_3 = tuple(sorted((j, i) for (j, i) in g.edges if 3 in (j, i)))
    restored = mutate(mutate(g, Leave(3)), Join(3, edges_of_3))
    assert restored == g


def test_protected_node_cannot_leave():
    with pytest.raises(GraphError):
        mutate(triangle(), Leave(1), protected=(1,))


def test_leave_unknown_node():
    with pytest.raises(GraphError):
        mutate(triangle(), Leave(9))


def test_join_existing_id():
    with pytest.raises(GraphError):
        mutate(triangle(), Join(2))


def test_join_rejects_self_loop():
    with pytest.raises(GraphError, match=r"^self-loop 4->4 not allowed$"):
        mutate(triangle(), Join(4, ((1, 4), (4, 4))))


def test_join_rejects_unknown_endpoint():
    with pytest.raises(GraphError, match=r"^edge 4->9 references unknown node$"):
        mutate(cycle3(), Join(4, ((1, 4), (4, 9))))


def test_generate_two_nodes_full_probability():
    g = generate_connected(2, 1.0, seed=0, undirected=True)
    assert g.nodes == (1, 2)
    assert g.edges == frozenset({(1, 2), (2, 1)})


def test_generate_complete():
    g = generate_connected(5, 1.0, seed=0, undirected=True)
    assert len(g.edges) == 5 * 4


def test_generate_deterministic():
    a = generate_connected(12, 0.3, seed=42)
    b = generate_connected(12, 0.3, seed=42)
    assert a == b


def test_generate_rejects_bad_args():
    with pytest.raises(GraphError):
        generate_connected(1, 0.5, seed=0)
    with pytest.raises(GraphError):
        generate_connected(4, 0.0, seed=0)


def test_parse_two_cycle():
    g = parse_edge_list("1 2\n2 1\n")
    assert g.nodes == (1, 2)
    assert g.edges == frozenset({(1, 2), (2, 1)})
    assert not g.undirected


def test_parse_rejects_self_loop():
    with pytest.raises(GraphError):
        parse_edge_list("1 1\n")


def test_parse_rejects_duplicates_and_garbage():
    with pytest.raises(GraphError):
        parse_edge_list("1 2\n1 2\n")
    with pytest.raises(GraphError):
        parse_edge_list("1 2 3\n")
    with pytest.raises(GraphError):
        parse_edge_list("a b\n")
    with pytest.raises(GraphError):
        parse_edge_list("# only a comment\n")


def test_parse_undirected_header_and_comments():
    g = parse_edge_list("# topology\nundirected\n1 2\n2 3\n")
    assert g.undirected
    assert (3, 2) in g.edges


def test_roundtrip_directed_and_undirected():
    rng = np.random.default_rng(11)
    for undirected in (False, True):
        for _ in range(5):
            g = generate_connected(int(rng.integers(2, 10)), 0.5, seed=int(rng.integers(1 << 30)), undirected=undirected)
            assert parse_edge_list(serialize_edge_list(g)) == g


def test_serialize_is_canonical():
    text = "2 1\n1 2\n"
    g = parse_edge_list(text)
    assert serialize_edge_list(parse_edge_list(serialize_edge_list(g))) == serialize_edge_list(g)
