"""Bitset graph core: construction, chordality, matchings, I/O."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgebetti.families import g_rb
from edgebetti.graphs import (
    MAX_PARSE_VERTICES,
    Graph,
    format_graph,
    graph_from_json_dict,
    graph_from_text,
    graph_to_json_dict,
    graph_to_text,
    induced_matching_number,
    induced_matchings,
    is_chordal,
    is_connected,
    is_induced_matching,
    iter_bits,
    mask_of,
    new_graph,
    parse_graph,
)

from oracles import naive_induced_matching_number, naive_induced_matchings, naive_is_chordal


def cycle(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return new_graph(n, itertools.combinations(range(n), 2))


def random_graph(n, rng, p=0.5):
    return new_graph(
        n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    )


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(iter_bits(0b100101)) == [0, 2, 5]
    assert list(iter_bits(0)) == []


def test_new_graph_basic():
    g = new_graph(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.num_edges() == 2
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.adj[1] == 0b101
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert g.degree(1) == 2


def test_new_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        new_graph(-1, [])
    with pytest.raises(ValueError):
        new_graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        new_graph(2, [(0, 0)])  # loop
    with pytest.raises(ValueError):
        new_graph(2, [(0, 1)], labels=["a"])  # wrong label count


def test_duplicate_edges_collapse():
    g = new_graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges() == 1


def test_graph_equality_ignores_labels():
    a = new_graph(2, [(0, 1)], labels=["u", "v"])
    b = new_graph(2, [(0, 1)])
    assert a == b
    assert hash(a) == hash(b)


def test_is_connected():
    assert is_connected(path(5))
    assert not is_connected(new_graph(3, [(0, 1)]))
    assert is_connected(new_graph(1, []))
    # Empty vertex set counts as connected by convention.
    assert is_connected(new_graph(0, []))


def test_is_chordal_small_cases():
    assert is_chordal(path(6))
    assert is_chordal(complete(5))
    assert is_chordal(new_graph(4, []))
    assert not is_chordal(cycle(4))
    assert not is_chordal(cycle(5))
    # C4 plus a chord is chordal again.
    assert is_chordal(new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))


def test_is_chordal_matches_oracle_exhaustively():
    # All graphs on <= 5 vertices.
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[t] for t in range(len(pairs)) if bits >> t & 1]
            g = new_graph(n, edges)
            assert is_chordal(g) == naive_is_chordal(g), (n, edges)


def test_is_induced_matching():
    g = path(6)
    assert is_induced_matching(g, [(0, 1), (3, 4)])
    assert not is_induced_matching(g, [(0, 1), (2, 3)])  # edge 1-2 joins them
    assert not is_induced_matching(g, [(0, 1), (1, 2)])  # shared vertex
    assert is_induced_matching(g, [])
    with pytest.raises(ValueError):
        is_induced_matching(g, [(0, 2)])  # not an edge


def test_induced_matching_number_known():
    assert induced_matching_number(new_graph(1, [])) == 0
    assert induced_matching_number(complete(6)) == 1
    assert induced_matching_number(path(6)) == 2
    assert induced_matching_number(cycle(6)) == 2
    assert induced_matching_number(cycle(7)) == 2


def test_induced_matching_search_is_capped():
    # k disjoint edges have 2^k induced matchings; the guard fires when the
    # search is called, not at its first matching
    assert induced_matching_number(new_graph(16, [(2 * k, 2 * k + 1) for k in range(8)])) == 8
    big = new_graph(17, [(2 * k, 2 * k + 1) for k in range(8)])
    with pytest.raises(ValueError, match="17 > 16"):
        induced_matchings(big)
    with pytest.raises(ValueError, match="17 > 16"):
        induced_matching_number(big)


def test_induced_matching_number_matches_oracle():
    import random

    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng.randint(1, 7), rng)
        assert induced_matching_number(g) == naive_induced_matching_number(g)
        # the enumerator lists exactly the subsets the naive filter accepts,
        # each once, and is_induced_matching accepts those and no others
        listed = list(induced_matchings(g))
        accepted = set(naive_induced_matchings(g))
        assert len(set(listed)) == len(listed) and set(listed) == accepted
        # the walk lists them in strictly increasing lexicographic order of
        # edge indices, the order find_certificate's first certificate uses
        edges = g.edges()
        keys = [[edges.index(e) for e in m] for m in listed]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        for size in range(1, len(edges) + 1):
            for sub in itertools.combinations(edges, size):
                assert is_induced_matching(g, sub) == (sub in accepted), sub


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [pairs[t] for t in range(len(pairs)) if mask >> t & 1]
    return new_graph(n, edges)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graphs())
def test_is_chordal_matches_oracle_up_to_7_vertices(g):
    assert is_chordal(g) == naive_is_chordal(g)


def test_is_chordal_at_the_parse_cap():
    # 64 vertices, beyond the reach of the naive oracle
    for n in range(4, MAX_PARSE_VERTICES + 1):
        assert not is_chordal(cycle(n)), n
    for n in range(MAX_PARSE_VERTICES + 1):
        assert is_chordal(path(n)), n
    big = g_rb(21, 21)
    assert big.n == 63 and is_chordal(big)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(graphs())
def test_text_round_trip(g):
    assert graph_from_text(graph_to_text(g)) == g


@settings(max_examples=50, deadline=None, derandomize=True)
@given(graphs())
def test_json_round_trip(g):
    d = graph_to_json_dict(g)
    h = graph_from_json_dict(json.loads(json.dumps(d)))
    assert h == g
    assert h.labels == g.labels


def test_text_format_exact():
    g = new_graph(3, [(0, 2), (0, 1)])
    assert graph_to_text(g) == "3 2\n0 1\n0 2\n"
    assert graph_from_text("3 2\n0 1\n0 2\n") == g


def test_text_parse_errors():
    with pytest.raises(ValueError):
        graph_from_text("")
    # the counts are whole numbers of tokens after "n m"
    with pytest.raises(ValueError, match="^expected 4 numbers after 'n m', found 2$"):
        graph_from_text("2 2\n0 1\n")  # fewer edge lines than declared
    with pytest.raises(ValueError, match="^expected 4 numbers after 'n m', found 3$"):
        graph_from_text("3 2\n0 1\n1\n")  # half an edge line
    with pytest.raises(ValueError, match="^expected 0 numbers after 'n m', found 2$"):
        graph_from_text("2 0\n0 1\n")  # extra junk after declared edges
    # a negative edge count is refused as such, not as a negative token count
    with pytest.raises(ValueError, match="^edge count -1 is negative$"):
        graph_from_text("3 -1\n")
    with pytest.raises(ValueError, match="^edge count -2 is negative$"):
        graph_from_text("3 -2\n0 1\n")


def test_parse_graph_autodetects():
    g = new_graph(2, [(0, 1)])
    assert parse_graph(graph_to_text(g)) == g
    assert parse_graph(json.dumps(graph_to_json_dict(g))) == g
    assert parse_graph("  " + json.dumps(graph_to_json_dict(g))) == g


def test_parse_graph_drops_one_byte_order_mark():
    # editors such as Notepad start a UTF-8 file with U+FEFF
    g = new_graph(3, [(0, 1), (1, 2)])
    for text in (graph_to_text(g), json.dumps(graph_to_json_dict(g))):
        assert parse_graph("\ufeff" + text) == parse_graph(text) == g


def test_graph_is_hashable_and_slotted():
    g = new_graph(2, [(0, 1)])
    assert len({g, new_graph(2, [(0, 1)])}) == 1
    with pytest.raises(AttributeError):
        g.extra = 5


def test_graph_rejects_inconsistent_adjacency():
    with pytest.raises(ValueError):
        Graph(2, [0b10])  # wrong length
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, [0b1])  # loop


def test_format_graph_dispatch():
    g = new_graph(2, [(0, 1)])
    assert format_graph(g, "text") == graph_to_text(g)
    assert json.loads(format_graph(g, "json")) == graph_to_json_dict(g)
    with pytest.raises(ValueError):
        format_graph(g, "dot")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "edges", "labels"]) | st.text(max_size=3), kids),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.text(max_size=40),
        st.lists(st.integers(-3, 70), max_size=16).map(lambda xs: " ".join(map(str, xs))),
        _JSON_VALUES.map(json.dumps),
        st.fixed_dictionaries(
            {"n": st.integers(-3, 70), "edges": _JSON_VALUES}, optional={"labels": _JSON_VALUES}
        ).map(json.dumps),
    )
)
def test_parse_graph_fails_only_with_value_error(text):
    # Any input the CLI can be handed either parses or raises ValueError,
    # which the CLI reports as one "error:" line with exit code 2.
    try:
        parse_graph(text)
    except ValueError:
        pass
