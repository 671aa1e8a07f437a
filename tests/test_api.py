import egrtools
from egrtools import bounds, cli, geometry, graph_core, spectral

# public names that were removed; the one walk pass and the one BFS in
# graph_core cover what they did, the elliptic quadric gives W(q)'s ovoid,
# the Singer difference set gives the pencil's planes (plane_rows), the
# regular spread gives W(q)'s spread, and names that only tests called are
# gone or test oracles (the cycle counters, the exhaustive ovoid and spread
# searches, tangent_planes, normalize_point, the Catalan numbers, the
# tree-walk polynomial and the expanded g = 5 odd-girth bound)
REMOVED = [
    "girth",
    "bipartition",
    "distance_layers",
    "count_cycles_through_vertex",
    "tangent_plane",
    "ovoid_search",
    "count_girth_cycles_through_edge",
    "cycle_counts_through_vertices",
    "tangent_planes",
    "normalize_point",
    "plane_rows",
    "spread_search",
    "catalan",
    "tree_walk_polynomial",
    "odd_girth_bound_g5",
]


def test_every_public_name_resolves():
    assert len(set(egrtools.__all__)) == len(egrtools.__all__)
    for name in egrtools.__all__:
        assert getattr(egrtools, name) is not None, name


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in egrtools.__all__
        assert not hasattr(egrtools, name), name
    for name in [
        "girth",
        "bfs_distances",
        "distance_layers",
        "bipartition",
        "count_cycles_through_vertex",
        "count_girth_cycles_through_edge",
        "cycle_counts_through_vertices",
    ]:
        assert not hasattr(graph_core, name), name
    for name in [
        "tangent_plane",
        "plane_points",
        "ovoid_search",
        "tangent_planes",
        "normalize_point",
        "plane_rows",
        "spread_search",
        "_cover_search",
        "_first_cover_solution",
        "rows_through",
    ]:
        assert not hasattr(geometry, name), name
    assert not hasattr(geometry.IncidenceGeometry, "blocks_through")
    for module, name in [(spectral, "catalan"), (spectral, "tree_walk_polynomial"), (bounds, "odd_girth_bound_g5")]:
        assert not hasattr(module, name), name
    # graph6 input is blocked by one rule, graph_core._blocks, bounded by MAX_DECODE_BYTES
    for name in ["STREAM_BLOCK_LINES", "STREAM_BLOCK_BYTES", "_blocks"]:
        assert not hasattr(cli, name), name
