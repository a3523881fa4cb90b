"""Path-diversity metrics."""

from math import isclose

from repro.metrics import (
    max_edge_disjoint_minimal_paths,
    minimal_path_matrix,
    physical_path_coverage,
)
from repro.routing import (
    DimensionOrderMesh,
    NegativeFirst,
    UnrestrictedMinimal,
)
from repro.topology import build_hypercube


def test_minimal_path_matrix_ecube(mesh33):
    mat = minimal_path_matrix(DimensionOrderMesh(mesh33))
    assert all(v == 1 for v in mat.values())
    assert len(mat) == 9 * 8


def test_minimal_path_matrix_unrestricted(mesh33):
    mat = minimal_path_matrix(UnrestrictedMinimal(mesh33))
    assert mat[(0, 8)] == 6  # C(4,2) lattice paths on a 2x2 displacement
    assert mat[(0, 1)] == 1


def test_physical_coverage_bounds(mesh33):
    full = physical_path_coverage(UnrestrictedMinimal(mesh33))
    partial = physical_path_coverage(NegativeFirst(mesh33))
    single = physical_path_coverage(DimensionOrderMesh(mesh33))
    assert isclose(full, 1.0)
    assert single < partial < full


def test_edge_disjoint_paths():
    h = build_hypercube(3)
    ra = UnrestrictedMinimal(h)
    # antipodal pair at distance 3: the 6 minimal paths include 3 pairwise
    # edge-disjoint ones (classic hypercube fact)
    assert max_edge_disjoint_minimal_paths(ra, 0, 7) == 3
    # adjacent pair: single path
    assert max_edge_disjoint_minimal_paths(ra, 0, 1) == 1


def test_edge_disjoint_respects_restrictions(mesh33):
    ecube = DimensionOrderMesh(mesh33)
    assert max_edge_disjoint_minimal_paths(ecube, 0, 8) == 1
    free = UnrestrictedMinimal(mesh33)
    assert max_edge_disjoint_minimal_paths(free, 0, 8) == 2
