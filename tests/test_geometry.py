"""Geometry: wall grids, AP placement, crossing counts vs the segment oracle."""

import numpy as np
import pytest

from apdim.geometry import (
    ServiceArea,
    crossing_counts,
    grid_ladder,
    place_aps,
    wall_crossings,
    wall_positions,
)
from apdim.oracles import brute_force_wall_crossings


def test_wall_positions_equally_spaced():
    xs, ys = wall_positions(ServiceArea(lx=100, ly=100, wx=4, wy=4))
    assert np.allclose(xs, [20, 40, 60, 80])
    assert np.allclose(ys, [20, 40, 60, 80])


def test_wall_positions_none():
    xs, ys = wall_positions(ServiceArea(lx=100, ly=100))
    assert xs.size == 0 and ys.size == 0


def test_wall_positions_midpoints():
    xs, ys = wall_positions(ServiceArea(lx=100, ly=50, wx=1, wy=1))
    assert np.allclose(xs, [50.0])
    assert np.allclose(ys, [25.0])


def test_area_validation():
    with pytest.raises(ValueError):
        ServiceArea(lx=0, ly=100)
    with pytest.raises(ValueError):
        ServiceArea(lx=100, ly=100, wx=-1)


def test_place_aps_single_center():
    layout = place_aps(ServiceArea(lx=100, ly=100), 1, 1)
    assert np.allclose(layout.ap_xy, [[50.0, 50.0]])


def test_place_aps_three_by_one():
    layout = place_aps(ServiceArea(lx=100, ly=100), 3, 1)
    assert np.allclose(layout.ap_xy[:, 0], [100 / 6, 50.0, 500 / 6])
    assert np.allclose(layout.ap_xy[:, 1], 50.0)


def test_place_aps_nine_rooms_pattern():
    # 3x3 grid over a 100 m square: AP coordinates at {100/6, 50, 500/6} each axis,
    # row-major order with y varying in the outer loop.
    layout = place_aps(ServiceArea(lx=100, ly=100), 3, 3)
    coords = [100 / 6, 50.0, 500 / 6]
    expected = [(x, y) for y in coords for x in coords]
    assert np.allclose(layout.ap_xy, expected)


def test_place_aps_rejects_zero():
    with pytest.raises(ValueError):
        place_aps(ServiceArea(lx=100, ly=100), 0, 1)


def test_place_aps_inside_and_min_distance():
    area = ServiceArea(lx=120, ly=80)
    for nx, ny in [(1, 1), (2, 3), (5, 4), (10, 10)]:
        layout = place_aps(area, nx, ny)
        assert layout.ap_xy.shape == (nx * ny, 2)
        assert (layout.ap_xy[:, 0] > 0).all() and (layout.ap_xy[:, 0] < area.lx).all()
        assert (layout.ap_xy[:, 1] > 0).all() and (layout.ap_xy[:, 1] < area.ly).all()
        diff = layout.ap_xy[:, None, :] - layout.ap_xy[None, :, :]
        d = np.hypot(diff[..., 0], diff[..., 1])
        d[np.diag_indices_from(d)] = np.inf
        if nx * ny > 1:
            assert d.min() == pytest.approx(min(area.lx / nx, area.ly / ny))


def test_wall_crossings_strict_betweenness():
    area = ServiceArea(lx=100, ly=100, wx=4, wy=0)
    assert wall_crossings(area, (10, 50), (50, 50)) == 2  # crosses x=20 and x=40


def test_wall_crossings_degenerate_ray():
    area = ServiceArea(lx=100, ly=100, wx=4, wy=4)
    assert wall_crossings(area, (30, 30), (30, 30)) == 0
    # a coincident pair sitting exactly on a wall does not cross it
    assert wall_crossings(area, (20, 30), (20, 30)) == 0


def test_wall_crossings_endpoint_on_wall_not_crossed():
    area = ServiceArea(lx=100, ly=100, wx=4, wy=4)
    assert wall_crossings(area, (20, 50), (30, 50)) == 0
    assert wall_crossings(area, (20, 50), (50, 50)) == 1  # only x=40


def test_wall_crossings_along_the_boundary():
    # walls span the full side, so a segment along the edge crosses every wall
    # strictly between its endpoints; the proper-intersection oracle sees only
    # the walls' ends touched and gives 0
    area = ServiceArea(lx=100, ly=80, wx=0, wy=3)
    assert wall_crossings(area, (0, 0), (0, 80)) == 3
    assert wall_crossings(area, (100, 10), (100, 50)) == 2
    assert brute_force_wall_crossings(area, (0, 0), (0, 80)) == 0


def test_wall_crossings_diagonal_eight():
    area = ServiceArea(lx=100, ly=100, wx=4, wy=4)
    # independent oracle: proper segment-segment intersections against all 8 walls
    assert brute_force_wall_crossings(area, (10, 10), (90, 90)) == 8
    assert wall_crossings(area, (10, 10), (90, 90)) == 8


def test_wall_crossings_symmetry_and_oracle_1000_pairs():
    rng = np.random.default_rng(3)
    area = ServiceArea(lx=100, ly=100, wx=4, wy=4)
    for _ in range(1000):
        p = tuple(rng.random(2) * 100)
        q = tuple(rng.random(2) * 100)
        fast = wall_crossings(area, p, q)
        assert fast == wall_crossings(area, q, p)
        assert fast == brute_force_wall_crossings(area, p, q)


def test_crossing_counts_matrix_matches_scalar():
    rng = np.random.default_rng(4)
    area = ServiceArea(lx=50, ly=90, wx=3, wy=5)
    a = rng.random((6, 2)) * [50, 90]
    b = rng.random((8, 2)) * [50, 90]
    counts = crossing_counts(area, a, b)
    for i in range(6):
        for j in range(8):
            assert counts[i, j] == wall_crossings(area, tuple(a[i]), tuple(b[j]))


def _pairwise_crossing_counts(area, a_xy, b_xy):
    """Reference: searchsorted on the broadcast (n, m) pair extremes."""
    total = np.zeros((len(a_xy), len(b_xy)), dtype=np.int64)
    for walls, axis in zip(wall_positions(area), (0, 1)):
        if walls.size == 0:
            continue
        av = a_xy[:, axis][:, None]
        bv = b_xy[:, axis][None, :]
        lo = np.minimum(av, bv)
        hi = np.maximum(av, bv)
        cnt = np.searchsorted(walls, hi, side="left") - np.searchsorted(walls, lo, side="right")
        total += np.maximum(cnt, 0)
    return total


def test_crossing_counts_equal_pairwise_reference_and_oracle():
    # walls at x = 20, 40, 60, 80 and y = 20, 40, 60; the coordinate grid puts
    # endpoints on walls, rays through wall junctions and coincident points,
    # and keeps the oracle's orientation tests exact. It stays off the area's
    # boundary, where the oracle sees a ray along the edge touch the walls' ends.
    area = ServiceArea(lx=100, ly=80, wx=4, wy=3)
    xs, ys = [5, 20, 35, 40, 60, 70, 80, 95], [10, 20, 40, 55, 60, 75]
    grid = np.array([(x, y) for x in xs for y in ys], dtype=float)
    rng = np.random.default_rng(5)
    a = np.vstack([grid[::2], rng.random((7, 2)) * [100, 80]])
    b = np.vstack([grid, a[:5]])
    counts = crossing_counts(area, a, b)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, _pairwise_crossing_counts(area, a, b))
    oracle = [[brute_force_wall_crossings(area, tuple(p), tuple(q)) for q in b] for p in a]
    assert np.array_equal(counts, oracle)
    for walled in (ServiceArea(lx=100, ly=80, wx=0, wy=3), ServiceArea(lx=100, ly=80)):
        assert np.array_equal(
            crossing_counts(walled, a, b), _pairwise_crossing_counts(walled, a, b)
        )


def test_grid_ladder_shapes():
    ladder = grid_ladder(100)
    assert ladder[:6] == [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]
    assert ladder[-1] == (10, 10)
    counts = [nx * ny for nx, ny in ladder]
    assert counts == sorted(counts)
    assert all(0 <= ny - nx <= 1 for nx, ny in ladder)
    assert max(counts) <= 100


def test_grid_ladder_cap():
    assert grid_ladder(1) == [(1, 1)]
    assert grid_ladder(5) == [(1, 1), (1, 2), (2, 2)]
