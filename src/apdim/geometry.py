"""Service-area geometry: wall grids, regular AP placement, wall-crossing counts.

Points are (x, y) pairs in meters; vectorized helpers take (n, 2) float arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ServiceArea:
    """Rectangular indoor area with equally spaced full-length interior walls.

    ``wx`` vertical walls partition the x extent, ``wy`` horizontal walls the
    y extent; every wall spans the full opposite side of the rectangle.
    """

    lx: float
    ly: float
    wx: int = 0
    wy: int = 0

    def __post_init__(self):
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError(f"area extents must be positive, got lx={self.lx}, ly={self.ly}")
        if self.wx < 0 or self.wy < 0:
            raise ValueError(f"wall counts must be >= 0, got wx={self.wx}, wy={self.wy}")

    @property
    def area_km2(self) -> float:
        return self.lx * self.ly / 1e6


@dataclass(frozen=True, eq=False)
class Layout:
    """A deployed regular AP grid: nx * ny positions, row-major (y outer, x inner)."""

    area: ServiceArea
    ap_xy: np.ndarray  # (nx*ny, 2) float64, strictly inside the area
    nx: int
    ny: int

    @property
    def n_aps(self) -> int:
        return self.nx * self.ny

    @property
    def density_per_km2(self) -> float:
        return self.n_aps / self.area.area_km2


def wall_positions(area: ServiceArea) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of the vertical (x) and horizontal (y) walls.

    Wall a of wx sits at x = lx * a / (wx + 1), a = 1..wx, and likewise in y.
    Returns two ascending float arrays (possibly empty).
    """
    xs = area.lx * np.arange(1, area.wx + 1) / (area.wx + 1)
    ys = area.ly * np.arange(1, area.wy + 1) / (area.wy + 1)
    return xs, ys


def place_aps(area: ServiceArea, nx: int, ny: int) -> Layout:
    """Place nx * ny APs at the centers of a regular grid of cells.

    AP (a, b) with a = 1..nx, b = 1..ny sits at
    (lx/nx * (1/2 + (a-1)), ly/ny * (1/2 + (b-1))); index order is row-major
    with b outer and a inner, i.e. index = (b-1)*nx + (a-1).
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"grid dimensions must be >= 1, got nx={nx}, ny={ny}")
    xs = area.lx / nx * (0.5 + np.arange(nx))
    ys = area.ly / ny * (0.5 + np.arange(ny))
    gx, gy = np.meshgrid(xs, ys)  # row-major: y varies by row
    ap_xy = np.column_stack([gx.ravel(), gy.ravel()])
    return Layout(area=area, ap_xy=ap_xy, nx=nx, ny=ny)


def crossing_counts(area: ServiceArea, a_xy, b_xy) -> np.ndarray:
    """Wall-crossing counts for every pair (a_i, b_j) of points.

    Counts walls whose coordinate lies strictly between the two endpoints'
    coordinates; an endpoint exactly on a wall does not cross it. Walls span
    the full side, boundary included, so a segment along the area's edge
    crosses every wall whose coordinate lies strictly between its endpoints.
    Returns an (n, m) int array for a_xy of shape (n, 2) and b_xy of (m, 2).

    The walls strictly between lo and hi are those ranked from
    searchsorted(walls, lo, "right") to searchsorted(walls, hi, "left").
    searchsorted is monotone, so the rank of max(a, b) is the max of the
    points' ranks (and likewise for min): ranks are found once per point and
    combined per pair.
    """
    a_xy = np.atleast_2d(np.asarray(a_xy, dtype=float))
    b_xy = np.atleast_2d(np.asarray(b_xy, dtype=float))
    total = np.zeros((a_xy.shape[0], b_xy.shape[0]), dtype=np.int64)
    for walls, axis in zip(wall_positions(area), (0, 1)):
        if walls.size == 0:
            continue
        a, b = a_xy[:, axis], b_xy[:, axis]
        cnt = np.maximum.outer(
            np.searchsorted(walls, a, side="left"), np.searchsorted(walls, b, side="left")
        )
        cnt -= np.minimum.outer(
            np.searchsorted(walls, a, side="right"), np.searchsorted(walls, b, side="right")
        )
        np.maximum(cnt, 0, out=cnt)  # lo == hi on a wall would give -1
        total += cnt
    return total


def wall_crossings(area: ServiceArea, p, q) -> int:
    """Number of walls crossed by the direct ray between points p and q."""
    return int(crossing_counts(area, [p], [q])[0, 0])


def grid_ladder(max_aps: int) -> list[tuple[int, int]]:
    """Near-square grid shapes (nx, ny) with ny - nx in {0, 1}, ascending AP count.

    The dimensioner walks this ladder: 1x1, 1x2, 2x2, 2x3, 3x3, ... up to
    nx*ny <= max_aps.
    """
    if max_aps < 1:
        raise ValueError(f"max_aps must be >= 1, got {max_aps}")
    shapes = []
    n = 1
    while True:
        if n * n > max_aps:
            break
        shapes.append((n, n))
        if n * (n + 1) <= max_aps:
            shapes.append((n, n + 1))
        n += 1
    return shapes
