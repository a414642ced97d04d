"""Planar geometry helpers shared across the package.

The paper's search-space model (Section IV-B) reasons about query and road
*directions* relative to the latitude/longitude reference lines, and about
elliptic search spaces.  All of that geometry lives here, on a flat plane:
coordinates are kilometres on a local tangent plane, which is how the paper's
184 km x 185 km Beijing extent is treated as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

Point = Tuple[float, float]

#: Maximum meaningful offset angle between a direction and the nearest
#: reference axis, in degrees (paper Section IV-B1: directions are folded
#: into [0, 45] because roads parallel and perpendicular to each other are
#: equivalent for search-space estimation).
MAX_REFERENCE_ANGLE = 45.0


def euclidean(ax: float, ay: float, bx: float, by: float) -> float:
    """Euclidean distance between ``(ax, ay)`` and ``(bx, by)``."""
    return math.hypot(bx - ax, by - ay)


def reference_angle(dx: float, dy: float) -> float:
    """Fold a direction vector onto the paper's [0, 45] degree scale.

    The angle of ``(dx, dy)`` is measured against both the latitude line
    (x axis) and the longitude line (y axis); the smaller of the two is the
    direction (paper Eq. for ``e.theta``).  A zero vector maps to ``0.0``.
    """
    if dx == 0.0 and dy == 0.0:
        return 0.0
    theta = math.degrees(math.atan2(abs(dy), abs(dx)))  # in [0, 90]
    return min(theta, 90.0 - theta)


def bearing_angle(dx: float, dy: float) -> float:
    """Full-circle direction of ``(dx, dy)`` in degrees within [0, 360)."""
    if dx == 0.0 and dy == 0.0:
        return 0.0
    deg = math.degrees(math.atan2(dy, dx)) % 360.0
    # A tiny negative angle can round up to exactly 360.0 under the modulo.
    return 0.0 if deg >= 360.0 else deg


def angular_difference(a: float, b: float) -> float:
    """Smallest absolute difference between two bearings, in [0, 180]."""
    diff = abs(a - b) % 360.0
    return min(diff, 360.0 - diff)


@dataclass(frozen=True)
class Ellipse:
    """An ellipse described by its two foci and the constant distance sum.

    A point ``p`` lies inside the ellipse iff
    ``d(p, f1) + d(p, f2) <= distance_sum``.
    """

    f1: Point
    f2: Point
    distance_sum: float

    def contains(self, x: float, y: float) -> bool:
        """Whether ``(x, y)`` lies inside (or on) the ellipse."""
        d = euclidean(x, y, *self.f1) + euclidean(x, y, *self.f2)
        return d <= self.distance_sum + 1e-12

    @property
    def center(self) -> Point:
        return ((self.f1[0] + self.f2[0]) / 2.0, (self.f1[1] + self.f2[1]) / 2.0)

    @property
    def semi_major(self) -> float:
        return self.distance_sum / 2.0

    @property
    def semi_minor(self) -> float:
        c = euclidean(*self.f1, *self.f2) / 2.0
        a = self.semi_major
        return math.sqrt(max(a * a - c * c, 0.0))

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """Axis-aligned bounding box ``(min_x, min_y, max_x, max_y)``.

        The box of a rotated ellipse with semi-axes ``a, b`` and axis
        direction ``phi`` has half-extents ``sqrt(a^2 cos^2 + b^2 sin^2)``.
        """
        cx, cy = self.center
        a = self.semi_major
        b = self.semi_minor
        dx = self.f2[0] - self.f1[0]
        dy = self.f2[1] - self.f1[1]
        if dx == 0.0 and dy == 0.0:
            half_x = half_y = a
        else:
            phi = math.atan2(dy, dx)
            cos2 = math.cos(phi) ** 2
            sin2 = math.sin(phi) ** 2
            half_x = math.sqrt(a * a * cos2 + b * b * sin2)
            half_y = math.sqrt(a * a * sin2 + b * b * cos2)
        return (cx - half_x, cy - half_y, cx + half_x, cy + half_y)


def search_space_ellipse(
    sx: float,
    sy: float,
    tx: float,
    ty: float,
    theta_deg: float,
) -> Ellipse:
    """Build the generalized-A* search-space ellipse of the paper (Eqs. 4-5).

    ``s`` is one focus.  The other focus ``f`` sits along the direction from
    ``s`` to ``t`` at distance ``2 h cos(theta) / (1 + cos(theta))``, and the
    constant distance sum is ``2 h / (1 + cos(theta))``, where ``h`` is the
    Euclidean distance from ``s`` to ``t`` and ``theta`` is the offset between
    the query direction and the underlying road directions (clamped to
    [0, 45] degrees; the paper notes theta > 45 folds to 90 - theta).
    """
    theta = fold_theta(theta_deg)
    h = euclidean(sx, sy, tx, ty)
    if h == 0.0:
        return Ellipse((sx, sy), (sx, sy), 0.0)
    cos_t = math.cos(math.radians(theta))
    d_fs = 2.0 * h * cos_t / (1.0 + cos_t)
    d_sum = 2.0 * h / (1.0 + cos_t)
    # Unit vector from s towards t fixes the +/- sign of Eq. 5.
    ux = (tx - sx) / h
    uy = (ty - sy) / h
    f = (sx + d_fs * ux, sy + d_fs * uy)
    return Ellipse((sx, sy), f, d_sum)


def fold_theta(theta_deg: float) -> float:
    """Clamp an offset angle into the paper's [0, 45] degree range."""
    theta = abs(theta_deg) % 90.0
    if theta > MAX_REFERENCE_ANGLE:
        theta = 90.0 - theta
    return theta


def segment_cells(
    ax: float,
    ay: float,
    bx: float,
    by: float,
    origin: Point,
    cell_size: float,
    cells_per_side: int,
) -> List[Tuple[int, int]]:
    """Grid cells traversed by the segment from ``a`` to ``b``.

    Uses an Amanatides-Woo style traversal over a uniform grid anchored at
    ``origin`` with square cells of ``cell_size``.  The result is clipped to
    ``[0, cells_per_side)`` in both axes and returned in visiting order.
    """
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")

    def clamp(i: int) -> int:
        return max(0, min(cells_per_side - 1, i))

    def cell_of(x: float, y: float) -> Tuple[int, int]:
        return (
            clamp(int((x - origin[0]) / cell_size)),
            clamp(int((y - origin[1]) / cell_size)),
        )

    cx, cy = cell_of(ax, ay)
    ex, ey = cell_of(bx, by)
    cells = [(cx, cy)]
    dx = bx - ax
    dy = by - ay
    step_x = 1 if dx > 0 else -1
    step_y = 1 if dy > 0 else -1

    def boundary_t(pos: float, cell: int, step: int, o: float, d: float) -> float:
        edge = o + (cell + (1 if step > 0 else 0)) * cell_size
        return (edge - pos) / d if d != 0 else math.inf

    t_max_x = boundary_t(ax, cx, step_x, origin[0], dx)
    t_max_y = boundary_t(ay, cy, step_y, origin[1], dy)
    t_delta_x = abs(cell_size / dx) if dx != 0 else math.inf
    t_delta_y = abs(cell_size / dy) if dy != 0 else math.inf

    guard = 4 * cells_per_side + 4
    # The walk ends with the segment (t = 1): an end point on a cell border
    # must not send it on into the cells beyond that border.
    while (cx, cy) != (ex, ey) and min(t_max_x, t_max_y) <= 1.0 and guard > 0:
        if t_max_x < t_max_y:
            cx += step_x
            t_max_x += t_delta_x
        else:
            cy += step_y
            t_max_y += t_delta_y
        cx = clamp(cx)
        cy = clamp(cy)
        if cells[-1] != (cx, cy):
            cells.append((cx, cy))
        guard -= 1
    # Rounding at t = 1 (or an exhausted guard) can leave the walk short of
    # the end cell: close the gap one adjacent cell at a time.
    while (cx, cy) != (ex, ey):
        if cx != ex:
            cx += 1 if ex > cx else -1
        else:
            cy += 1 if ey > cy else -1
        cells.append((cx, cy))
    return cells


def bounding_box(points: Iterable[Point]) -> Tuple[float, float, float, float]:
    """Axis-aligned bounding box of ``points`` as ``(min_x, min_y, max_x, max_y)``."""
    it: Iterator[Point] = iter(points)
    try:
        x0, y0 = next(it)
    except StopIteration:
        raise ValueError("bounding_box of an empty point set") from None
    min_x = max_x = x0
    min_y = max_y = y0
    for x, y in it:
        min_x = min(min_x, x)
        max_x = max(max_x, x)
        min_y = min(min_y, y)
        max_y = max(max_y, y)
    return (min_x, min_y, max_x, max_y)


def centroid(points: Sequence[Point]) -> Point:
    """Arithmetic mean of a non-empty point sequence."""
    if not points:
        raise ValueError("centroid of an empty point set")
    sx = sum(p[0] for p in points)
    sy = sum(p[1] for p in points)
    n = float(len(points))
    return (sx / n, sy / n)
