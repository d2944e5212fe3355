"""2D vector/angle primitives and the environment model shared by all modules.

Conventions: positions in meters, angles in radians measured counter-clockwise
from the +x axis. Degree-valued thresholds are converted at module boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Vec2:
    """2D point or displacement in meters. Components must stay finite."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, s: float) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Vec2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def rotated(self, angle: float) -> "Vec2":
        c, s = math.cos(angle), math.sin(angle)
        return Vec2(c * self.x - s * self.y, s * self.x + c * self.y)

    def angle(self) -> float:
        """Direction of the vector in [0, 2*pi)."""
        return math.atan2(self.y, self.x) % TWO_PI


def normalize_angle(angle: float) -> float:
    """Wrap an angle to [0, 2*pi)."""
    a = math.fmod(angle, TWO_PI)
    return a + TWO_PI if a < 0.0 else a


def angle_difference(a: float, b: float) -> float:
    """Signed shortest rotation from b to a, in (-pi, pi]."""
    d = math.fmod(a - b, TWO_PI)
    if d > math.pi:
        d -= TWO_PI
    elif d <= -math.pi:
        d += TWO_PI
    return d


@dataclass(frozen=True)
class Pose:
    """Position plus body orientation; orientation is normalized to [0, 2*pi)."""

    position: Vec2
    orientation: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "orientation", normalize_angle(self.orientation))


@dataclass(frozen=True)
class Segment:
    a: Vec2
    b: Vec2

    def midpoint(self) -> Vec2:
        return Vec2(0.5 * (self.a.x + self.b.x), 0.5 * (self.a.y + self.b.y))


def distance_point_segment(p: Vec2, s: Segment) -> float:
    """Euclidean distance from a point to the nearest point of a segment."""
    ax, ay = s.a.x, s.a.y
    ex, ey = s.b.x - ax, s.b.y - ay
    wx, wy = p.x - ax, p.y - ay
    ee = ex * ex + ey * ey
    if ee == 0.0:
        return math.hypot(wx, wy)
    t = (wx * ex + wy * ey) / ee
    t = max(0.0, min(1.0, t))
    return math.hypot(wx - t * ex, wy - t * ey)


def hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Element-wise `math.hypot`, bit for bit: np.hypot and sqrt(x*x + y*y)
    differ from it in the last ulp on some inputs, and a distance that
    decides a branch or an inclusive bound must be the one the scalar rules
    compute."""
    return np.fromiter(map(math.hypot, x.tolist(), y.tolist()), float, x.size)


def _points_segment(points: np.ndarray, s: Segment | tuple, norm) -> np.ndarray:
    (ax, ay), (bx, by) = ((s.a.x, s.a.y), (s.b.x, s.b.y)) if isinstance(s, Segment) else s
    ex, ey = bx - ax, by - ay
    wx, wy = points[..., 0] - ax, points[..., 1] - ay
    ee = ex * ex + ey * ey
    # t = 0 on a zero-length segment leaves norm(wx, wy) exactly
    t = np.divide(wx * ex + wy * ey, ee, out=np.zeros(wx.shape), where=ee != 0.0)
    t = np.clip(t, 0.0, 1.0)
    return norm(wx - t * ex, wy - t * ey)


def distance_points_segment(points: np.ndarray, s: Segment) -> np.ndarray:
    """`distance_point_segment` for each row of an (n, 2) array, bit for bit.
    Anticipation takes it, since it must agree with the scalar rules."""
    return _points_segment(points, s, hypot)


def points_segment_distance(points: np.ndarray, s: Segment | tuple) -> np.ndarray:
    """`distance_points_segment` with `np.hypot` in place of `hypot`, one
    numpy call for the whole array. Conflict detection and the planner's
    trigger take it: no scalar rule decides what they decide.

    `s` is a `Segment`, or its ends as `((ax, ay), (bx, by))` whose
    coordinates broadcast against the points' last-axis columns: (K, 1)
    arrays give one segment per row of (K, n, 2) points."""
    return _points_segment(points, s, np.hypot)


def _circle_primitive(u: float, r: float) -> float:
    # antiderivative of sqrt(r^2 - u^2), for |u| <= r
    return 0.5 * (u * math.sqrt(r * r - u * u) + r * r * math.asin(u / r))


def _clamped_chord_integral(c: float, r: float, u0: float, u1: float) -> float:
    # integral over [u0, u1] of clamp(c, -h(u), h(u)) with h(u) = sqrt(r^2 - u^2):
    # inside |u| <= w = sqrt(r^2 - c^2) the line y = c bounds it, outside the circle
    m = abs(c)
    w = math.sqrt(max(0.0, r * r - m * m))

    def primitive(u: float) -> float:
        return _circle_primitive(min(u, -w), r) + _circle_primitive(max(u, w), r) + m * max(-w, min(w, u))

    return math.copysign(primitive(u1) - primitive(u0), c)


def disc_rect_intersection_area(center: Vec2, radius: float, width: float, height: float) -> float:
    """Exact area of a disc clipped to the rectangle [0, width] x [0, height].

    With the disc centered at the origin, the part of the vertical chord at
    abscissa u that lies below height c has length h + clamp(c, -h, h), where
    h = sqrt(r^2 - u^2). The chord clipped to the rectangle is the difference
    of that at its top and bottom edges, integrated in closed form over the
    abscissas the disc and the rectangle share.
    """
    if radius <= 0.0:
        return 0.0
    u0 = max(0.0 - center.x, -radius)
    u1 = min(width - center.x, radius)
    if u0 >= u1:
        return 0.0
    top = _clamped_chord_integral(height - center.y, radius, u0, u1)
    bottom = _clamped_chord_integral(0.0 - center.y, radius, u0, u1)
    return max(0.0, top - bottom)


@dataclass(frozen=True)
class Environment:
    """A width x height rectangle, optionally walled along its left and
    right edges, x = 0 and x = width, over their full height.

    Those side walls make the place "definite" for the in-group rule and keep
    candidate positions `wall_clearance` away from them. The narrow passage
    is 3 m wide with side walls, so the flow runs along y between them. The
    goal boxes along the top and bottom edges are `simulation._draw_goal`'s.
    """

    width: float
    height: float
    side_walls: bool = False

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("environment dimensions must be positive")

    def center(self) -> Vec2:
        return Vec2(0.5 * self.width, 0.5 * self.height)
