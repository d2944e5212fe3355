"""2D vector/angle primitives and the environment model shared by all modules.

Conventions: positions in meters, angles in radians measured counter-clockwise
from the +x axis. Degree-valued thresholds are converted at module boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Vec2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def normalized(self) -> "Vec2":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return Vec2(self.x / n, self.y / n)

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

    def heading(self) -> Vec2:
        return Vec2(math.cos(self.orientation), math.sin(self.orientation))


@dataclass(frozen=True)
class Segment:
    a: Vec2
    b: Vec2

    def midpoint(self) -> Vec2:
        return Vec2(0.5 * (self.a.x + self.b.x), 0.5 * (self.a.y + self.b.y))


def angle_between(u: Vec2, v: Vec2) -> float:
    """Unsigned angle between two nonzero vectors, in [0, pi]."""
    nu, nv = u.norm(), v.norm()
    if nu == 0.0 or nv == 0.0:
        raise ValueError("angle_between requires nonzero vectors")
    c = u.dot(v) / (nu * nv)
    return math.acos(max(-1.0, min(1.0, c)))


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


def _points_segment(points: np.ndarray, s: Segment, norm) -> np.ndarray:
    ax, ay = s.a.x, s.a.y
    ex, ey = s.b.x - ax, s.b.y - ay
    wx, wy = points[:, 0] - ax, points[:, 1] - ay
    ee = ex * ex + ey * ey
    if ee == 0.0:
        return norm(wx, wy)
    t = np.clip((wx * ex + wy * ey) / ee, 0.0, 1.0)
    return norm(wx - t * ex, wy - t * ey)


def distance_points_segment(points: np.ndarray, s: Segment) -> np.ndarray:
    """`distance_point_segment` for each row of an (n, 2) array, bit for bit.
    Anticipation and the walls take it, since they must agree with the
    scalar rules."""
    return _points_segment(points, s, hypot)


def points_segment_distance(points: np.ndarray, s: Segment) -> np.ndarray:
    """`distance_points_segment` with `np.hypot` in place of `hypot`, one
    numpy call instead of a Python call per row. Conflict detection and the
    planner's trigger take it: no scalar rule decides what they decide."""
    return _points_segment(points, s, np.hypot)


def distance_segment_segment(s1: Segment, s2: Segment) -> float:
    """Minimum distance between two segments (0 if they intersect)."""
    if segments_intersect(s1, s2):
        return 0.0
    return min(
        distance_point_segment(s1.a, s2),
        distance_point_segment(s1.b, s2),
        distance_point_segment(s2.a, s1),
        distance_point_segment(s2.b, s1),
    )


def _orient(a: Vec2, b: Vec2, c: Vec2) -> float:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def segments_intersect(s1: Segment, s2: Segment) -> bool:
    d1 = _orient(s2.a, s2.b, s1.a)
    d2 = _orient(s2.a, s2.b, s1.b)
    d3 = _orient(s1.a, s1.b, s2.a)
    d4 = _orient(s1.a, s1.b, s2.b)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True
    # collinear/touching cases fall through; endpoint distances handle them
    return False


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, used for goal boxes and bounds."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"degenerate rectangle: {self}")

    def contains(self, p: Vec2) -> bool:
        return self.x_min <= p.x <= self.x_max and self.y_min <= p.y <= self.y_max


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


def disc_rect_intersection_area(center: Vec2, radius: float, rect: Rect) -> float:
    """Exact area of a disc clipped to a rectangle.

    With the disc centered at the origin, the part of the vertical chord at
    abscissa u that lies below height c has length h + clamp(c, -h, h), where
    h = sqrt(r^2 - u^2). The chord clipped to the rectangle is the difference
    of that at its top and bottom edges, integrated in closed form over the
    abscissas the disc and the rectangle share.
    """
    if radius <= 0.0:
        return 0.0
    u0 = max(rect.x_min - center.x, -radius)
    u1 = min(rect.x_max - center.x, radius)
    if u0 >= u1:
        return 0.0
    top = _clamped_chord_integral(rect.y_max - center.y, radius, u0, u1)
    bottom = _clamped_chord_integral(rect.y_min - center.y, radius, u0, u1)
    return max(0.0, top - bottom)


@dataclass
class Environment:
    """Rectangular world with explicit wall segments and spawn/goal boxes.

    The open square declares no walls; the narrow passage declares its two
    long edges as walls so near-wall classification has something to measure.
    Goal boxes sit along the top and bottom edges.
    """

    width: float
    height: float
    walls: list[Segment] = field(default_factory=list)
    goal_boxes_top: list[Rect] = field(default_factory=list)
    goal_boxes_bottom: list[Rect] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("environment dimensions must be positive")
        eps = 1e-9
        for w in self.walls:
            for p in (w.a, w.b):
                if not (-eps <= p.x <= self.width + eps and -eps <= p.y <= self.height + eps):
                    raise ValueError(f"wall endpoint {p} outside bounds")
        for box in self.goal_boxes_top + self.goal_boxes_bottom:
            if box.x_min < -eps or box.y_min < -eps or box.x_max > self.width + eps or box.y_max > self.height + eps:
                raise ValueError(f"goal box {box} outside bounds")

    def bounds(self) -> Rect:
        return Rect(0.0, 0.0, self.width, self.height)

    def contains(self, p: Vec2) -> bool:
        return 0.0 <= p.x <= self.width and 0.0 <= p.y <= self.height

    def center(self) -> Vec2:
        return Vec2(0.5 * self.width, 0.5 * self.height)


def nearest_wall_distance(env: Environment, points: np.ndarray) -> np.ndarray:
    """Distance from each row of an (n, 2) array of points to the nearest
    declared wall; inf when there are no walls."""
    if not env.walls:
        return np.full(len(points), math.inf)
    return np.minimum.reduce([distance_points_segment(points, w) for w in env.walls])


def nearest_wall_distance_segment(env: Environment, s: Segment) -> float:
    """Distance from a segment to the nearest declared wall; inf when no walls."""
    if not env.walls:
        return math.inf
    return min(distance_segment_segment(s, w) for w in env.walls)


def _goal_boxes(width: float, height: float, count: int = 5, depth: float = 0.5) -> tuple[list[Rect], list[Rect]]:
    step = width / count
    top = [Rect(i * step, height - depth, (i + 1) * step, height) for i in range(count)]
    bottom = [Rect(i * step, 0.0, (i + 1) * step, depth) for i in range(count)]
    return top, bottom


def open_rect(width: float, height: float) -> Environment:
    """Rectangle with no walls and goal boxes along its top and bottom edges."""
    top, bottom = _goal_boxes(width, height)
    return Environment(width=width, height=height, walls=[], goal_boxes_top=top, goal_boxes_bottom=bottom)


def open_square(size: float) -> Environment:
    """Square environment with no interior walls and goal boxes on both edges."""
    return open_rect(size, size)


def narrow_passage(width: float = 3.0, length: float = 20.0) -> Environment:
    """Corridor environment; the two long edges are walls, flow runs along y."""
    walls = [
        Segment(Vec2(0.0, 0.0), Vec2(0.0, length)),
        Segment(Vec2(width, 0.0), Vec2(width, length)),
    ]
    top, bottom = _goal_boxes(width, length)
    return Environment(width=width, height=length, walls=walls, goal_boxes_top=top, goal_boxes_bottom=bottom)
