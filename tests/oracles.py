"""Scalar reference implementations that the tests compare vhsim against.

Each one recomputes a production result the slow, obvious way: per
candidate, per sample or per pedestrian in plain Python, or, for the disc
clip, by clipping a fine polygon.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from vhsim.geometry import Environment, Pose, Rect, Segment, Vec2, distance_point_segment
from vhsim.prediction import AvoidanceParams, PedestrianState, Phase
from vhsim.proxemics import ArrangementType, ProxemicsParams, SpatialContext, context_preference
from vhsim.simulation import step_pedestrian


def oracle_ingroup(candidate: Vec2, user: Pose, context: SpatialContext, prox: ProxemicsParams) -> float:
    """Independent in-group scoring: raw trigonometry plus the banded table."""
    dx, dy = candidate.x - user.position.x, candidate.y - user.position.y
    dist = math.hypot(dx, dy)
    if dist == 0.0 or not (prox.formation_min - 1e-9 <= dist <= prox.formation_max + 1e-9):
        return 0.0
    bearing = math.atan2(dy, dx)
    alpha = abs(math.degrees(math.atan2(math.sin(bearing - user.orientation),
                                        math.cos(bearing - user.orientation))))
    if alpha > 90.0:
        return 0.0
    feasible = [ArrangementType.L_SHAPED]
    if alpha <= 60.0:
        feasible.append(ArrangementType.CLOSED)
    if alpha + 90.0 >= 120.0:
        feasible.append(ArrangementType.OPEN)
    return max(context_preference(context, a) for a in feasible)


def oracle_utility(candidate, user, current_vh, context, trajectories, comfort, prox, coeffs):
    seg = Segment(user.position, candidate)
    d_best = math.inf
    for traj in trajectories:
        for _, p in traj.samples:
            d_best = min(d_best, distance_point_segment(p, seg))
    if math.isinf(d_best):
        out = 1.0
    elif d_best <= 0.0:
        out = 0.0
    else:
        out = max(0.0, min(1.0, comfort.scale_mm / (d_best * 1000.0) + comfort.offset))
    ins = oracle_ingroup(candidate, user, context, prox)
    move = candidate.distance_to(current_vh)
    return (ins + coeffs.outgroup_weight * out) / (1.0 + move * coeffs.move_cost)


def oracle_decision(candidates, user, current_vh, context, trajectories, comfort, prox, coeffs, params):
    """Index of the candidate `plan_if_needed` should pick, from its docstring.

    Candidates whose segment to the user clears the trigger radius are safe.
    When any is safe, only safe ones and, if its clearance keeps the rest
    margin above the territory, holding still remain. When none is (the
    agent is cornered), the pool is every candidate within 0.10 m of the best
    clearance, plus holding still unless the intrusion cuts deeper than the
    rest margin into the territory. The highest utility wins, then the
    smaller move, then the earlier index.
    """
    radius = params.territory_radius + params.planning_margin
    clearance = []
    for cand in candidates:
        seg = Segment(user.position, cand)
        clearance.append(min(
            (distance_point_segment(p, seg) for traj in trajectories for _, p in traj.samples),
            default=math.inf,
        ))
    hold = [cand.distance_to(current_vh) <= 1e-12 for cand in candidates]
    if any(d >= radius for d in clearance):
        keep = [d >= radius or (h and d >= params.territory_radius + params.rest_margin)
                for d, h in zip(clearance, hold)]
    else:
        best = max(clearance)
        keep = [d >= best - 0.10 or (h and d >= params.territory_radius - params.rest_margin)
                for d, h in zip(clearance, hold)]
    ranked = [
        (oracle_utility(cand, user, current_vh, context, trajectories, comfort, prox, coeffs),
         -cand.distance_to(current_vh), -i)
        for i, cand in enumerate(candidates) if keep[i]
    ]
    return -max(ranked)[2]


def polygon_disc_rect_area(center: Vec2, radius: float, rect: Rect, vertices: int) -> float:
    """Area of a disc clipped to a rectangle, from a Sutherland-Hodgman clip
    of the inscribed regular polygon with the given number of vertices."""
    poly = [
        (center.x + radius * math.cos(2.0 * math.pi * k / vertices),
         center.y + radius * math.sin(2.0 * math.pi * k / vertices))
        for k in range(vertices)
    ]
    # each edge keeps the points p with side * (p[axis] - bound) >= 0
    for axis, bound, side in ((0, rect.x_min, 1.0), (0, rect.x_max, -1.0),
                              (1, rect.y_min, 1.0), (1, rect.y_max, -1.0)):
        clipped = []
        for i, cur in enumerate(poly):
            nxt = poly[(i + 1) % len(poly)]
            ins_cur = side * (cur[axis] - bound) >= 0.0
            ins_nxt = side * (nxt[axis] - bound) >= 0.0
            if ins_cur:
                clipped.append(cur)
            if ins_cur != ins_nxt:
                t = (bound - cur[axis]) / (nxt[axis] - cur[axis])
                clipped.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
        poly = clipped
        if not poly:
            return 0.0
    twice = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]))
    return abs(twice) * 0.5


@dataclass
class OracleWalker:
    state: PedestrianState
    rng: np.random.Generator
    goal_side: int  # 0 = top boxes, 1 = bottom boxes


def oracle_crowd_tick(walkers: list[OracleWalker], user: Vec2, env: Environment, dt: float,
                      avoid: AvoidanceParams, goal_tolerance: float) -> None:
    """One tick of the crowd, pedestrian by pedestrian: the scalar dodge rule,
    then, within the goal tolerance, the other side's next goal from the
    pedestrian's own generator."""
    for w in walkers:
        s = step_pedestrian(w.state, user, dt, avoid)
        if s.position.distance_to(s.goal) <= goal_tolerance:
            w.goal_side = 1 - w.goal_side
            boxes = env.goal_boxes_top if w.goal_side == 0 else env.goal_boxes_bottom
            box = boxes[int(w.rng.integers(len(boxes)))]
            goal = Vec2(float(w.rng.uniform(box.x_min, box.x_max)), float(w.rng.uniform(box.y_min, box.y_max)))
            s = replace(s, goal=goal, phase=Phase.DIRECT, waypoint=None)
        w.state = s
