"""Streaming optimal piecewise-linear fitting (Algorithm 2).

This is O'Rourke's online algorithm for fitting straight lines between
data ranges [40], as used by the PGM-index [20]: every key ``K`` with
position ``p`` contributes two constraint points ``(K, p + eps)`` and
``(K, p - eps)``; a line is feasible while it passes below the upper
constraints and above the lower ones.  The feasible set is tracked with a
pair of convex hulls and the four extreme "parallelogram" corners the
paper's Figure 5 shows.  Amortized O(1) work per point.

All geometry uses exact Python big-integer arithmetic (compound keys are
hundreds of bits wide — float cross products would be meaningless).  Only
the final slope/intercept of an emitted segment are rounded to doubles,
and they are anchored at the segment's first key so the rounding error at
query time is far below one position.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.learned.model import Model

Point = Tuple[int, int]


class OptimalPiecewiseLinear:
    """Incrementally fits one ε-bounded segment over strictly increasing keys.

    ``add_point`` returns ``False`` when the new point cannot join the
    current segment (the enclosing parallelogram would exceed height 2ε,
    Figure 5(b)); the caller then emits the segment via :meth:`segment`
    and starts a new one.
    """

    def __init__(self, epsilon: int) -> None:
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        self.epsilon = epsilon
        self._reset()

    def _reset(self) -> None:
        self.points_in_hull = 0
        self.first_x: Optional[int] = None
        self.last_x: Optional[int] = None
        self._upper: List[Point] = []
        self._lower: List[Point] = []
        self._upper_start = 0
        self._lower_start = 0
        self._rect: List[Optional[Point]] = [None, None, None, None]

    # -- incremental fitting ---------------------------------------------------

    def add_point(self, x: int, y: int) -> bool:
        """Try to extend the current segment with ``(x, y)``.

        Returns ``True`` if the point fits within the ε band, ``False`` if
        it starts a new segment (in which case the fitter state is
        untouched and still describes the finished segment).

        One routine, no helper calls: this runs once per entry of every
        run build.  Slopes are ``(dx, dy)`` pairs compared by cross
        multiplication, ``a < b  <=>  a.dy * b.dx < b.dy * a.dx``, which
        needs ``a.dx`` and ``b.dx`` to have the same sign — keys strictly
        increase, so every vector towards the new point has ``dx > 0``
        and every vector from it back to a hull point has ``dx <= 0``.
        """
        count = self.points_in_hull
        if count > 0 and x <= self.last_x:  # type: ignore[operator]
            raise ValueError("keys must be strictly increasing within a run")
        up_y = y + self.epsilon
        down_y = y - self.epsilon

        if count < 2:
            if count == 0:
                self.first_x = x
                self._rect[0] = (x, up_y)
                self._rect[1] = (x, down_y)
                self._upper = [(x, up_y)]
                self._lower = [(x, down_y)]
                self._upper_start = 0
                self._lower_start = 0
            else:
                self._rect[2] = (x, down_y)
                self._rect[3] = (x, up_y)
                self._upper.append((x, up_y))
                self._lower.append((x, down_y))
            self.last_x = x
            self.points_in_hull = count + 1
            return True

        (r0x, r0y), (r1x, r1y), (r2x, r2y), (r3x, r3y) = self._rect  # type: ignore[misc]
        min_dx = r2x - r0x  # the min-slope diagonal r0 -> r2
        min_dy = r2y - r0y
        max_dx = r3x - r1x  # the max-slope diagonal r1 -> r3
        max_dy = r3y - r1y
        if (up_y - r2y) * min_dx < min_dy * (x - r2x) or (
            (down_y - r3y) * max_dx > max_dy * (x - r3x)
        ):
            return False  # outside the parallelogram: height would exceed 2ε

        self.last_x = x
        if (up_y - r1y) * max_dx < max_dy * (x - r1x):
            # The upper constraint tightens the max slope: walk the lower
            # hull for the supporting point, then add p_up to the upper hull.
            lower = self._lower
            min_i = self._lower_start
            px, py = lower[min_i]
            best_dx = px - x
            best_dy = py - up_y
            for i in range(min_i + 1, len(lower)):
                px, py = lower[i]
                dx = px - x
                dy = py - up_y
                if dy * best_dx > best_dy * dx:
                    break
                best_dx = dx
                best_dy = dy
                min_i = i
            self._rect[1] = lower[min_i]
            self._rect[3] = (x, up_y)
            self._lower_start = min_i
            upper = self._upper
            end = len(upper)
            floor = self._upper_start + 2
            while end >= floor:
                ox, oy = upper[end - 2]
                ax, ay = upper[end - 1]
                if (ax - ox) * (up_y - oy) - (ay - oy) * (x - ox) > 0:
                    break
                end -= 1
            del upper[end:]
            upper.append((x, up_y))

        if (down_y - r0y) * min_dx > min_dy * (x - r0x):
            # The lower constraint tightens the min slope, symmetrically.
            upper = self._upper
            max_i = self._upper_start
            px, py = upper[max_i]
            best_dx = px - x
            best_dy = py - down_y
            for i in range(max_i + 1, len(upper)):
                px, py = upper[i]
                dx = px - x
                dy = py - down_y
                if dy * best_dx < best_dy * dx:
                    break
                best_dx = dx
                best_dy = dy
                max_i = i
            self._rect[0] = upper[max_i]
            self._rect[2] = (x, down_y)
            self._upper_start = max_i
            lower = self._lower
            end = len(lower)
            floor = self._lower_start + 2
            while end >= floor:
                ox, oy = lower[end - 2]
                ax, ay = lower[end - 1]
                if (ax - ox) * (down_y - oy) - (ay - oy) * (x - ox) < 0:
                    break
                end -= 1
            del lower[end:]
            lower.append((x, down_y))

        self.points_in_hull = count + 1
        return True

    # -- segment emission --------------------------------------------------------

    def segment(self) -> Tuple[float, float]:
        """Slope and intercept of the central feasible line, anchored at
        the segment's first key (the paper's "central line of the
        parallelogram", Figure 5).
        """
        if self.points_in_hull == 0:
            raise ValueError("no points in the current segment")
        assert self.first_x is not None
        if self.points_in_hull == 1:
            # A single point: both corners share its x; predict its y exactly.
            return 0.0, float((self._rect[0][1] + self._rect[1][1]) / 2)  # type: ignore[index]

        r0, r1, r2, r3 = self._rect  # type: ignore[misc]
        assert r0 and r1 and r2 and r3
        slope_min = Fraction(r2[1] - r0[1], r2[0] - r0[0])
        slope_max = Fraction(r3[1] - r1[1], r3[0] - r1[0])
        slope = (slope_min + slope_max) / 2

        intersection = _intersect(r0, r2, r1, r3)
        if intersection is None:
            # Parallel diagonals: the feasible slope collapsed to a single
            # value, and the feasible lines are the band between the two
            # (possibly coincident) diagonal lines.  Anchor midway between
            # them evaluated at the first key — the corners may have
            # migrated to arbitrary x, so averaging their raw y values
            # (as this fallback once did) mixes heights of different keys
            # and can emit a line violating the ε bound.
            i_x = Fraction(self.first_x)
            y_on_min = r0[1] + (i_x - r0[0]) * slope_min
            y_on_max = r1[1] + (i_x - r1[0]) * slope_max
            i_y = (y_on_min + y_on_max) / 2
        else:
            i_x, i_y = intersection
        intercept = i_y - (i_x - self.first_x) * slope
        return float(slope), float(intercept)

    def start_new_segment(self, x: int, y: int) -> None:
        """Reset and seed the next segment with the point that overflowed."""
        self._reset()
        self.add_point(x, y)


def _intersect(
    a1: Point, a2: Point, b1: Point, b2: Point
) -> Optional[Tuple[Fraction, Fraction]]:
    """Intersection of lines ``a1-a2`` and ``b1-b2`` (None if parallel)."""
    da_x, da_y = a2[0] - a1[0], a2[1] - a1[1]
    db_x, db_y = b2[0] - b1[0], b2[1] - b1[1]
    denominator = da_x * db_y - da_y * db_x
    if denominator == 0:
        return None
    t = Fraction((b1[0] - a1[0]) * db_y - (b1[1] - a1[1]) * db_x, denominator)
    return Fraction(a1[0]) + t * da_x, Fraction(a1[1]) + t * da_y


def build_models(
    stream: Iterable[Tuple[int, int]], epsilon: int
) -> Iterator[Model]:
    """Algorithm 2: learn ε-bounded models from a (key, position) stream.

    Yields each :class:`Model` as soon as it is finalized, so callers can
    write it straight to the index file while the merge is still running.
    """
    fitter = OptimalPiecewiseLinear(epsilon)
    kmin: Optional[int] = None
    pmax = 0
    for key, position in stream:
        if fitter.add_point(key, position):
            if kmin is None:
                kmin = key
            pmax = position
            continue
        sl, ic = fitter.segment()
        assert kmin is not None
        yield Model(sl=sl, ic=ic, kmin=kmin, pmax=pmax)
        fitter.start_new_segment(key, position)
        kmin = key
        pmax = position
    if fitter.points_in_hull > 0:
        sl, ic = fitter.segment()
        assert kmin is not None
        yield Model(sl=sl, ic=ic, kmin=kmin, pmax=pmax)
