"""Reference oracle for :meth:`OptimalPiecewiseLinear.add_point`.

This is the helper-based routine ``repro.learned.plm`` shipped before
``add_point`` was inlined for speed: every slope comparison goes through
``_slope_lt`` / ``_slope_gt`` (sign-generic), every difference through
``_sub``.  It shares the fitter's state layout, ``segment()`` and
``start_new_segment()``, so ``tests/test_plm.py`` can run both on one
stream and require identical accept/reject decisions and identical
models.
"""

from typing import Iterable, List, Tuple

from repro.learned import OptimalPiecewiseLinear
from repro.learned.model import Model

Point = Tuple[int, int]


def _sub(a: Point, b: Point) -> Point:
    """Vector a - b (a slope as a (dx, dy) pair)."""
    return (a[0] - b[0], a[1] - b[1])


def _slope_lt(a: Point, b: Point) -> bool:
    """True if slope ``a.dy/a.dx`` < slope ``b.dy/b.dx`` (exact)."""
    lhs = a[1] * b[0]
    rhs = b[1] * a[0]
    if (a[0] > 0) == (b[0] > 0):
        return lhs < rhs
    return lhs > rhs


def _slope_gt(a: Point, b: Point) -> bool:
    """True if slope ``a.dy/a.dx`` > slope ``b.dy/b.dx`` (exact)."""
    lhs = a[1] * b[0]
    rhs = b[1] * a[0]
    if (a[0] > 0) == (b[0] > 0):
        return lhs > rhs
    return lhs < rhs


def _cross(origin: Point, a: Point, b: Point) -> int:
    """Z component of ``(a - origin) x (b - origin)`` (exact)."""
    return (a[0] - origin[0]) * (b[1] - origin[1]) - (a[1] - origin[1]) * (b[0] - origin[0])


class ReferencePiecewiseLinear(OptimalPiecewiseLinear):
    """The fitter with the pre-inlining ``add_point``."""

    def add_point(self, x: int, y: int) -> bool:
        """Try to extend the current segment with ``(x, y)``.

        Returns ``True`` if the point fits within the ε band, ``False`` if
        it starts a new segment (in which case the fitter state is
        untouched and still describes the finished segment).
        """
        if self.points_in_hull > 0 and x <= self.last_x:  # type: ignore[operator]
            raise ValueError("keys must be strictly increasing within a run")
        p_up: Point = (x, y + self.epsilon)
        p_down: Point = (x, y - self.epsilon)

        if self.points_in_hull == 0:
            self.first_x = x
            self.last_x = x
            self._rect[0] = p_up
            self._rect[1] = p_down
            self._upper = [p_up]
            self._lower = [p_down]
            self._upper_start = 0
            self._lower_start = 0
            self.points_in_hull = 1
            return True

        if self.points_in_hull == 1:
            self.last_x = x
            self._rect[2] = p_down
            self._rect[3] = p_up
            self._upper.append(p_up)
            self._lower.append(p_down)
            self.points_in_hull = 2
            return True

        slope_min = _sub(self._rect[2], self._rect[0])  # type: ignore[arg-type]
        slope_max = _sub(self._rect[3], self._rect[1])  # type: ignore[arg-type]
        outside_min = _slope_lt(_sub(p_up, self._rect[2]), slope_min)  # type: ignore[arg-type]
        outside_max = _slope_gt(_sub(p_down, self._rect[3]), slope_max)  # type: ignore[arg-type]
        if outside_min or outside_max:
            return False

        self.last_x = x
        if _slope_lt(_sub(p_up, self._rect[1]), slope_max):  # type: ignore[arg-type]
            # The upper constraint tightens the max slope: walk the lower
            # hull for the supporting point, then add p_up to the upper hull.
            min_i = self._lower_start
            min_slope = _sub(self._lower[min_i], p_up)
            i = min_i + 1
            while i < len(self._lower):
                candidate = _sub(self._lower[i], p_up)
                if _slope_gt(candidate, min_slope):
                    break
                min_slope = candidate
                min_i = i
                i += 1
            self._rect[1] = self._lower[min_i]
            self._rect[3] = p_up
            self._lower_start = min_i
            end = len(self._upper)
            while end >= self._upper_start + 2 and _cross(
                self._upper[end - 2], self._upper[end - 1], p_up
            ) <= 0:
                end -= 1
            del self._upper[end:]
            self._upper.append(p_up)

        if _slope_gt(_sub(p_down, self._rect[0]), slope_min):  # type: ignore[arg-type]
            # The lower constraint tightens the min slope, symmetrically.
            max_i = self._upper_start
            max_slope = _sub(self._upper[max_i], p_down)
            i = max_i + 1
            while i < len(self._upper):
                candidate = _sub(self._upper[i], p_down)
                if _slope_lt(candidate, max_slope):
                    break
                max_slope = candidate
                max_i = i
                i += 1
            self._rect[0] = self._upper[max_i]
            self._rect[2] = p_down
            self._upper_start = max_i
            end = len(self._lower)
            while end >= self._lower_start + 2 and _cross(
                self._lower[end - 2], self._lower[end - 1], p_down
            ) >= 0:
                end -= 1
            del self._lower[end:]
            self._lower.append(p_down)

        self.points_in_hull += 1
        return True


def reference_fit(
    points: Iterable[Point], epsilon: int, fitter_cls=ReferencePiecewiseLinear
) -> Tuple[List[bool], List[Model]]:
    """Algorithm 2 over ``points`` with ``fitter_cls``: the accept/reject
    decision per point and the emitted models (mirrors ``build_models``)."""
    fitter = fitter_cls(epsilon)
    accepted: List[bool] = []
    models: List[Model] = []
    kmin = pmax = None
    for key, position in points:
        fits = fitter.add_point(key, position)
        accepted.append(fits)
        if not fits:
            sl, ic = fitter.segment()
            models.append(Model(sl=sl, ic=ic, kmin=kmin, pmax=pmax))
            fitter.start_new_segment(key, position)
        if kmin is None or not fits:
            kmin = key
        pmax = position
    if fitter.points_in_hull > 0:
        sl, ic = fitter.segment()
        models.append(Model(sl=sl, ic=ic, kmin=kmin, pmax=pmax))
    return accepted, models
