"""Parametric contours and panel decompositions.

Four contour families are provided: a circle, a smooth star, a star whose
boundary is a chain of circular arcs meeting at corners, and a "snake"
(two parallel sine waves closed off by short vertical segments).  Each
contour is a simple closed curve traversed counterclockwise, with a
parameter t in [0, T).  ``frame`` gives the position, outward unit
normal, speed and signed curvature at a vector of t from one evaluation.

A family implements two methods: ``_curve``, which returns the position
and both derivatives at once, and ``sections``, which splits [0, T) into
panelling sections.  A cornered contour has a corner at every section end,
so corners are always panel endpoints and quadrature nodes (which are
interior to panels) never hit a tangent discontinuity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

MIN_PANEL_LENGTH = 1e-12


def _whole(value, what):
    """value as an int; a fractional (or non-finite) value raises ValueError
    naming `what`, where int() would truncate it."""
    if not float(value).is_integer():
        raise ValueError(f"{what} must be a whole number, got {value}")
    return int(value)


class Contour:
    """Base class for closed parametric curves.

    Subclasses implement ``_curve(t)``, returning the position, the first
    and the second derivative as ``(..., 2)`` arrays, and ``sections``.  A
    ``cornered`` contour has a corner at every section end.
    """

    kind: str = "abstract"
    period: float = 0.0
    cornered: bool = False

    def _curve(self, t):
        raise NotImplementedError

    def frame(self, t):
        """(position, outward unit normal, speed, signed curvature) at t,
        from one evaluation of the curve.

        The normal is the tangent rotated by -90 degrees; the curvature is
        positive where the curve bends like a CCW circle.
        """
        p, d, dd = self._curve(np.asarray(t, float))
        s = np.hypot(d[..., 0], d[..., 1])
        normal = np.stack([d[..., 1] / s, -d[..., 0] / s], axis=-1)
        return p, normal, s, (d[..., 0] * dd[..., 1] - d[..., 1] * dd[..., 0]) / s**3

    def sections(self, base_panels_per_unit):
        """Panelling sections as (a, b, panel_count) triples covering [0, T).

        ``base_panels_per_unit`` is interpreted per family: total panels for
        the smooth closed curves, panels per arc segment for the corner
        star, panels per wavelength for the snake.
        """
        raise NotImplementedError

    def params(self) -> dict:
        raise NotImplementedError


class UnitCircle(Contour):
    kind = "unit_circle"

    def __init__(self, radius=1.0):
        if radius <= 0:
            raise ValueError(f"circle radius must be positive, got {radius}")
        self.radius = float(radius)
        self.period = 2 * np.pi

    def _curve(self, t):
        c, s, r = np.cos(t), np.sin(t), self.radius
        return (r * np.stack([c, s], axis=-1), r * np.stack([-s, c], axis=-1),
                r * np.stack([-c, -s], axis=-1))

    def sections(self, base):
        return [(0.0, self.period, int(base))]

    def params(self):
        return {"radius": self.radius}


class SmoothStar(Contour):
    """Star-shaped smooth curve r(t) = 1 + amplitude*cos(arms*t)."""

    kind = "smooth_star"

    def __init__(self, arms=5, amplitude=0.3):
        arms = _whole(arms, "smooth star arms")
        if arms < 1:
            raise ValueError(f"smooth star needs arms >= 1, got {arms}")
        if not 0 < amplitude < 1:
            raise ValueError(f"smooth star amplitude must lie in (0, 1), got {amplitude}")
        self.arms = arms
        self.amplitude = float(amplitude)
        self.period = 2 * np.pi

    def _curve(self, t):
        c, s, ca = np.cos(t), np.sin(t), np.cos(self.arms * t)
        r = 1.0 + self.amplitude * ca
        dr = -self.amplitude * self.arms * np.sin(self.arms * t)
        ddr = -self.amplitude * self.arms**2 * ca
        return (
            np.stack([r * c, r * s], axis=-1),
            np.stack([dr * c - r * s, dr * s + r * c], axis=-1),
            np.stack([ddr * c - 2 * dr * s - r * c, ddr * s + 2 * dr * c - r * s], axis=-1),
        )

    def sections(self, base):
        return [(0.0, self.period, int(base))]

    def params(self):
        return {"arms": self.arms, "amplitude": self.amplitude}


class CornerStar(Contour):
    """Closed chain of circular arcs through vertices of alternating radius.

    Vertices sit at equispaced angles, alternating between the two radii;
    each pair of consecutive vertices is joined by a circular arc that
    bulges away from the origin.  The tangent is discontinuous at every
    vertex.  The parameter runs over [0, segments), one unit per arc.
    """

    kind = "corner_star"
    cornered = True

    def __init__(self, segments=10, radii=(0.9, 1.1), arc_radius_scale=2.0):
        segments = _whole(segments, "corner star segments")
        if segments < 4 or segments % 2 != 0:
            raise ValueError(f"corner star needs an even segment count >= 4, got {segments}")
        radii = tuple(float(r) for r in radii)
        if len(radii) != 2 or min(radii) <= 0:
            raise ValueError(f"corner star needs two positive radii, got {radii}")
        if arc_radius_scale < 0.6:
            raise ValueError("arc_radius_scale below 0.6 cannot span the chord")
        self.segments = segments
        self.radii = radii
        self.arc_radius_scale = float(arc_radius_scale)
        self.period = float(segments)

        theta = 2 * np.pi * np.arange(segments) / segments
        rad = np.where(np.arange(segments) % 2 == 0, radii[0], radii[1])
        verts = np.stack([rad * np.cos(theta), rad * np.sin(theta)], axis=-1)

        self._centers = np.zeros((segments, 2))
        self._rho = np.zeros(segments)
        self._phi0 = np.zeros(segments)
        self._dphi = np.zeros(segments)
        for j in range(segments):
            p0, p1 = verts[j], verts[(j + 1) % segments]
            chord = np.linalg.norm(p1 - p0)
            rho = self.arc_radius_scale * chord
            mid = 0.5 * (p0 + p1)
            perp = np.array([-(p1 - p0)[1], (p1 - p0)[0]]) / chord
            h = np.sqrt(rho**2 - 0.25 * chord**2)
            # pick the center closer to the origin so the arc bulges outward
            c_a, c_b = mid + h * perp, mid - h * perp
            center = c_a if np.linalg.norm(c_a) < np.linalg.norm(c_b) else c_b
            phi0 = np.arctan2(*(p0 - center)[::-1])
            phi1 = np.arctan2(*(p1 - center)[::-1])
            dphi = (phi1 - phi0 + np.pi) % (2 * np.pi) - np.pi
            if dphi <= 0:
                raise ValueError("corner star arcs must advance counterclockwise")
            self._centers[j] = center
            self._rho[j] = rho
            self._phi0[j] = phi0
            self._dphi[j] = dphi

    def _curve(self, t):
        j = np.clip(np.floor(t).astype(int), 0, self.segments - 1)
        phi = self._phi0[j] + (t - j) * self._dphi[j]
        c, s, rho, dphi = np.cos(phi), np.sin(phi), self._rho[j], self._dphi[j]
        w1, w2 = rho * dphi, rho * dphi**2
        return (self._centers[j] + rho[..., None] * np.stack([c, s], axis=-1),
                np.stack([-w1 * s, w1 * c], axis=-1), np.stack([-w2 * c, -w2 * s], axis=-1))

    def sections(self, base):
        return [(float(j), float(j + 1), int(base)) for j in range(self.segments)]

    def params(self):
        return {"segments": self.segments, "radii": list(self.radii),
                "arc_radius_scale": self.arc_radius_scale}


class Snake(Contour):
    """Thin channel between two sine waves, closed by vertical end segments.

    The bottom wave runs left to right, the top wave right to left, with a
    vertical gap between them; the four junctions are corners.  The
    parameter is x-distance along the waves and y-distance along the
    vertical segments.
    """

    kind = "snake"
    cornered = True

    def __init__(self, waves=2, amplitude=1.0, gap=0.2):
        waves = _whole(waves, "snake waves")
        if waves < 1:
            raise ValueError(f"snake needs waves >= 1, got {waves}")
        if amplitude <= 0 or gap <= 0:
            raise ValueError("snake amplitude and gap must be positive")
        self.waves = waves
        self.amplitude = float(amplitude)
        self.gap = float(gap)
        self.span = 2 * np.pi * waves
        self.period = 2 * self.span + 2 * self.gap
        self._breaks = np.array(
            [0.0, self.span, self.span + self.gap, 2 * self.span + self.gap, self.period]
        )

    def _curve(self, t):
        piece = np.clip(np.searchsorted(self._breaks, t, side="right") - 1, 0, 3)
        h, a, sp, g = self.gap / 2, self.amplitude, self.span, self.gap
        x, y, dx, dy, ddy = (np.zeros_like(t) for _ in range(5))
        m = piece == 0  # bottom wave, left to right
        x[m] = t[m]
        sin = np.sin(t[m])
        y[m], dx[m], dy[m], ddy[m] = a * sin - h, 1.0, a * np.cos(t[m]), -a * sin
        m = piece == 1  # right vertical, upward
        x[m], y[m], dy[m] = sp, -h + (t[m] - sp), 1.0
        m = piece == 2  # top wave, right to left
        x[m] = sp - (t[m] - sp - g)
        sin = np.sin(x[m])
        y[m], dx[m], dy[m], ddy[m] = a * sin + h, -1.0, -a * np.cos(x[m]), -a * sin
        m = piece == 3  # left vertical, downward
        y[m], dy[m] = h - (t[m] - 2 * sp - g), -1.0
        return (np.stack([x, y], axis=-1), np.stack([dx, dy], axis=-1),
                np.stack([np.zeros_like(t), ddy], axis=-1))

    def sections(self, base):
        # waves get `base` panels per wavelength; verticals get 4 panels each
        b, n_wave = self._breaks, int(base) * self.waves
        return [(b[0], b[1], n_wave), (b[1], b[2], 4), (b[2], b[3], n_wave), (b[3], b[4], 4)]

    def params(self):
        return {"waves": self.waves, "amplitude": self.amplitude, "gap": self.gap}


_KINDS = {
    "unit_circle": UnitCircle,
    "smooth_star": SmoothStar,
    "corner_star": CornerStar,
    "snake": Snake,
}


def make_contour(kind, **params) -> Contour:
    """Construct a contour by kind name; raises ValueError on bad input."""
    key = str(kind).lower().replace("-", "_")
    if key not in _KINDS:
        raise ValueError(f"unknown contour kind {kind!r}; choose from {sorted(_KINDS)}")
    for name, value in params.items():
        try:
            numeric = np.asarray(value).dtype.kind in "iuf" and np.all(np.isfinite(value))
        except ValueError:  # a ragged list
            numeric = False
        if not numeric:
            raise ValueError(f"{key} parameter {name!r} must be finite numbers, got {value!r}")
    try:
        return _KINDS[key](**params)
    except TypeError as exc:  # an unknown parameter name, or a scalar for a list
        raise ValueError(f"bad {key} parameters: {exc}") from None


@dataclass(frozen=True)
class PanelDecomposition:
    """Ordered parameter intervals tiling [0, T), with corner grading."""

    panels: np.ndarray  # (m, 2) interval endpoints
    refinement_levels: int

    @property
    def count(self):
        return self.panels.shape[0]

    def lengths(self):
        return self.panels[:, 1] - self.panels[:, 0]


def _grade_toward(a, b, levels, corner_at_start):
    """Split [a, b] into levels+1 panels whose lengths halve toward the corner."""
    h = b - a
    offsets = h / 2.0 ** np.arange(levels, -1, -1.0)  # h/2^levels ... h/2, h
    if corner_at_start:
        cuts = np.concatenate([[a], a + offsets])
    else:
        cuts = np.concatenate([(b - offsets)[::-1], [b]])
    return np.stack([cuts[:-1], cuts[1:]], axis=-1)


def decompose(contour: Contour, base_panels_per_unit: int, corner_refine_levels: int) -> PanelDecomposition:
    """Panel the contour, dyadically refining toward every corner.

    On a cornered contour, the first and the last panel of every section
    (each next to a corner) is replaced by ``corner_refine_levels + 1``
    panels whose lengths halve toward the corner (adjacent length ratio
    1/2, innermost pair equal).  Smooth contours are panelled near-uniformly.
    """
    if base_panels_per_unit < 1 or corner_refine_levels < 0:
        raise ValueError("panel and refinement counts must be >= 1 and >= 0")
    lv = corner_refine_levels if contour.cornered else 0
    pieces = []
    for a, b, count in contour.sections(base_panels_per_unit):
        cuts = np.linspace(a, b, count + 1)
        base = np.stack([cuts[:-1], cuts[1:]], axis=-1)
        if lv == 0:
            pieces.append(base)
            continue
        pieces.append(_grade_toward(*base[0], lv, corner_at_start=True))
        if count > 1:
            pieces += [base[1:-1], _grade_toward(*base[-1], lv, corner_at_start=False)]
    panels = np.concatenate(pieces, axis=0)
    if np.min(panels[:, 1] - panels[:, 0]) < MIN_PANEL_LENGTH:
        raise ValueError(
            f"grading produced a panel shorter than {MIN_PANEL_LENGTH:g} in parameter; "
            "reduce corner_refine_levels"
        )
    return PanelDecomposition(panels=panels, refinement_levels=corner_refine_levels)


def save_geometry_spec(path, contour: Contour, panels_per_unit: int, corner_levels: int):
    spec = {
        "kind": contour.kind,
        "params": contour.params(),
        "panels_per_unit": int(panels_per_unit),
        "corner_levels": int(corner_levels),
    }
    with open(path, "w") as f:
        json.dump(spec, f, indent=2)


def load_geometry_spec(path):
    """Read a geometry spec JSON file -> (contour, panels_per_unit, corner_levels)."""
    with open(path) as f:
        spec = json.load(f)
    for key in ("kind", "params", "panels_per_unit", "corner_levels"):
        if key not in spec:
            raise ValueError(f"geometry spec missing field {key!r}")
    if not isinstance(spec["params"], dict):
        raise ValueError(f"{spec['kind']} params must be a JSON object, got {spec['params']!r}")
    contour = make_contour(spec["kind"], **spec["params"])
    counts = []
    for key in ("panels_per_unit", "corner_levels"):
        value = spec[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"geometry spec {key} must be a whole number, got {value!r}")
        counts.append(_whole(value, f"geometry spec {key}"))
    return (contour, *counts)
