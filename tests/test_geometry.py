import numpy as np
import pytest

import hbsolve as hb
from hbsolve.geometry import MIN_PANEL_LENGTH, make_contour

ALL_KINDS = [
    hb.UnitCircle(),
    hb.SmoothStar(),
    hb.CornerStar(),
    hb.Snake(),
]


@pytest.mark.parametrize("contour", ALL_KINDS, ids=lambda c: c.kind)
def test_closure(contour):
    p0 = contour.position(np.array([0.0]))
    p1 = contour.position(np.array([contour.period - 1e-13]))
    assert np.linalg.norm(p1 - p0) < 1e-10


@pytest.mark.parametrize("contour", ALL_KINDS, ids=lambda c: c.kind)
def test_unit_normals(contour):
    t = np.linspace(0.05, contour.period - 0.05, 137)
    # keep clear of corners where the tangent jumps
    if contour.corner_locations.size:
        dist = np.min(np.abs(t[:, None] - contour.corner_locations[None, :]), axis=1)
        t = t[dist > 1e-3]
    n = contour.normal(t)
    assert np.max(np.abs(np.linalg.norm(n, axis=1) - 1.0)) < 1e-14


@pytest.mark.parametrize("contour", ALL_KINDS, ids=lambda c: c.kind)
def test_derivatives_match_central_differences(contour):
    h = 1e-5
    t = np.linspace(0.01, contour.period - 0.01, 401)
    if contour.cornered:  # keep every stencil inside one smooth piece
        ends = np.append(contour.corner_locations, contour.period)
        t = t[np.min(np.abs(t[:, None] - ends), axis=1) > 2 * h]
    fd = (contour.position(t + h) - contour.position(t - h)) / (2 * h)
    assert np.max(np.abs(fd - contour.derivative(t))) < 1e-8
    fdd = (contour.derivative(t + h) - contour.derivative(t - h)) / (2 * h)
    assert np.max(np.abs(fdd - contour.second_derivative(t))) < 1e-7


def test_circle_basics():
    c = hb.UnitCircle()
    t = np.array([0.0, np.pi / 2, np.pi])
    assert np.allclose(c.position(t), [[1, 0], [0, 1], [-1, 0]], atol=1e-15)
    assert np.allclose(c.normal(t), c.position(t), atol=1e-15)
    assert np.allclose(c.curvature(t), 1.0)
    assert np.isclose(c.period, 2 * np.pi)


def test_smooth_star_radius():
    c = hb.SmoothStar(arms=5, amplitude=0.3)
    t = np.linspace(0, 2 * np.pi, 50)
    r = np.linalg.norm(c.position(t), axis=1)
    assert np.allclose(r, 1 + 0.3 * np.cos(5 * t))


def test_corner_star_vertices():
    c = hb.CornerStar()
    j = np.arange(10)
    verts = c.position(j.astype(float))
    r = np.linalg.norm(verts, axis=1)
    assert np.allclose(r, np.where(j % 2 == 0, c.radii[0], c.radii[1]))
    # arcs bulge outward: midpoints lie farther out than the chord midpoint
    mids = c.position(j + 0.5)
    chords = 0.5 * (verts + verts[np.roll(j, -1)])
    assert np.all(np.linalg.norm(mids, axis=1) > np.linalg.norm(chords, axis=1))


def test_corner_star_has_tangent_jumps():
    c = hb.CornerStar()
    for j in range(c.segments):
        dm = c.derivative(np.array([(j - 1e-9) % c.period]))[0]
        dp = c.derivative(np.array([j + 1e-9]))[0]
        angle = np.arccos(np.clip(dm @ dp / (np.linalg.norm(dm) * np.linalg.norm(dp)), -1, 1))
        assert angle > 0.05


def test_snake_shape():
    c = hb.Snake(waves=2, amplitude=1.0, gap=0.2)
    # bottom wave sits gap/2 below the sine, top wave gap/2 above
    t = np.array([np.pi / 2])
    assert np.allclose(c.position(t), [[np.pi / 2, 1.0 - 0.1]])
    assert c.corner_locations.size == 4
    # vertical separation between the waves is the gap
    bottom = c.position(np.array([1.0]))[0]
    x = bottom[0]
    top_t = 2 * c.span + c.gap - x  # parameter of the top-wave point above x
    top = c.position(np.array([top_t]))[0]
    assert np.isclose(top[0], x)
    assert np.isclose(top[1] - bottom[1], c.gap)


def test_make_contour_dispatch_and_errors():
    assert isinstance(make_contour("unit_circle", radius=2.0), hb.UnitCircle)
    assert isinstance(make_contour("smooth-star"), hb.SmoothStar)
    with pytest.raises(ValueError):
        make_contour("klein_bottle")
    with pytest.raises(ValueError):
        make_contour("snake", waves=0)
    with pytest.raises(ValueError):
        make_contour("corner_star", radii=(1.0, -1.0))
    with pytest.raises(ValueError):
        make_contour("smooth_star", amplitude=1.5)
    with pytest.raises(ValueError, match="smooth_star.*'bogus'"):
        make_contour("smooth_star", arms=5, bogus=1)
    with pytest.raises(ValueError, match="unit_circle parameter 'radius'"):
        make_contour("unit_circle", radius="big")
    with pytest.raises(ValueError, match="corner_star parameter 'radii'"):
        make_contour("corner_star", radii=[0.9, None])
    # a count with a fractional part is refused, not truncated
    for kind, name, value in (("smooth_star", "arms", 5.9), ("corner_star", "segments", 2.5),
                              ("snake", "waves", 2.7)):
        with pytest.raises(ValueError, match=f"{name} must be a whole number, got {value}"):
            make_contour(kind, **{name: value})
    assert make_contour("smooth_star", arms=5.0).arms == 5
    assert make_contour("snake", waves=np.int64(3)).waves == 3
    assert make_contour("corner_star", segments=np.int32(8)).segments == 8


def test_decompose_circle_uniform():
    c = hb.UnitCircle()
    panels = hb.decompose(c, 16, 0)
    assert panels.count == 16
    assert np.allclose(panels.lengths(), 2 * np.pi / 16)
    assert np.isclose(panels.panels[0, 0], 0.0)
    assert np.isclose(panels.panels[-1, 1], 2 * np.pi)


def test_decompose_corner_star_grading():
    levels = 5
    for contour, base in ((hb.CornerStar(), 6), (hb.Snake(waves=2), 3)):
        panels = hb.decompose(contour, base, levels)
        sections = contour.sections(base)
        # each section's two end panels are replaced by levels + 1 graded ones
        assert panels.count == sum(count + 2 * levels for _, _, count in sections)
        assert np.array_equal(contour.corner_locations, [a for a, _, _ in sections])
        starts, lengths = panels.panels[:, 0], panels.lengths()
        for corner in contour.corner_locations:
            at = np.flatnonzero(starts == corner)  # exact endpoint, not approximate
            assert at.size == 1
            after = lengths[at[0] : at[0] + levels + 1]  # graded panels after the corner
            before = np.roll(lengths, -at[0])[-levels - 1 :]  # ... and before it
            for graded in (after[::-1], before):
                ratios = graded[1:] / graded[:-1]
                assert np.allclose(ratios[:-1], 0.5)  # lengths halve toward the corner
                assert np.isclose(graded[-1], graded[-2])  # innermost pair equal


def test_smooth_contours_have_no_corners():
    for c in (hb.UnitCircle(), hb.SmoothStar()):
        assert not c.cornered and c.corner_locations.shape == (0,)
        assert np.array_equal(hb.decompose(c, 12, 5).panels, hb.decompose(c, 12, 0).panels)


def test_decompose_snake_count():
    c = hb.Snake(waves=2)
    levels = 4
    panels = hb.decompose(c, 10, levels)
    # 10 panels/wavelength on two waves of 2 wavelengths, 4 per vertical,
    # and each of the 8 corner-adjacent panels gains `levels` extras
    assert panels.count == 2 * 10 * 2 + 2 * 4 + 8 * levels


def test_decompose_tiles_parameter_interval():
    for c in ALL_KINDS:
        panels = hb.decompose(c, 6, 3)
        assert np.isclose(panels.panels[0, 0], 0.0)
        assert np.isclose(panels.panels[-1, 1], c.period)
        assert np.allclose(panels.panels[1:, 0], panels.panels[:-1, 1])


def test_decompose_rejects_excessive_grading():
    c = hb.CornerStar()
    with pytest.raises(ValueError, match="shorter"):
        hb.decompose(c, 6, 60)
    assert MIN_PANEL_LENGTH == 1e-12


def test_geometry_spec_roundtrip(tmp_path):
    path = tmp_path / "spec.json"
    hb.save_geometry_spec(path, hb.Snake(waves=3, amplitude=0.8, gap=0.3), 12, 4)
    contour, per_unit, levels = hb.load_geometry_spec(path)
    assert isinstance(contour, hb.Snake)
    assert (contour.waves, contour.amplitude, contour.gap) == (3, 0.8, 0.3)
    assert (per_unit, levels) == (12, 4)


def test_geometry_spec_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "unit_circle"}')
    with pytest.raises(ValueError, match="missing field"):
        hb.load_geometry_spec(path)
