import numpy as np

from pencurve.curve import Polyline
from pencurve.measure import DiscreteMeasure, synth_measure
from pencurve.svgplot import render_svg


def test_svg_bytes_do_not_depend_on_a_power_of_two_scale():
    # the padding is relative to the span, so a scene scaled by 2^k renders
    # the same bytes: no absolute floor squeezes a tiny scene into a corner
    mu = synth_measure("noisy_circle", 60, seed=3)
    theta = np.linspace(0.0, 1.5 * np.pi, 9)
    arc = 0.5 + 0.35 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    base = render_svg(mu, Polyline(arc))
    for s in (2.0 ** -40, 2.0 ** 40, 2.0 ** -200):
        scaled = DiscreteMeasure(mu.positions * s, mu.masses)
        assert render_svg(scaled, Polyline(arc * s)) == base


def test_svg_of_a_single_atom_has_a_unit_span():
    svg = render_svg(DiscreteMeasure([[2.0, 3.0]], [1.0]))
    assert 'viewBox="0 0 640.000000 640.000000"' in svg
    assert '<circle cx="320.000000" cy="320.000000"' in svg
