"""The not-a-knot cubic spline that tabulates fiber data for cubic lifts,
against scipy's CubicSpline as a test-only oracle, and the runtime's
independence from scipy."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

import algpaths
from algpaths.numkernel import not_a_knot_table

EPS = np.finfo(float).eps
# Agreement with CubicSpline, fixed before any comparison was run: 4 ulps
# of the largest sample. Both solve the same equations; on 4 or more knots
# the two differ only where scipy's banded solver pivots, on 3 knots its
# dense 3x3 solve takes another elimination order. Grids whose spacings
# differ by more than a factor of 2 make the equations ill-conditioned
# enough for the two to part by more (up to 72 ulps at a factor of 10),
# with both as far from the exact spline of the data as each other.
TOL_ULPS = 4


def stage_times(x, q):
    """q times in each interval [x[i], x[i+1]), at fractions j/q, and
    x[-1]."""
    dx = np.diff(x)
    body = x[:-1, None] + dx[:, None] * (np.arange(q) / q)
    return np.append(body.ravel(), x[-1])


@st.composite
def spline_data(draw):
    n = draw(st.integers(2, 300))
    k = draw(st.integers(1, 3))
    q = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        x = np.linspace(0.0, scale, n)
    else:
        # spacings within a factor of 2 of each other
        x = np.concatenate([[0.0], np.cumsum(rng.uniform(1.0, 2.0, n - 1))])
        x = x * (scale / x[-1])
    x = x + draw(st.sampled_from([0.0, -0.5, 3.0]))
    y = rng.normal(size=(n, k)) * draw(st.sampled_from([1e-6, 1.0, 1e6]))
    return x, y, q


@settings(max_examples=300, deadline=None)
@given(spline_data())
def test_matches_cubic_spline(data):
    x, y, q = data
    t = stage_times(x, q)
    got = not_a_knot_table(x, y, t)
    want = CubicSpline(x, y, axis=0)(t)
    assert got.shape == want.shape == (len(t), y.shape[1])
    assert np.max(np.abs(got - want)) <= TOL_ULPS * EPS * np.max(np.abs(y))


def test_two_points_give_the_line():
    x = np.array([0.5, 2.5])
    y = np.array([[1.0, -3.0], [2.0, 5.0]])
    t = stage_times(x, 4)
    line = y[0] + (t[:, None] - x[0]) * (y[1] - y[0]) / (x[1] - x[0])
    got = not_a_knot_table(x, y, t)
    assert np.allclose(got, line, rtol=0, atol=4 * EPS * 5.0)
    assert np.array_equal(got, CubicSpline(x, y, axis=0)(t))


def test_three_points_give_the_parabola():
    x = np.array([0.0, 1.0, 3.0])
    y = np.array([[1.0], [0.0], [4.0]])
    t = stage_times(x, 3)
    parabola = np.polyval(np.polyfit(x, y[:, 0], 2), t)
    got = not_a_knot_table(x, y, t)
    assert np.allclose(got[:, 0], parabola, rtol=0, atol=64 * EPS * 4.0)
    want = CubicSpline(x, y, axis=0)(t)
    assert np.max(np.abs(got - want)) <= TOL_ULPS * EPS * 4.0


def test_four_points_give_the_interpolating_cubic():
    # not-a-knot at both inner knots: one cubic through all four points
    x = np.array([0.0, 0.5, 2.0, 2.25])
    cubic = np.array([0.7, -1.5, 0.25, 2.0])
    y = np.polyval(cubic, x)[:, None]
    t = stage_times(x, 5)
    got = not_a_knot_table(x, y, t)
    assert np.allclose(got[:, 0], np.polyval(cubic, t), rtol=0,
                       atol=64 * EPS * np.max(np.abs(y)))
    want = CubicSpline(x, y, axis=0)(t)
    assert np.max(np.abs(got - want)) <= TOL_ULPS * EPS * np.max(np.abs(y))


@pytest.mark.parametrize("n", [4, 7, 40])
def test_reproduces_a_cubic_on_any_grid(n):
    rng = np.random.default_rng(n)
    x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 2.0, n - 1))])
    cubic = np.array([0.3, -1.0, 2.0, -0.5])
    y = np.stack([np.polyval(cubic, x), np.polyval(-cubic, x)], axis=1)
    t = stage_times(x, 2)
    got = not_a_knot_table(x, y, t)
    exact = np.polyval(cubic, t)
    scale = np.max(np.abs(y))
    assert np.allclose(got[:, 0], exact, rtol=0, atol=1e-12 * scale)
    assert np.allclose(got[:, 1], -exact, rtol=0, atol=1e-12 * scale)


def test_values_at_the_knots_are_the_samples():
    x = np.linspace(-1.0, 1.0, 11)
    y = np.stack([np.sin(3 * x), np.exp(x)], axis=1)
    got = not_a_knot_table(x, y, stage_times(x, 2))
    assert np.allclose(got[::2], y, rtol=0, atol=4 * EPS * np.e)


def test_one_knot_is_rejected():
    with pytest.raises(ValueError, match="at least 2 knots"):
        not_a_knot_table([0.0], [[1.0]], [0.0])


def test_cli_lifts_do_not_import_scipy(tmp_path):
    # a fresh interpreter: the library must not load scipy for a cubic
    # lift-path or a holonomy run
    script = textwrap.dedent("""
        import json, sys
        from pathlib import Path
        import algpaths.cli as cli
        d = Path(sys.argv[1])
        plane = {"base_dim": 2, "rank": 2,
                 "anchor": [["1", "0"], ["0", "1"]], "bracket": {}}
        (d / "ws.json").write_text(json.dumps({
            "algebroids": {"plane": plane},
            "comorphisms": {"id": {"source": "plane", "target": "plane",
                                   "phi": ["x1", "x2"],
                                   "M": [["1", "0"], ["0", "1"]]}}}))
        ws, path = str(d / "ws.json"), str(d / "path.csv")
        codes = [
            cli.run(["integrate-path", "--config", ws, "--section",
                     "0 - x2; x1", "--x0", "0.5,0", "--grid", "50",
                     "--out", path]),
            cli.run(["lift-path", "--config", ws, "--comorphism", "id",
                     "--path", path, "--x0", "0.5,0", "--interp", "cubic",
                     "--out", str(d / "lifted.csv")]),
            cli.run(["holonomy", "--nu0", "1/3", "--grid", "50"]),
        ]
        loaded = sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))
        print(json.dumps({"codes": codes, "scipy": loaded}))
    """)
    src = str(Path(algpaths.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "scipy": []}
