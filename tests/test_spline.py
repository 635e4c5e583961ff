"""The not-a-knot cubic spline that tabulates fiber data for cubic lifts:
against the exact spline in rational arithmetic, against scipy's
CubicSpline as a test-only oracle, against its former per-column sweep,
and the runtime's independence from scipy."""

import bisect
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import algpaths
from algpaths.numkernel import _slope_equations, not_a_knot_table

EPS = np.finfo(float).eps

# Agreement with CubicSpline, fixed before any comparison was run: 4 ulps
# of the largest sample. Both solve the same equations; on 4 or more knots
# the two differ only where scipy's banded solver pivots, on 3 knots its
# dense 3x3 solve takes another elimination order. Grids whose spacings
# differ by more than a factor of 2 make the equations ill-conditioned
# enough for the two to part by more (up to 72 ulps at a factor of 10),
# with both as far from the exact spline of the data as each other.
TOL_ULPS = 4
# Distance from the exact spline of the float samples at the float times,
# fixed before any comparison was run: 8 ulps of the largest sample. The
# sweep and the evaluation round a few times per value, each rounding
# within half an ulp of numbers no larger than a few samples on grids
# whose spacings are within a factor of 2; twice scipy's bound leaves room
# for the two solvers' own distance from the exact spline.
EXACT_ULPS = 8


def cubic_spline(x, y, t):
    """scipy's CubicSpline through (x[i], y[i]) at the times t, the
    test-only oracle: imported where it is called, so that the tests that
    compare with it skip where scipy is not installed, and no other."""
    scipy_interpolate = pytest.importorskip("scipy.interpolate")
    return scipy_interpolate.CubicSpline(x, y, axis=0)(t)


def stage_times(x, q):
    """q times in each interval [x[i], x[i+1]), at fractions j/q, and
    x[-1]."""
    dx = np.diff(x)
    body = x[:-1, None] + dx[:, None] * (np.arange(q) / q)
    return np.append(body.ravel(), x[-1])


@st.composite
def spline_data(draw, knots=st.integers(2, 300), columns=st.integers(1, 3),
                steps=st.integers(1, 4)):
    n, k, q = draw(knots), draw(columns), draw(steps)
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


def _exact_spline(x, y, t):
    """The not-a-knot cubic spline through the float samples (x[i], y[i])
    at the float times t, in exact rational arithmetic, one list of
    Fractions per column of y: on 2 knots the line, on 3 the parabola
    through them; on 4 or more the piecewise cubic in Hermite form whose
    knot slopes `_exact_slopes` gives."""
    x = [Fraction(v) for v in x.tolist()]
    t = [Fraction(v) for v in t.tolist()]
    n = len(x)
    d = [b - a for a, b in zip(x, x[1:])]
    out = []
    for col in np.asarray(y).T.tolist():
        v = [Fraction(c) for c in col]
        if n == 3:
            out.append([sum(v[i] * math.prod((u - x[j]) / (x[i] - x[j])
                                             for j in range(3) if j != i)
                            for i in range(3)) for u in t])
            continue
        m = [(b - a) / w for a, b, w in zip(v, v[1:], d)]
        s = [m[0], m[0]] if n == 2 else _exact_slopes(d, m)
        vals = []
        for u in t:
            i = min(max(bisect.bisect_right(x, u) - 1, 0), n - 2)
            w = (u - x[i]) / d[i]
            vals.append((2 * w**3 - 3 * w**2 + 1) * v[i]
                        + (w**3 - 2 * w**2 + w) * d[i] * s[i]
                        + (3 * w**2 - 2 * w**3) * v[i + 1]
                        + (w**3 - w**2) * d[i] * s[i + 1])
        out.append(vals)
    return out


def _exact_slopes(d, m):
    """The knot slopes of the not-a-knot spline on 4 or more knots, whose
    intervals have widths d and secant slopes m, solved exactly by Gauss-
    Jordan elimination in Fraction. On interval i the Hermite cubic with
    knot slopes s_i, s_{i+1} has the second derivative
    (6 m_i - 4 s_i - 2 s_{i+1}) / d_i at its left end and
    (2 s_i + 4 s_{i+1} - 6 m_i) / d_i at its right end, and the third
    derivative 6 (s_i + s_{i+1} - 2 m_i) / d_i^2. The equations: the
    second derivative is continuous at each inner knot, the third at the
    second and the last but one."""
    n = len(d) + 1
    rows = []

    def equation(coef, rhs):
        row = [Fraction(0)] * n + [rhs]
        for j, c in coef:
            row[j] += c
        rows.append(row)

    for a in (0, n - 3):              # the third derivative across x[a + 1]
        p, r = 1 / d[a] ** 2, 1 / d[a + 1] ** 2
        equation([(a, p), (a + 1, p - r), (a + 2, -r)],
                 2 * m[a] * p - 2 * m[a + 1] * r)
    for i in range(1, n - 1):         # the second derivative across x[i]
        p, r = 1 / d[i - 1], 1 / d[i]
        equation([(i - 1, 2 * p), (i, 4 * p + 4 * r), (i + 1, 2 * r)],
                 6 * m[i - 1] * p + 6 * m[i] * r)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spline_data(knots=st.integers(2, 8)))
def test_is_the_exact_spline(data):
    x, y, q = data
    t = stage_times(x, q)
    got = not_a_knot_table(x, y, t)
    bound = Fraction(EXACT_ULPS * EPS * np.max(np.abs(y)))
    for b, exact in enumerate(_exact_spline(x, y, t)):
        assert max(abs(Fraction(g) - e)
                   for g, e in zip(got[:, b].tolist(), exact)) <= bound


# On 3 knots scipy solves for the parabola by a dense 3x3 solve with
# pivoting, and the two may part by more than TOL_ULPS while each stays
# near the exact parabola (test_is_the_exact_spline): the claim of agreement
# with scipy is made on 4 or more knots only
@settings(max_examples=300, deadline=None, derandomize=True)
@given(spline_data(knots=st.integers(4, 300)))
def test_matches_cubic_spline(data):
    x, y, q = data
    t = stage_times(x, q)
    got = not_a_knot_table(x, y, t)
    want = cubic_spline(x, y, t)
    assert got.shape == want.shape == (len(t), y.shape[1])
    assert np.max(np.abs(got - want)) <= TOL_ULPS * EPS * np.max(np.abs(y))


def _per_column_table(x, y, t):
    """The former `not_a_knot_table`, kept as the reference of its sweep:
    the same equations (`_slope_equations`) and evaluation, with the
    forward and backward passes run column by column on plain floats."""
    x = np.asarray(x, dtype=float)
    yt = np.asarray(y, dtype=float).T
    n, q = len(x), (len(t) - 1) // (len(x) - 1)
    dx = np.diff(x)
    m = np.diff(yt) / dx
    lower, diag, upper, rhs = _slope_equations(x, m)
    p = diag[0].item()
    pivots = [p]
    for a, b, c in zip(lower[1:].tolist(), diag[1:].tolist(),
                       upper.tolist()):
        p = b - a / p * c
        pivots.append(p)
    facts = (lower[1:] / pivots[:-1]).tolist()
    up_rev, piv_rev = upper[-2::-1].tolist(), pivots[-2::-1]
    s = []
    for row in rhs.tolist():
        acc = row[0]
        fwd = [acc]
        for f, r in zip(facts, row[1:]):
            acc = r - f * acc
            fwd.append(acc)
        acc /= pivots[-1]
        back = [acc]
        for r, u, piv in zip(fwd[-2::-1], up_rev, piv_rev):
            acc = (r - u * acc) / piv
            back.append(acc)
        s.append(back[::-1])
    s = np.array(s)
    tt = (s[:, :-1] + s[:, 1:] - 2 * m) / dx
    coef = [tt / dx, (m - s[:, :-1]) / dx - tt, s[:, :-1], yt[:, :-1]]

    def at(u, c0, c1, c2, c3):
        u2 = u * u
        return ((c3 + c2 * u) + c1 * u2) + c0 * (u2 * u)

    t = np.asarray(t, dtype=float)
    body = at(t[:-1].reshape(n - 1, q).T - x[:-1],
              *(ci[:, None] for ci in coef))
    last = at(t[-1] - x[-2], *(ci[:, -1] for ci in coef))
    return np.concatenate([body.transpose(2, 1, 0).reshape(-1, len(s)),
                           last[None]])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spline_data(knots=st.sampled_from([2, 3, 4, 5, 17, 300]),
                   columns=st.sampled_from([1, 3, 101]),
                   steps=st.integers(1, 2)))
def test_the_sweep_of_all_columns_is_the_sweep_of_each(data):
    x, y, q = data
    t = stage_times(x, q)
    got = not_a_knot_table(x, y, t)
    assert got.tobytes() == _per_column_table(x, y, t).tobytes()


def test_two_points_give_the_line():
    x = np.array([0.5, 2.5])
    y = np.array([[1.0, -3.0], [2.0, 5.0]])
    t = stage_times(x, 4)
    line = y[0] + (t[:, None] - x[0]) * (y[1] - y[0]) / (x[1] - x[0])
    got = not_a_knot_table(x, y, t)
    assert np.allclose(got, line, rtol=0, atol=4 * EPS * 5.0)
    assert np.array_equal(got, cubic_spline(x, y, t))


def test_three_points_give_the_parabola():
    x = np.array([0.0, 1.0, 3.0])
    y = np.array([[1.0], [0.0], [4.0]])
    t = stage_times(x, 3)
    parabola = np.polyval(np.polyfit(x, y[:, 0], 2), t)
    got = not_a_knot_table(x, y, t)
    assert np.allclose(got[:, 0], parabola, rtol=0, atol=64 * EPS * 4.0)
    want = cubic_spline(x, y, t)
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
    want = cubic_spline(x, y, t)
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
