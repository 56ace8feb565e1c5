"""The closed-form delay fit against ``np.polyfit``.

``repro.prediction.delay.fit_polynomials`` solves each window's
least-squares normal equations on centred, scaled rates by elementwise
elimination, so its coefficients are not bit-identical to
``np.polyfit``'s (an SVD in LAPACK).  This test pins how close they
are: on every window below, each predicted delay the batched model
answers is within ``RTOL`` of the one ``np.polyfit`` gives under the
same degree rule, mean, fallback and clamp, relative to the larger of
that prediction and the window's mean delay (so a fit clamped at zero
is compared on the window's own scale).

Windows: recorded from a ``SystemExperiment`` run, one and two
distinct rates, rates 1e-7 apart, rates at the 100 Mbps trace clamp,
full and wrapped rings, and fits that go negative.  A line through
rates 1e-7 apart near 1 or 30 Mbps is so ill conditioned that
``np.polyfit`` itself is off in the eighth (near 1) or fifth (near 30)
digit; there the fit is checked against the exact rational
least-squares line instead.
"""

from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np
import pytest

from repro.core.allocation import DensityValueGreedyAllocator
from repro.prediction.delay import BatchDelayPredictor, fit_polynomials
from repro.system.experiment import SystemExperiment, setup1_config
from repro.units import TRACE_MAX_MBPS

#: Relative tolerance on predicted delays against ``np.polyfit``.
RTOL = 1e-11
#: Relative tolerance against the exact line where ``np.polyfit`` is
#: itself too ill conditioned to be the reference.
RTOL_EXACT = 1e-8

DEGREE = 2
MIN_SAMPLES = 8
WINDOW = 120
SIZES = np.array([0.0, 1e-7, 5.0, 12.5, 30.0, 60.0, 99.9, 100.0, 150.0, 200.0])

Sample = Tuple[float, float]


def _polyfit_delays(samples: Sequence[Sample], sizes: np.ndarray) -> np.ndarray:
    """What the model answered when it refit with ``np.polyfit``."""
    if not samples:
        return np.full(sizes.shape, 0.5)
    rates = np.array([s[0] for s in samples])
    delays = np.array([s[1] for s in samples])
    degree = 0
    if len(samples) >= MIN_SAMPLES:
        distinct = len(set(np.round(rates, 6).tolist()))
        degree = min(DEGREE, distinct - 1)
    if degree == 0:
        coeffs = np.array([delays.mean()])
    else:
        coeffs = np.polyfit(rates, delays, degree)
    return np.maximum(np.polyval(coeffs, sizes), 0.0)


def _assert_close(windows: List[List[Sample]]) -> None:
    batch = BatchDelayPredictor(len(windows), degree=DEGREE, window=WINDOW)
    for n, samples in enumerate(windows):
        batch.restore_user(n, samples)
    got = batch.delays(np.tile(SIZES, (len(windows), 1)))
    for n, samples in enumerate(windows):
        want = _polyfit_delays(samples[-WINDOW:], SIZES)
        scale = np.maximum(np.abs(want), np.mean([s[1] for s in samples] or [0.5]))
        error = np.abs(got[n] - want) / scale
        assert error.max() <= RTOL, (n, error.max())


def _delays(rates: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A convex delay curve with noise, as in Fig. 1b."""
    return 0.0004 * rates**2 + 0.01 * rates + rng.uniform(0.0, 0.2, rates.size)


def _window(rates: np.ndarray, delays: np.ndarray) -> List[Sample]:
    return list(zip(rates.tolist(), delays.tolist()))


def test_windows_recorded_from_a_run():
    experiment = SystemExperiment(setup1_config(duration_slots=200, seed=0))
    windows: List[List[Sample]] = []
    build = experiment.edge_server

    def edge_server(allocator, data_plane):
        server = build(allocator, data_plane)
        allocate = server.scheduler.allocate

        def recording(problem):
            if problem.t % 10 == 0:
                model = server._delay_model
                windows.extend(
                    [tuple(s) for s in model.export_user(n)]
                    for n in range(model.num_users)
                )
            return allocate(problem)

        server.scheduler.allocate = recording
        return server

    experiment.edge_server = edge_server
    experiment.run_repeat(DensityValueGreedyAllocator())
    # Past warm-up most windows are fitted polynomials, some of degree 2.
    fitted = [w for w in windows if len(set(r for r, _ in w)) > 2]
    assert len(windows) > 100 and len(fitted) > 50
    _assert_close(windows)


@pytest.mark.parametrize("seed", range(3))
def test_one_and_two_distinct_rates(seed):
    rng = np.random.default_rng(seed)
    windows = []
    for distinct in (1, 2):
        for count in (3, 8, 40, WINDOW):
            rates = rng.choice(rng.uniform(5.0, 100.0, distinct), count)
            windows.append(_window(rates, _delays(rates, rng)))
    _assert_close(windows)


@pytest.mark.parametrize("base", [0.0, 1e-7, 4e-7, 1.0])
def test_rates_1e7_apart(base):
    rng = np.random.default_rng(int(base * 1e7) % 97)
    windows = []
    for _ in range(12):
        rates = base + rng.integers(0, 3, size=int(rng.integers(8, 61))) * 1e-7
        windows.append(_window(rates, rng.uniform(0.1, 2.0, rates.size)))
    _assert_close(windows)


def test_rates_at_the_trace_clamp():
    rng = np.random.default_rng(17)
    windows = []
    for count in (8, 30, WINDOW, 300):
        rates = np.minimum(rng.uniform(80.0, 110.0, count), TRACE_MAX_MBPS)
        windows.append(_window(rates, _delays(rates, rng)))
        # Mostly at the clamp, with a few rates just under it.
        rates = np.where(rng.random(count) < 0.9, TRACE_MAX_MBPS, 99.9)
        windows.append(_window(rates, _delays(rates, rng)))
    _assert_close(windows)


@pytest.mark.parametrize("seed", range(3))
def test_full_and_wrapped_windows(seed):
    rng = np.random.default_rng(50 + seed)
    batch = BatchDelayPredictor(3, degree=DEGREE, window=WINDOW)
    streams = [
        rng.uniform(5.0, 100.0, count) for count in (WINDOW, WINDOW + 1, 451)
    ]
    longest = max(s.size for s in streams)
    for step in range(longest):
        users = [n for n, s in enumerate(streams) if step < s.size]
        rates = [float(streams[n][step]) for n in users]
        batch.observe(users, rates, _delays(np.array(rates), rng).tolist())
    windows = [[tuple(s) for s in batch.export_user(n)] for n in range(3)]
    assert [len(w) for w in windows] == [WINDOW] * 3
    _assert_close(windows)


def test_negative_fits():
    rng = np.random.default_rng(23)
    windows = []
    for count in (8, 60, WINDOW):
        rates = rng.uniform(5.0, 60.0, count)
        delays = np.maximum(1.2 - 0.02 * rates + rng.normal(0, 0.01, count), 0.0)
        windows.append(_window(rates, delays))
    _assert_close(windows)
    batch = BatchDelayPredictor(len(windows))
    for n, samples in enumerate(windows):
        batch.restore_user(n, samples)
    # The fits cross zero inside the size range and are clamped.
    assert (batch.delays(np.tile(SIZES, (len(windows), 1)))[:, -1] == 0.0).all()


def _exact_line(rates: Sequence[float], delays: Sequence[float]):
    """The least-squares line in exact rational arithmetic."""
    xs = [Fraction(r) for r in rates]
    ys = [Fraction(d) for d in delays]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    slope = (n * sum(x * y for x, y in zip(xs, ys)) - sx * sy) / (
        n * sum(x * x for x in xs) - sx * sx
    )
    return slope, (sy - slope * sx) / n


@pytest.mark.parametrize("base", [1.0000004, 30.0000004])
def test_ill_conditioned_line_against_exact_arithmetic(base):
    rng = np.random.default_rng(29)
    lines = 0
    for _ in range(20):
        rates = base + rng.integers(0, 3, size=int(rng.integers(8, 61))) * 1e-7
        if len(set(np.round(rates, 6).tolist())) != 2:
            continue
        lines += 1
        delays = _delays(rates, rng)
        coeffs = fit_polynomials(rates[None], delays[None], np.array([rates.size]), 1)
        slope, intercept = _exact_line(rates.tolist(), delays.tolist())
        for size in (0.0, 30.0, 100.0):
            exact = slope * Fraction(size) + intercept
            got = Fraction(float(np.polyval(coeffs[0], size)))
            assert abs((got - exact) / exact) <= RTOL_EXACT
    assert lines > 5
