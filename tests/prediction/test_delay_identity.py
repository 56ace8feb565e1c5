"""Bit-identity of the batched delay model against the scalar oracle.

``BatchDelayPredictor`` keeps every seat's (rate, delay) window in two
ring arrays and prices an ``(N, L)`` menu with one Horner sweep.  Each
row must equal, with ``==``, what the scalar predictor kept verbatim in
``tests/prediction/_reference_delay.py`` answers at the same sizes after
the same samples — through empty, short, degenerate, full and wrapped
windows, resets, an export/restore hand-off, a zero size and a fit
that goes negative and is clamped.
"""

from typing import List, Sequence, Tuple

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.prediction.delay import BatchDelayPredictor, PolynomialDelayPredictor
from tests.prediction._reference_delay import ReferencePolynomialDelayPredictor

WINDOW = 120
LEVELS = 6
KINDS = ("empty", "few", "equal", "two", "full", "wrapped", "negative")

Sample = Tuple[float, float]


def _stream(kind: str, rng: np.random.Generator) -> List[Sample]:
    """One seat's sample stream of the given shape."""
    if kind == "empty":
        return []
    if kind == "few":
        count = int(rng.integers(1, 8))
    elif kind == "full":
        count = WINDOW
    elif kind == "wrapped":
        count = int(rng.integers(WINDOW + 1, 401))
    else:
        count = int(rng.integers(10, 61))
    if kind == "equal":
        rates = np.full(count, float(rng.uniform(5.0, 60.0)))
    elif kind == "two":
        rates = rng.choice(rng.uniform(5.0, 60.0, size=2), size=count)
    else:
        rates = rng.uniform(5.0, 60.0, size=count)
    if kind == "negative":
        # Delay falls with rate, so the fit is negative at large sizes.
        delays = np.maximum(1.2 - 0.02 * rates + rng.normal(0, 0.01, count), 0.0)
    else:
        delays = 0.0004 * rates**2 + 0.01 * rates + rng.uniform(0, 0.2, count)
    return list(zip(rates.tolist(), delays.tolist()))


def _sizes(rng: np.random.Generator, num_users: int) -> np.ndarray:
    """An ``(N, L)`` menu with a 0.0 size and sizes past the samples."""
    sizes = np.sort(rng.uniform(0.0, 200.0, size=(num_users, LEVELS)), axis=1)
    sizes[:, 0] = 0.0
    return sizes


def _assert_rows_equal(
    batch: BatchDelayPredictor,
    oracles: Sequence[ReferencePolynomialDelayPredictor],
    sizes: np.ndarray,
) -> np.ndarray:
    got = batch.delays(sizes)
    assert got.shape == sizes.shape
    for n, oracle in enumerate(oracles):
        want = [oracle.predict(s) for s in sizes[n].tolist()]
        assert got[n].tolist() == want, f"seat {n}"
    return got


def _feed(batch, oracles, streams, cursors, rng, slots):
    """Run ``slots`` slots in which a random subset of seats observes."""
    for _ in range(slots):
        users, rates, delays = [], [], []
        for n, stream in enumerate(streams):
            if cursors[n] < len(stream) and rng.random() < 0.8:
                rate, delay = stream[cursors[n]]
                cursors[n] += 1
                users.append(n)
                rates.append(rate)
                delays.append(delay)
                oracles[n].observe(rate, delay)
        batch.observe(users, rates, delays)
        _assert_rows_equal(batch, oracles, _sizes(rng, len(streams)))


class TestBatchMatchesScalar:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_window_shape(self, seed):
        rng = np.random.default_rng(seed)
        streams = [_stream(kind, rng) for kind in KINDS]
        batch = BatchDelayPredictor(len(streams), window=WINDOW)
        oracles = [ReferencePolynomialDelayPredictor() for _ in streams]
        cursors = [0] * len(streams)
        longest = max(len(stream) for stream in streams)
        _feed(batch, oracles, streams, cursors, rng, slots=longest * 3 // 2 + 16)
        assert cursors == [len(stream) for stream in streams]
        counts = batch.num_samples.tolist()
        assert counts == [min(len(s), WINDOW) for s in streams]
        for n, oracle in enumerate(oracles):
            assert batch.export_user(n) == [list(s) for s in oracle.export_state()]

    def test_negative_fit_is_clamped(self):
        rng = np.random.default_rng(11)
        streams = [_stream("negative", rng) for _ in range(3)]
        batch = BatchDelayPredictor(3)
        oracles = [ReferencePolynomialDelayPredictor() for _ in streams]
        for n, stream in enumerate(streams):
            for rate, delay in stream:
                batch.observe([n], [rate], [delay])
                oracles[n].observe(rate, delay)
        sizes = np.tile([0.0, 10.0, 60.0, 120.0, 160.0, 200.0], (3, 1))
        got = _assert_rows_equal(batch, oracles, sizes)
        # The fits go negative at the large sizes and are clamped.
        assert (got[:, -1] == 0.0).all()
        assert (got[:, 0] > 0.0).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_reset_mid_stream(self, seed):
        rng = np.random.default_rng(100 + seed)
        streams = [_stream(kind, rng) for kind in KINDS]
        batch = BatchDelayPredictor(len(streams))
        oracles = [ReferencePolynomialDelayPredictor() for _ in streams]
        cursors = [0] * len(streams)
        _feed(batch, oracles, streams, cursors, rng, slots=70)
        for n in (1, 3, 5):
            batch.reset_user(n)
            oracles[n].reset()
        assert batch.export_user(3) == []
        _assert_rows_equal(batch, oracles, _sizes(rng, len(streams)))
        _feed(batch, oracles, streams, cursors, rng, slots=200)

    @pytest.mark.parametrize("kind", KINDS)
    def test_export_then_restore(self, kind):
        rng = np.random.default_rng(KINDS.index(kind))
        stream = _stream(kind, rng)
        half = len(stream) * 2 // 3
        source = BatchDelayPredictor(2)
        oracle = ReferencePolynomialDelayPredictor()
        for rate, delay in stream[:half]:
            source.observe([1], [rate], [delay])
            oracle.observe(rate, delay)
        exported = source.export_user(1)
        assert exported == [list(s) for s in oracle.export_state()]
        # Restore into another seat of a batch that already has history.
        target = BatchDelayPredictor(3)
        for rate, delay in _stream("wrapped", rng):
            target.observe([0, 2], [rate, rate], [delay, delay])
        target.restore_user(2, exported)
        restored = ReferencePolynomialDelayPredictor()
        restored.restore_state([tuple(s) for s in exported])
        assert target.export_user(2) == exported
        for rate, delay in stream[half:] + [(30.0, 0.2)]:
            sizes = _sizes(rng, 3)
            got = target.delays(sizes)[2].tolist()
            assert got == [restored.predict(s) for s in sizes[2].tolist()]
            target.observe([2], [rate], [delay])
            restored.observe(rate, delay)

    def test_sweep_is_python_float_horner_to_the_sign_of_zero(self):
        # Rows no fit is likely to produce: a -0.0 result at size 0.0
        # (kept, as Python's max keeps it) and all -0.0 coefficients
        # (a sweep started at 0.0 gives +0.0).
        rows = [
            [0.0, -1.0, -0.0],
            [-0.0, -0.0, -0.0],
            [-0.0, 2.0, -3.0],
            [1e-3, -0.2, 0.1],
        ]
        batch = BatchDelayPredictor(len(rows))
        batch._coeffs[:] = rows
        sizes = np.tile([0.0, 1.0, 2.5, 10.0, 150.0, 200.0], (len(rows), 1))
        got = batch.delays(sizes)
        for n, row in enumerate(rows):
            for k, rate in enumerate(sizes[n].tolist()):
                value = 0.0
                for coeff in row:
                    value = value * rate + coeff
                want = max(value, 0.0)
                assert (got[n, k], np.copysign(1.0, got[n, k])) == (
                    want, np.copysign(1.0, want)
                ), (n, rate)

    def test_one_seat_view_is_the_oracle(self):
        rng = np.random.default_rng(5)
        view, oracle = PolynomialDelayPredictor(), ReferencePolynomialDelayPredictor()
        for rate, delay in _stream("wrapped", rng):
            view.observe(rate, delay)
            oracle.observe(rate, delay)
            query = float(rng.uniform(0.0, 200.0))
            assert view.predict(query) == oracle.predict(query)
        assert view.num_samples == oracle.num_samples == WINDOW
        assert view.export_state() == oracle.export_state()


class TestBatchRefuses:
    def test_bad_sample_changes_no_seat(self):
        batch = BatchDelayPredictor(2)
        batch.observe([0, 1], [10.0, 20.0], [0.1, 0.2])
        for rates, delays in (([10.0, np.nan], [0.1, 0.2]), ([10.0, 20.0], [0.1, -0.2])):
            with pytest.raises(ConfigurationError):
                batch.observe([0, 1], rates, delays)
        with pytest.raises(ConfigurationError):
            batch.observe([1, 1], [10.0, 20.0], [0.1, 0.2])
        with pytest.raises(ConfigurationError):
            batch.restore_user(0, [[10.0, 0.1], [1.0]])
        assert batch.num_samples.tolist() == [1, 1]
        assert batch.export_user(0) == [[10.0, 0.1]]

    def test_sizes_must_match_seats_and_be_finite(self):
        batch = BatchDelayPredictor(2)
        with pytest.raises(ConfigurationError):
            batch.delays([[1.0, 2.0]])
        with pytest.raises(ConfigurationError):
            batch.delays([[1.0, -2.0], [1.0, 2.0]])
        with pytest.raises(ConfigurationError):
            batch.delays([[1.0, np.inf], [1.0, 2.0]])
