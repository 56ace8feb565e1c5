"""The scalar walker equals the array reference walker, pose for pose.

The reference is run live rather than pinned as digests: both walkers
go through BLAS ``ddot`` and numpy's SIMD ``exp``/``arctan2``, whose
last bits may differ between CPUs, so only a same-machine comparison
is meaningful.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.content.tiles import GridWorld
from repro.traces.motion import MotionConfig, MotionTraceGenerator
from tests.traces._reference_walker import reference_generate

SEEDS = range(50)
LENGTHS = (1, 132, 1201)
CONFIGS = {"walking": MotionConfig.walking(), "seated": MotionConfig.seated()}
WORLDS = {
    "8m-5cm": GridWorld(0.0, 8.0, 0.0, 8.0, cell_size=0.05),
    "20m-1m": GridWorld(0.0, 20.0, 0.0, 20.0, cell_size=1.0),
}


@lru_cache(maxsize=None)
def _reference(world_name, config_name, seed):
    world, config = WORLDS[world_name], CONFIGS[config_name]
    slot_s = MotionTraceGenerator(world, config).slot_s
    return reference_generate(
        world, config, slot_s, max(LENGTHS), np.random.default_rng(seed)
    )


@pytest.mark.parametrize("world_name", sorted(WORLDS))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
class TestWalkerMatchesReference:
    def test_generate(self, world_name, config_name):
        world, config = WORLDS[world_name], CONFIGS[config_name]
        generator = MotionTraceGenerator(world, config)
        for seed in SEEDS:
            expected = _reference(world_name, config_name, seed)
            for n in LENGTHS:
                got = generator.generate(n, np.random.default_rng(seed))
                assert got == expected[:n], (seed, n)

    def test_tape(self, world_name, config_name):
        world, config = WORLDS[world_name], CONFIGS[config_name]
        generator = MotionTraceGenerator(world, config)
        for seed in SEEDS:
            expected = _reference(world_name, config_name, seed)
            for n in LENGTHS:
                tape = generator.tape(n, np.random.default_rng(seed))
                assert len(tape) == n
                assert [tape[i] for i in range(n)] == expected[:n], (seed, n)

    def test_rng_left_where_reference_leaves_it(self, world_name, config_name):
        # Callers that draw more after generate() see the same stream.
        world, config = WORLDS[world_name], CONFIGS[config_name]
        generator = MotionTraceGenerator(world, config)
        for seed in SEEDS[:10]:
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            generator.generate(132, ours)
            reference_generate(world, config, generator.slot_s, 132, theirs)
            assert ours.random() == theirs.random()


class TestPoseTape:
    @pytest.fixture
    def generator(self):
        return MotionTraceGenerator(WORLDS["8m-5cm"])

    def test_out_of_order_access(self, generator):
        expected = generator.generate(132, np.random.default_rng(3))
        tape = generator.tape(132, np.random.default_rng(3))
        assert tape[100] == expected[100]
        assert tape[3] == expected[3]
        assert tape[131] == expected[131]
        assert tape[0] == expected[0]
        assert list(tape) == expected

    def test_len_is_fixed_before_any_step(self, generator):
        tape = generator.tape(57, np.random.default_rng(0))
        assert len(tape) == 57
        tape[10]
        assert len(tape) == 57

    def test_index_bounds(self, generator):
        tape = generator.tape(20, np.random.default_rng(0))
        with pytest.raises(IndexError):
            tape[20]
        with pytest.raises(IndexError):
            tape[-1]
        with pytest.raises(IndexError):
            tape[-20]
        assert tape[19] == generator.generate(20, np.random.default_rng(0))[19]

    def test_slices(self, generator):
        expected = generator.generate(40, np.random.default_rng(5))
        tape = generator.tape(40, np.random.default_rng(5))
        assert tape[10:20] == expected[10:20]
        assert tape[::7] == expected[::7]
        assert tape[-3:] == expected[-3:]
