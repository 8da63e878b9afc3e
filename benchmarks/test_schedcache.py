"""Schedule-compilation cache: warm replay vs cold recompilation.

Times one AllReduce payload sweep two ways — cold recompiles the
schedule for every payload, warm replays the same sweep from one cached
timing profile — and enforces the hit-path speedup floor the cache
exists to provide, plus the bit-exactness that makes the replay safe to
substitute.
"""

from __future__ import annotations

import statistics
import time

from repro.collectives.patterns import Collective
from repro.config.network import PimnetNetworkConfig
from repro.core.schedule import Shape, build_schedule, schedule_timing
from repro.schedcache import ScheduleCache

#: One structure, several payloads: exactly the shape of a figure sweep,
#: where the cold path recompiles the schedule per payload and the warm
#: path replays one cached timing profile.
COLLECTIVE = Collective.ALL_REDUCE
SHAPE = Shape(banks=8, chips=4, ranks=2)
PAYLOADS = (8192, 16384, 32768, 65536)

#: The cache must beat recompilation by at least this factor on the hit
#: path (measured ~100x; 2x keeps the gate robust on loaded CI boxes).
MIN_SPEEDUP = 2.0

#: Timed sweeps per path (after one untimed warmup); the median is used.
REPEATS = 5


def _median_sweep_s(sweep) -> float:
    sweep()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        sweep()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def test_warm_replay_beats_cold_compilation():
    network = PimnetNetworkConfig()
    cache = ScheduleCache()
    cache.profile(COLLECTIVE, SHAPE, network)

    def cold() -> None:
        for num_elements in PAYLOADS:
            schedule = build_schedule(COLLECTIVE, SHAPE, num_elements)
            schedule_timing(schedule, network)

    def warm() -> None:
        for num_elements in PAYLOADS:
            cache.timing(COLLECTIVE, SHAPE, num_elements, network)

    cold_s = _median_sweep_s(cold)
    warm_s = _median_sweep_s(warm)
    speedup = cold_s / warm_s
    print(
        f"schedcache: cold p50 {cold_s * 1e3:.2f} ms, "
        f"warm p50 {warm_s * 1e3:.2f} ms, {speedup:.0f}x speedup"
    )
    assert speedup >= MIN_SPEEDUP


def test_warm_replay_is_bit_exact():
    network = PimnetNetworkConfig()
    cache = ScheduleCache()
    cache.profile(COLLECTIVE, SHAPE, network)
    for num_elements in PAYLOADS:
        fresh = schedule_timing(
            build_schedule(COLLECTIVE, SHAPE, num_elements), network
        )
        assert cache.timing(COLLECTIVE, SHAPE, num_elements, network) == fresh
    assert cache.counters.timing_replays == len(PAYLOADS)
    print(
        f"schedcache: {len(PAYLOADS)} payload replays "
        "bit-identical to fresh compilation"
    )
