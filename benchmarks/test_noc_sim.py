"""Micro-benchmark: event-driven cycle loop vs the cycle-by-cycle oracle.

Times ``NocSimulator.run`` and the test oracle (``tests/noc_oracle.py``,
which steps every link every cycle) on the saturating high-load point of
the load-latency sweep (the regime the event-driven loop targets: heavy
crossbar/bus contention, most ring links idle) and reports the
wall-clock speedup. The two runs must also agree on every semantic
statistic — the speedup is only worth reporting if they are equivalent.
"""

from __future__ import annotations

import time

from repro.experiments.noc_load_latency import (
    INJECTION_RATES,
    build_point_workload,
)
from repro.noc import NocSimulator
from tests.noc_oracle import simulate as oracle


def high_load_workload():
    """The saturating benchmark point: max sweep rate, larger fabric.

    Contention concentrates on the crossbars and the shared bus while
    most ring links idle, so most requests wait on a busy wire or a
    full buffer: the regime where arbitrating only the links that can
    move pays off over the oracle's every-link-every-cycle scan.
    """
    return build_point_workload(
        rate=INJECTION_RATES[-1],
        banks=4,
        chips=4,
        ranks=2,
        messages_per_dpu=8,
        flits_per_message=4,
        seed=5,
    )


def _time_loop(runner) -> tuple[float, object]:
    start = time.perf_counter()
    stats = runner()
    return time.perf_counter() - start, stats


def test_event_loop_speedup():
    network, messages = high_load_workload()
    naive_s, naive_stats = _time_loop(lambda: oracle(network, messages))
    event_s, event_stats = _time_loop(NocSimulator(network, messages).run)

    assert event_stats.cycles == naive_stats.cycles
    assert event_stats.flits_delivered == naive_stats.flits_delivered
    assert event_stats.per_message_latency == naive_stats.per_message_latency
    assert event_stats.arbitration_conflicts == (
        naive_stats.arbitration_conflicts
    )

    speedup = naive_s / event_s
    print(
        "NoC cycle loop, high-load point "
        f"({len(messages)} messages, {naive_stats.cycles} cycles):\n"
        f"  cycle-by-cycle oracle: {naive_s * 1e3:8.1f} ms "
        f"({naive_stats.events_processed} cycles stepped)\n"
        f"  event-driven loop    : {event_s * 1e3:8.1f} ms "
        f"({event_stats.events_processed} events, "
        f"{event_stats.idle_cycles_skipped} idle cycles skipped)\n"
        f"  speedup              : {speedup:8.2f}x"
    )
    # The floor is set below the measured ratio to tolerate noisy shared
    # CI runners without letting a real regression through.
    assert speedup >= 5.0
