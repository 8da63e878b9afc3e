"""Span recording, self-time arithmetic and wrapper hygiene."""

import asyncio
import inspect

import pytest

import layers
import worker
from common import load_spec, metric_table
from workloads import WORKLOADS


def _span(sid, start, end, parent=None, is_async=False):
    return (sid, 0, start, end, parent, sid if parent is None else 1, is_async)


def test_self_time_subtracts_the_union_of_synchronous_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 3.0, parent=1),
        _span(3, 2.0, 4.0, parent=1),   # overlaps its sibling: union 1..4
        _span(4, 6.0, 7.0, parent=1),
        _span(5, 1.5, 2.5, parent=2),
    ]
    own = layers.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(2.0)
    assert own[5] == pytest.approx(1.0)


def test_async_spans_are_waits_and_do_not_shrink_their_parent():
    spans = [
        _span(1, 0.0, 10.0, is_async=True),
        _span(2, 0.0, 8.0, is_async=True),          # overlaps span 1
        _span(3, 1.0, 2.0, parent=1),                # work inside the wait
        _span(4, 3.0, 9.0, parent=2, is_async=True),  # async inside async
        _span(5, 4.0, 5.0, parent=2),
        _span(6, 0.5, 6.0),
        _span(7, 1.0, 2.0, parent=6, is_async=True),  # async child of sync
    ]
    own = layers.self_times(spans)
    assert set(own) == {3, 5, 6}
    assert own[3] == pytest.approx(1.0)
    assert own[5] == pytest.approx(1.0)
    assert own[6] == pytest.approx(5.5)


def test_layer_self_times_and_unattributed_sum_to_the_wall():
    tracer = layers.Tracer()
    noc = next(i for i, t in enumerate(tracer.targets) if t.layer == "noc")
    core = next(i for i, t in enumerate(tracer.targets) if t.layer == "core")
    tracer.spans[:] = [
        (1, noc, 0.0, 4.0, None, 1, False),
        (2, core, 1.0, 2.0, 1, 1, False),
        (3, core, 5.0, 6.0, None, 3, False),
    ]
    metrics = layers.layer_metrics(tracer, wall_s=8.0, untraced_wall_s=4.0)
    assert metrics["noc.self_s"] == pytest.approx(3.0)
    assert metrics["core.build_self_s"] + metrics["core.timing_self_s"] + metrics[
        "core.execute_self_s"] + metrics["core.validate_self_s"] == pytest.approx(2.0)
    assert metrics["unattributed.self_s"] == pytest.approx(3.0)
    assert metrics["trace.overhead_frac"] == pytest.approx(1.0)


def test_metric_names_match_benchmark_json():
    spec = load_spec()
    per_layer = layers.layer_metrics(layers.Tracer(), 1.0, 1.0)
    assert set(per_layer) == set(metric_table(spec, "per_layer"))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


# -- context propagation, with this module's own functions as targets ------

def leaf():
    return layers._CURRENT.get()


async def request(delay):
    await asyncio.sleep(delay)
    return leaf()


class Scheduler:
    def start(self):
        return asyncio.get_running_loop().create_task(self.loop())

    async def loop(self):
        return leaf()


def test_parent_and_request_ids_follow_asyncio_tasks():
    module = __name__
    targets = (
        layers.Target("a", f"{module}:leaf"),
        layers.Target("b", f"{module}:request"),
        layers.Target("c", f"{module}:Scheduler.start", detached=True),
    )
    tracer = layers.Tracer(targets)

    async def main():
        first = asyncio.ensure_future(request(0.002))
        second = asyncio.ensure_future(request(0.001))
        scheduled = await Scheduler().start()
        return await first, await second, scheduled

    with layers.installed(tracer):
        first, second, scheduled = asyncio.run(main())
    requests = [s for s in tracer.spans if s[1] == 1]
    leaves = [s for s in tracer.spans if s[1] == 0]
    assert len(requests) == 2 and len(leaves) == 3
    by_id = {s[0]: s for s in tracer.spans}
    for span in leaves:
        parent = span[4]
        if parent is None:   # the scheduler's leaf: no parent, no request
            assert span[5] is None
        else:
            assert by_id[parent][1] == 1 and span[5] == by_id[parent][5]
    assert {first[1], second[1]} == {s[5] for s in requests}
    assert scheduled is not None and scheduled[1] is None


def test_traced_run_restores_every_binding_and_keeps_outputs(tmp_path):
    before = [
        entry for target in layers.TARGETS for entry in layers.bindings(target.path)
    ]
    originals = {id(original) for _, _, original in before}
    for name, cls in WORKLOADS.items():
        workload = cls(5, True, tmp_path)
        _, plain = worker.run_rounds(workload, count=1)
        with layers.installed(layers.Tracer()):
            _, traced = worker.run_rounds(workload, count=1)
        assert traced == plain, name
        result = worker.trace(workload, None)
        assert result["failed"] == 0 and result["digest"] == plain[0], name
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, (owner, attr)
    for module in layers._scanned_modules():
        for attr, value in vars(module).items():
            if inspect.isfunction(value):
                wrapped = getattr(value, "__wrapped__", None)
                assert id(wrapped) not in originals, (module.__name__, attr)
