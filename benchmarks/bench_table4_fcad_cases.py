"""Benchmark: regenerate Table IV (all five F-CAD cases, paper-size DSE).

The five cases run as one batch sweep with a shared evaluation cache;
per-case results are identical to isolated runs.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.devices.fpga import get_device
from repro.experiments.table4 import run_table4

from conftest import emit

RUN = partial(
    run_table4,
    iterations=20,
    population=200,
    seed=0,
)


def test_table4_fcad_cases(benchmark):
    result = benchmark.pedantic(RUN, rounds=1, iterations=1)
    emit("Table IV", result.render())

    by_case = {case.case: case.result.dse.best_perf for case in result.cases}
    # Budgets are respected everywhere.
    for case in result.cases:
        device = get_device(case.device)
        perf = case.result.dse.best_perf
        assert perf.total_dsp <= device.dsp
        assert perf.total_bram <= device.bram_18k
    # Throughput scales with the device (the paper's 1x -> 2x -> 4x climb
    # on Br.2 across Z7045 -> ZU17EG -> ZU9CG at 8-bit).
    br2 = [by_case[c].branches[1].fps for c in (1, 2, 4)]
    assert br2[0] < br2[1] < br2[2]
    assert br2[2] >= 3.0 * br2[0]
    # 8-bit doubles 16-bit on the same device.
    assert by_case[4].branches[1].fps == pytest.approx(
        2 * by_case[5].branches[1].fps, rel=0.25
    )
    # The flagship case satisfies the VR refresh requirement.
    assert by_case[4].fps >= 90.0
    # Device utilization is high, as in the paper (81-88 % of DSPs).
    assert by_case[4].total_dsp >= 0.75 * get_device("ZU9CG").dsp
