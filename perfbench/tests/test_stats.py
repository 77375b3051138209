import math
import statistics

import pytest

import stats


def test_median_odd_and_even():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_quartiles_match_statistics_quantiles():
    values = [9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
    q1, q2, q3 = stats.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    # exclusive method: positions (n+1)p over the sorted values
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    with pytest.raises(ValueError):
        stats.quartiles([1.0])


def test_ratio_to_reference_uses_both_medians():
    op_ms = [100.0, 120.0, 80.0]
    ref_ms = [4.0, 5.0, 6.0, 5.0]
    assert stats.ratio_to_reference(op_ms, ref_ms) == pytest.approx(100.0 / 5.0)
    with pytest.raises(ValueError):
        stats.ratio_to_reference(op_ms, [0.0])


def test_ratio_to_reference_cancels_a_uniform_slowdown():
    op_ms = [100.0, 110.0, 90.0]
    ref_ms = [5.0, 5.5, 4.5]
    slow = 1.23
    assert stats.ratio_to_reference([slow * v for v in op_ms], [slow * v for v in ref_ms]) \
        == pytest.approx(stats.ratio_to_reference(op_ms, ref_ms))


def test_throughput_is_count_over_summed_time():
    assert stats.throughput([0.5, 0.25, 0.25]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        stats.throughput([])


def test_reference_work_is_fixed():
    assert stats.reference_work() == stats.REF_CHECKSUM
    times = stats.time_reference(3)
    assert len(times) == 3 and all(t > 0 and math.isfinite(t) for t in times)


def test_sets_table_reports_median_and_quartiles():
    import sets

    assert sets.parse_seeds("11-13") == [11, 12, 13]
    assert sets.parse_seeds("7") == [7]
    rows = [{"workload": "w", "correct": True, "attempted": 14, "failed": 1,
             "metrics": {"op_p50_ms": {"value": v, "unit": "ms"}}}
            for v in (9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0)]
    text = sets.table(rows)
    assert "| `w` | `op_p50_ms` (ms) | 5.5 | 2.75 | 8.25 | 1.000 |" in text
    assert "failed/attempted 1/14" in text


def test_reference_sampler_samples_during_work_and_disarms():
    import signal
    import time

    with stats.ReferenceSampler(interval=0.05) as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert sampler.spent == pytest.approx(sum(sampler.samples) / 1000.0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) in (signal.SIG_DFL, None, signal.default_int_handler)
