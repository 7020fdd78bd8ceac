"""The windowed estimator on synthetic timings."""

import pytest

import calibrate

REF = 0.0023


def _cost(segments, kernels, window=25):
    return calibrate.reference_seconds(
        segments, kernels, window=window, calib_ref_s=REF
    )


def test_calm_host_reads_as_wall_seconds():
    segments = [0.040] * 100
    kernels = [REF] * 101
    assert _cost(segments, kernels) == pytest.approx(4.0)


def test_uniform_slowdown_cancels():
    segments = [0.030 + 0.0001 * i for i in range(100)]
    kernels = [REF] * 101
    slow = _cost([2 * s for s in segments], [2 * k for k in kernels])
    assert slow == pytest.approx(_cost(segments, kernels), rel=1e-12)


def test_slowdown_of_one_window_cancels():
    """Half the run at half speed: each window is charged at its own speed."""
    segments = [0.040] * 50
    kernels = [REF] * 51
    drifted_segments = segments[:25] + [2 * s for s in segments[25:]]
    drifted_kernels = kernels[:25] + [1.5 * REF] + [2 * REF] * 25
    calm = _cost(segments, kernels)
    # Only the boundary sample, shared by both windows, smears the estimate.
    assert _cost(drifted_segments, drifted_kernels) == pytest.approx(calm, rel=0.02)


def test_steal_burst_in_one_segment_is_bounded():
    segments = [0.040] * 100
    kernels = [REF] * 101
    calm = _cost(segments, kernels)
    stolen = list(segments)
    stolen[40] += 0.040  # one whole segment's worth of preemption
    burst = _cost(stolen, kernels)
    assert calm < burst <= calm * 1.011  # charged once, never amplified


def test_steal_in_one_kernel_sample_is_bounded():
    segments = [0.040] * 100
    kernels = [REF] * 101
    spiked = list(kernels)
    spiked[10] *= 3
    calm = _cost(segments, kernels)
    # One bad sample among a window's 26 moves that window only.
    assert _cost(segments, spiked) == pytest.approx(calm, rel=0.02)


def test_kernel_count_must_match():
    with pytest.raises(ValueError):
        _cost([0.04] * 10, [REF] * 10)
    with pytest.raises(ValueError):
        _cost([0.04], [REF, REF], window=0)


def test_p90_over_p10():
    assert calibrate.p90_over_p10([1.0] * 11) == 1.0
    assert calibrate.p90_over_p10([float(i) for i in range(1, 12)]) == pytest.approx(10 / 2)


def test_kernel_is_deterministic_work():
    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.kernel_wall(3) > 0
