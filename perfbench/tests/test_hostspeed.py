"""Host-speed scaling: each duration is scaled by the reference samples near it."""

import pytest

from hostspeed import COMPUTE, MEMORY, NEAREST, HostClock

REFERENCE_MS = COMPUTE.nominal_ms


def _clock(samples):
    clock = HostClock(COMPUTE)
    clock.samples = list(samples)
    return clock


def test_a_slow_spell_is_scaled_away():
    # the host runs at reference speed for 10 s, then twice as slow
    clock = _clock([(t, REFERENCE_MS if t < 10 else 2 * REFERENCE_MS) for t in range(20)])
    events = [(2.5, 0.1), (17.5, 0.2)]  # the same work, measured in each spell
    assert clock.scale(events) == [(2.5, pytest.approx(0.1)), (17.5, pytest.approx(0.1))]
    assert clock.reference_ms() == pytest.approx(1.5 * REFERENCE_MS)


def test_one_slow_sample_does_not_move_the_scale():
    samples = [(t, REFERENCE_MS) for t in range(10)]
    samples[5] = (5, 10 * REFERENCE_MS)
    assert _clock(samples).scale([(5.0, 1.0)]) == [(5.0, pytest.approx(1.0))]
    assert NEAREST >= 3


def test_few_samples_are_all_used():
    clock = _clock([(0.0, REFERENCE_MS / 2)])
    assert clock.scale([(9.0, 1.0)]) == [(9.0, pytest.approx(2.0))]


@pytest.mark.parametrize("reference", [COMPUTE, MEMORY], ids=["compute", "memory"])
def test_sample_times_the_reference_task(reference):
    clock = HostClock(reference)
    clock.sample(2)
    assert len(clock.samples) == 2 and all(ms > 0 for _t, ms in clock.samples)
    assert reference.work() == reference.work()
