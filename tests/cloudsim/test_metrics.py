"""Unit tests for the metrics collector and figure series."""

import pytest

from repro.cloudsim.metrics import MetricsCollector, StepMetrics


def step(i, energy=1.0, sla=0.5, migrations=2, hosts=3, seconds=0.001):
    return StepMetrics(
        step=i,
        energy_cost_usd=energy,
        sla_cost_usd=sla,
        num_migrations_started=migrations,
        num_migrations_rejected=0,
        num_active_hosts=hosts,
        scheduler_seconds=seconds,
        mean_host_utilization=0.5,
        num_overloaded_hosts=0,
    )


@pytest.fixture
def collector():
    c = MetricsCollector()
    for i in range(5):
        c.record(step(i))
    return c


class TestAggregates:
    def test_total_cost(self, collector):
        assert collector.total_cost_usd == pytest.approx(7.5)

    def test_cost_split(self, collector):
        assert collector.total_energy_cost_usd == pytest.approx(5.0)
        assert collector.total_sla_cost_usd == pytest.approx(2.5)

    def test_totals_sum_left_to_right(self):
        # A compensated sum (builtin ``sum`` from Python 3.12) gives 1.0
        # here; left to right, 1e16 + 1.0 rounds back to 1e16 first.
        values = [1e16, 1.0, -1e16]
        c = MetricsCollector()
        for i, value in enumerate(values):
            c.record(step(i, energy=value, sla=value, seconds=value))
        assert c.total_energy_cost_usd == 0.0
        assert c.total_sla_cost_usd == 0.0
        assert c.total_cost_usd == 0.0
        assert c.mean_scheduler_seconds == 0.0

    def test_total_migrations(self, collector):
        assert collector.total_migrations == 10

    def test_mean_active_hosts(self, collector):
        assert collector.mean_active_hosts == pytest.approx(3.0)

    def test_mean_scheduler_time(self, collector):
        assert collector.mean_scheduler_milliseconds == pytest.approx(1.0)

    def test_empty_collector(self):
        c = MetricsCollector()
        assert c.total_cost_usd == 0.0
        assert c.mean_active_hosts == 0.0
        assert c.mean_scheduler_seconds == 0.0


class TestSeries:
    def test_per_step_cost(self, collector):
        assert collector.per_step_cost_series() == [1.5] * 5

    def test_cumulative_migrations(self, collector):
        assert collector.cumulative_migration_series() == [2, 4, 6, 8, 10]

    def test_active_hosts(self, collector):
        assert collector.active_host_series() == [3] * 5

    def test_scheduler_ms(self, collector):
        assert collector.scheduler_time_series_ms() == pytest.approx([1.0] * 5)

    def test_step_total(self):
        s = step(0, energy=2.0, sla=3.0)
        assert s.total_cost_usd == pytest.approx(5.0)


class TestConvergence:
    def test_flat_series_converges_immediately(self):
        c = MetricsCollector()
        for i in range(50):
            c.record(step(i, energy=1.0, sla=0.0))
        assert c.convergence_step(window=5) == 0

    def test_transient_then_flat(self):
        c = MetricsCollector()
        for i in range(20):
            c.record(step(i, energy=10.0, sla=0.0))
        for i in range(20, 100):
            c.record(step(i, energy=1.0, sla=0.0))
        conv = c.convergence_step(window=5)
        assert 20 <= conv <= 30

    def test_short_series(self):
        c = MetricsCollector()
        for i in range(3):
            c.record(step(i))
        assert c.convergence_step(window=10) == 3

    def test_never_settles(self):
        c = MetricsCollector()
        for i in range(60):
            c.record(step(i, energy=float(i), sla=0.0))
        # Strictly increasing cost: convergence at the very end.
        assert c.convergence_step(window=5) >= 50
