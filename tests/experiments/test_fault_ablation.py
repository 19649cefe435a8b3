"""Tests for the fault-ablation harness."""

from repro.experiments import fault_ablation


def test_each_row_runs_one_simulation(monkeypatch):
    """The relays the fault plans target come from the first fault-free
    row's run, not from a dry run of their own."""
    configs = []
    run = fault_ablation.run_polling_simulation

    def counted(config):
        configs.append(config)
        return run(config)

    monkeypatch.setattr(fault_ablation, "run_polling_simulation", counted)
    rows = fault_ablation.run(n_sensors=30, n_cycles=4, seed=3)
    assert len(configs) == len(rows)
