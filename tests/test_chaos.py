"""The chaos experiment: fault-rate sweeps over the fleet.

The acceptance properties: the rate-0 cells reproduce the fault-free
fleet study bit-for-bit, the sweep is deterministic and shard-
invariant (any ``--workers`` count renders byte-identically), and
nonzero rates degrade quality without ever crashing a deployment.
"""

import pytest

from repro.cli import main
from repro.harness.exp_chaos import chaos_sweep
from repro.harness.exp_fleet import table5

APPS = ("K9-mail", "AndStatus")
KWARGS = dict(seed=0, apps=APPS, users=1, actions_per_user=10)


@pytest.fixture(scope="module")
def small_sweep(device):
    return chaos_sweep(device, rates=(0.0, 0.3), workers=1, **KWARGS)


def test_rate_zero_matches_fault_free_fleet_study(device, small_sweep):
    """Acceptance: chaos at rate 0 reproduces Table 5's per-app
    bugs-detected numbers bit-for-bit (same seed/users/actions)."""
    fleet = table5(device, seed=0, users=1, actions_per_user=10,
                   corpus_size=22, workers=1)
    fleet_bugs = {row.app_name: row.bugs_detected for row in fleet.rows}
    zero_cells = [cell for cell in small_sweep.cells if cell.rate == 0.0]
    assert len(zero_cells) == len(APPS)
    for cell in zero_cells:
        assert cell.bugs_detected == fleet_bugs[cell.app_name]
        assert cell.counter_read_failures == 0
        assert cell.trace_failures == 0
        assert not cell.degraded
        assert not cell.state_recovered
        assert cell.faults_fired == 0


def test_sweep_parallel_equals_serial(device, small_sweep):
    parallel = chaos_sweep(device, rates=(0.0, 0.3), workers=2, **KWARGS)
    assert parallel.render() == small_sweep.render()
    assert parallel.cells == small_sweep.cells


def test_sweep_repeated_runs_deterministic(device, small_sweep):
    again = chaos_sweep(device, rates=(0.0, 0.3), workers=1, **KWARGS)
    assert again.render() == small_sweep.render()


def test_nonzero_rates_inject_and_never_crash(small_sweep):
    """With faults firing, quality may drop but every cell completes."""
    faulted = small_sweep.row(0.3)
    assert faulted["faults_fired"] > 0
    assert (faulted["counter_read_failures"] + faulted["trace_failures"]) > 0
    base = small_sweep.baseline()
    assert faulted["bugs_detected"] <= base["bugs_detected"]
    assert "no run crashed" in small_sweep.render()


def test_row_rejects_unknown_rate(small_sweep):
    with pytest.raises(KeyError):
        small_sweep.row(0.77)


def test_cli_chaos_quick_is_deterministic(capsys):
    assert main(["chaos", "--quick", "--seed", "0"]) == 0
    first = capsys.readouterr().out
    assert main(["chaos", "--quick", "--seed", "0", "--workers", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "Chaos sweep" in first
    assert "degradation at rate" in first


def test_cli_chaos_checkpoint_resume_is_byte_identical(capsys, tmp_path):
    """The README resume quickstart, end to end: a checkpointed run,
    then a resumed one, both render exactly the plain run's bytes."""
    assert main(["chaos", "--quick", "--seed", "0"]) == 0
    plain = capsys.readouterr().out
    ckpt = str(tmp_path / "ckpt")
    assert main(["chaos", "--quick", "--seed", "0",
                 "--checkpoint", ckpt]) == 0
    assert capsys.readouterr().out == plain
    assert main(["chaos", "--quick", "--seed", "0",
                 "--checkpoint", ckpt, "--resume"]) == 0
    assert capsys.readouterr().out == plain


def test_cli_chaos_verbose_reports_execution(capsys, tmp_path):
    ckpt = str(tmp_path / "ckpt")
    assert main(["chaos", "--quick", "--seed", "0",
                 "--checkpoint", ckpt, "--verbose"]) == 0
    assert "execution:" in capsys.readouterr().out
    assert main(["chaos", "--quick", "--seed", "0",
                 "--checkpoint", ckpt, "--resume", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "checkpoint hits: 4" in out
    assert "restored 4/4 shard(s)" in out


def test_cli_resume_without_checkpoint_rejected():
    with pytest.raises(SystemExit, match="--resume requires"):
        main(["chaos", "--quick", "--resume"])
