"""Matrix campaigns: spec compilation, execution, resume byte-identity.

The matrix rides the campaign orchestrator — these tests pin the parts
the matrix adds on top: per-attack malicious-count co-variation, journal
layout, cell aggregation through the *plugin's* detection verdict, and
the interrupt/resume → byte-identical-report guarantee the CI smoke job
re-checks end to end.
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro.experiments.campaign import CampaignError
from repro.experiments.matrix import (
    DEFAULT_MATRIX_ATTACKS,
    MatrixSpec,
    aggregate_matrix,
    attack_malicious,
    run_matrix,
)
from repro.experiments.scenario import ScenarioConfig
from repro.obs.report import MatrixReport


def _small_spec(**overrides):
    defaults = dict(
        name="testmatrix",
        base=ScenarioConfig(n_nodes=16, duration=40.0, seed=3, attack_start=10.0),
        defenses=("none", "liteworp"),
        attacks=("outofband", "relay"),
        runs=1,
    )
    defaults.update(overrides)
    return MatrixSpec(**defaults)


# ----------------------------------------------------------------------
# Spec compilation
# ----------------------------------------------------------------------
def test_attack_malicious_covaries_with_mode():
    assert attack_malicious("none") == 0
    assert attack_malicious("outofband") == 2
    assert attack_malicious("encapsulation", colluders=3) == 3
    assert attack_malicious("highpower") == 1
    assert attack_malicious("relay") == 1
    assert attack_malicious("rushing") == 1


def test_default_defenses_are_every_registered_one():
    from repro.defenses import available_defenses

    spec = MatrixSpec()
    assert spec.defenses == available_defenses()
    assert spec.attacks == DEFAULT_MATRIX_ATTACKS


def test_campaign_per_attack_pins_mode_and_malicious_count():
    spec = _small_spec(attacks=("none", "outofband", "relay"))
    for attack in spec.attacks:
        campaign = spec.campaign_for(attack)
        assert campaign.name == f"testmatrix-{attack}"
        assert campaign.base.attack_mode == attack
        assert campaign.base.n_malicious == attack_malicious(attack)
        assert campaign.axes_dict() == {"defense": ("none", "liteworp")}


def test_spec_validation():
    with pytest.raises(CampaignError, match="unknown attack mode"):
        _small_spec(attacks=("teleport",))
    with pytest.raises(CampaignError, match="unknown defense"):
        _small_spec(defenses=("prayer",))
    with pytest.raises(CampaignError, match="duplicate"):
        _small_spec(attacks=("relay", "relay"))
    with pytest.raises(CampaignError, match="runs"):
        _small_spec(runs=0)
    with pytest.raises(CampaignError, match="colluders"):
        _small_spec(colluders=1)
    with pytest.raises(CampaignError, match="attack 'rushing'"):
        _small_spec().campaign_for("rushing")


def test_total_jobs():
    assert _small_spec(runs=3).total_jobs() == 2 * 2 * 3


# ----------------------------------------------------------------------
# Execution + aggregation
# ----------------------------------------------------------------------
def test_matrix_end_to_end(tmp_path):
    spec = _small_spec()
    result = run_matrix(spec, journal_dir=tmp_path)
    assert result.complete
    assert result.executed == spec.total_jobs()
    assert isinstance(result.report, MatrixReport)
    # One journal per attack mode.
    for attack in spec.attacks:
        assert spec.journal_for(attack, tmp_path).exists()

    payload = result.report.payload
    assert payload["attacks"] == list(spec.attacks)
    assert payload["defenses"] == list(spec.defenses)
    assert len(payload["cells"]) == len(spec.attacks) * len(spec.defenses)
    for entry in payload["cells"]:
        metrics = entry["metrics"]
        assert metrics["runs"] == spec.runs
        assert 0.0 <= metrics["detection_rate"] <= 1.0
        assert 0.0 <= metrics["delivery_fraction"] <= 1.0

    # LITEWORP catches the out-of-band tunnel; the null defense never
    # alarms anywhere.
    assert result.report.cell("outofband", "liteworp")["detection_rate"] == 1.0
    for attack in spec.attacks:
        assert result.report.cell(attack, "none")["detection_rate"] == 0.0

    markdown = result.report.to_markdown()
    assert "## Detection rate" in markdown
    assert "| liteworp |" in markdown
    json.loads(result.report.to_json())  # payload is valid JSON


def test_matrix_interrupt_resume_byte_identity(tmp_path):
    spec = _small_spec()
    straight = run_matrix(spec, journal_dir=tmp_path / "straight")

    chopped_dir = tmp_path / "chopped"
    partial = run_matrix(spec, journal_dir=chopped_dir, max_jobs=1)
    assert not partial.complete
    assert partial.report is None
    assert partial.executed == 1

    resumed = run_matrix(spec, journal_dir=chopped_dir, resume=True)
    assert resumed.complete
    assert resumed.executed == spec.total_jobs() - 1
    assert resumed.report.to_json() == straight.report.to_json()


def test_matrix_forwards_backend_jobs_and_cache_to_every_column(tmp_path):
    spec = _small_spec()
    straight = run_matrix(spec, journal_dir=tmp_path / "straight")
    options = dict(backend="process", jobs=2, cache=tmp_path / "cache")
    cold = run_matrix(spec, journal_dir=tmp_path / "cold", **options)
    warm = run_matrix(spec, journal_dir=tmp_path / "warm", **options)
    assert cold.report.to_json() == warm.report.to_json() == straight.report.to_json()
    for attack in spec.attacks:
        assert cold.campaigns[attack].executed == len(spec.defenses)
        assert warm.campaigns[attack].from_cache == len(spec.defenses)
        assert warm.campaigns[attack].executed == 0


def test_matrix_declares_only_what_it_reads():
    assert list(inspect.signature(run_matrix).parameters) == [
        "spec", "journal_dir", "cache", "max_jobs", "stop", "options",
    ]


@pytest.mark.parametrize("option", ["bakend", "journal_path", "sleep", "journal"])
def test_matrix_rejects_a_bad_option_before_any_column_runs(tmp_path, option):
    with pytest.raises(TypeError, match=option):
        run_matrix(_small_spec(), journal_dir=tmp_path, **{option: "inline"})
    assert list(tmp_path.iterdir()) == []


def test_aggregate_requires_complete_journals(tmp_path):
    spec = _small_spec()
    with pytest.raises(CampaignError, match="no complete journal"):
        aggregate_matrix(spec, tmp_path)
    run_matrix(spec, journal_dir=tmp_path, max_jobs=1)
    with pytest.raises(CampaignError, match="missing job"):
        aggregate_matrix(spec, tmp_path)


def test_matrix_stop_callable_interrupts(tmp_path):
    spec = _small_spec()
    calls = {"n": 0}

    def stop():
        calls["n"] += 1
        return calls["n"] > 2

    result = run_matrix(spec, journal_dir=tmp_path, stop=stop)
    assert not result.complete
    assert result.report is None


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_matrix_runs_and_resumes(tmp_path, capsys):
    from repro.cli import main

    journal_dir = str(tmp_path / "journals")
    out_path = tmp_path / "matrix.json"
    base_args = [
        "matrix", "--name", "climatrix",
        "--defense", "none", "--defense", "snd",
        "--attack", "relay", "--attack", "outofband",
        "--nodes", "16", "--duration", "40", "--attack-start", "10",
        "--runs", "1", "--journal-dir", journal_dir, "--no-cache",
        "--no-fsync", "--quiet",
    ]
    # Budget-limited first leg stops with the resumable exit code.
    assert main(base_args + ["--max-jobs", "1"]) == 75
    capsys.readouterr()
    # Resume finishes and renders the matrix.
    assert main(base_args + ["--resume", "--out", str(out_path)]) == 0
    captured = capsys.readouterr()
    assert "# Defense × attack matrix: climatrix" in captured.out
    payload = json.loads(out_path.read_text())
    assert payload["defenses"] == ["none", "snd"]
    assert len(payload["cells"]) == 4
