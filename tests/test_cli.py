"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import build_parser, main
from repro.io.csvio import write_matrix


def write_series(values, path):
    """A one-minute long-format series CSV (``timestamp,value``)."""
    path.write_text("timestamp,value\n" + "".join(
        "%d,%r\n" % (60 * i, float(v)) for i, v in enumerate(values)))


@pytest.fixture
def treated_control_csvs(tmp_path, rng):
    shared = 50.0 + rng.normal(0, 1.0, size=240)
    treated = shared + rng.normal(0, 0.5, size=(4, 240))
    control = shared + rng.normal(0, 0.5, size=(12, 240))
    treated[:, 120:] += 6.0
    t_path = tmp_path / "treated.csv"
    c_path = tmp_path / "control.csv"
    write_matrix(treated, ["t%d" % i for i in range(4)], 0, 60, t_path)
    write_matrix(control, ["c%d" % i for i in range(12)], 0, 60, c_path)
    return str(t_path), str(c_path)


#: ``{command: {dest: default}}`` over every subparser as 07e8626 had it:
#: an option-builder refactor cannot move a default or lose a flag silently.
_FUNNEL = {"omega": 9, "did_threshold": 0.5}
_SCENARIO = {"services": 6, "servers": 48, "changes": 8,
             "impact_fraction": 0.5, "history_days": 2, "seed": 7}
_REPLAY = dict(_SCENARIO, window_bins=240, change_offset=80, flush_bins=1,
               score_chunk=6, queue_capacity=64, drain_budget=0,
               max_active_changes=0, verdicts=None, obs_dir=None,
               checkpoint=None, checkpoint_every=25, resume_from=None,
               kill_after_ticks=0, health=None, **_FUNNEL)
CLI_SURFACE = {
    "detect": dict(_FUNNEL, series=None, change_minute=0),
    "assess": dict(_FUNNEL, treated=None, control=None, history=None,
                   change_minute=None),
    "generate": {"out_treated": None, "out_control": None,
                 "character": "stationary", "effect_sigmas": 6.0,
                 "minutes": 240, "change_minute": 120, "seed": 0},
    "cost": {"seconds": 0.5},
    "assess-fleet": dict(_SCENARIO, **_FUNNEL, detectors="funnel",
                         batch_size=16, obs_dir=None, verdicts=None),
    "live-replay": dict(_REPLAY, check_offline=False),
    "chaos-replay": dict(_REPLAY, plan="drop-delay-dup", fault_seed=0,
                         fault_offset_bins=0),
    "obs report": {"obs_dir": None, "top": 10, "folded": None, "json": False},
    "obs health-report": dict(heartbeat=None, json=False, out=None,
                              min_self_detections=None,
                              max_self_detections=None),
}


def _surface(parser, prefix=""):
    table = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(_surface(sub, (prefix + " " + name).strip()))
        elif prefix and action.dest != "help":
            table.setdefault(prefix, {})[action.dest] = action.default
    return table


class TestParser:
    def test_surface_table(self):
        assert _surface(build_parser()) == CLI_SURFACE

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "repro" in capsys.readouterr().out

    def test_workers_flag_is_gone(self, capsys):
        """The engine runs in one process: ``--workers`` is a usage error."""
        with pytest.raises(SystemExit) as exit_info:
            main(_FLEET_ARGS + ["--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestDetect:
    def test_detect_finds_shift(self, tmp_path, rng, capsys):
        x = 50.0 + rng.normal(0, 0.5, size=240)
        x[120:] += 5.0
        path = tmp_path / "series.csv"
        write_series(x, path)
        code = main(["detect", str(path), "--change-minute", "120"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["series_bins"] == 240
        assert payload["changes"]
        assert payload["changes"][0]["kind"] == "level_shift"

    def test_detect_quiet_series(self, tmp_path, rng, capsys):
        x = 50.0 + rng.normal(0, 0.5, size=240)
        path = tmp_path / "series.csv"
        write_series(x, path)
        assert main(["detect", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["changes"] == []

    def test_detect_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,value\n0,1.0\n0,2.0\n")
        assert main(["detect", str(path)]) == 1
        assert "error" in json.loads(capsys.readouterr().err)


class TestAssess:
    def test_assess_attributes_change(self, treated_control_csvs, capsys):
        t_path, c_path = treated_control_csvs
        code = main(["assess", t_path, "--control", c_path,
                     "--change-minute", "120"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "caused_by_change"
        assert payload["control"] == "peers"
        assert payload["did_normalised_alpha"] > 1.0

    def test_assess_without_control(self, treated_control_csvs, capsys):
        t_path, _ = treated_control_csvs
        assert main(["assess", t_path, "--change-minute", "120"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "caused_by_change"
        assert "notes" in payload

    def test_omega_option(self, treated_control_csvs, capsys):
        t_path, c_path = treated_control_csvs
        assert main(["assess", t_path, "--control", c_path,
                     "--change-minute", "120", "--omega", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "caused_by_change"


class TestGenerateAndCost:
    def test_generate_then_assess(self, tmp_path, capsys):
        t_path = str(tmp_path / "t.csv")
        c_path = str(tmp_path / "c.csv")
        assert main(["generate", "--out-treated", t_path,
                     "--out-control", c_path, "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["assess", t_path, "--control", c_path,
                     "--change-minute", "120"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "caused_by_change"

    def test_cost_reports_all_methods(self, capsys):
        assert main(["cost", "--seconds", "0.05"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"funnel", "cusum", "mrls"}
        for entry in payload.values():
            assert entry["us_per_window"] > 0


def _strip_timings(payload):
    """Drop wall-clock-dependent values so JSON documents compare stably."""
    if isinstance(payload, dict):
        return {key: _strip_timings(value)
                for key, value in payload.items()
                if key not in ("seconds", "throughput_jobs_per_second")}
    if isinstance(payload, list):
        return [_strip_timings(value) for value in payload]
    return payload


_FLEET_ARGS = ["assess-fleet", "--services", "4", "--servers", "20",
               "--changes", "3", "--history-days", "1", "--seed", "3"]


class TestAssessFleet:
    def test_report_structure(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        assert main(_FLEET_ARGS + ["--detectors", "funnel,improved_sst",
                                   "--obs-dir", str(obs_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"] > 0
        assert set(payload["detectors"]) == {"funnel", "improved_sst"}
        funnel = payload["detectors"]["funnel"]
        assert funnel["jobs"] == funnel["labelled_jobs"]
        assert 0.0 <= funnel["precision"] <= 1.0
        assert 0.0 <= funnel["recall"] <= 1.0
        for stage in ("plan", "detect", "execute"):
            assert payload["stages"][stage]["calls"] > 0
        assert payload["scenario"]["changes"] == 3
        # Recorded spans: a ``plan`` per (change, detector), a ``fetch`` per job.
        assert main(["obs", "report", str(obs_dir), "--json"]) == 0
        calls = {tuple(p["path"]): p["calls"]
                 for p in json.loads(capsys.readouterr().out)["paths"]}
        assert calls[("assess_fleet", "plan")] == 3 * 2
        assert calls[("assess_fleet", "fetch")] == payload["jobs"]

    def test_report_charges_funnel_attribution_to_its_detector(
            self, tmp_path, capsys):
        """``attribute_batch`` spans carry their detector, so the
        per-detector view shows funnel's DiD time under ``attrib_s``."""
        obs_dir = tmp_path / "obs"
        assert main(["assess-fleet", "--services", "2", "--servers", "8",
                     "--changes", "2", "--history-days", "1",
                     "--obs-dir", str(obs_dir)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(obs_dir), "--json"]) == 0
        funnel = json.loads(capsys.readouterr().out)["detectors"]["funnel"]
        assert funnel["stages"]["attribute"]["total_s"] > 0
        assert main(["obs", "report", str(obs_dir)]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("funnel "))
        assert float(row.split()[-1]) > 0          # attrib_s

    def test_golden_json_round_trip(self, capsys):
        """Two runs (small and default stacks) print the same JSON,
        timings aside."""
        assert main(list(_FLEET_ARGS)) == 0
        first = capsys.readouterr().out
        assert main(_FLEET_ARGS + ["--batch-size", "4"]) == 0
        second = capsys.readouterr().out
        a, b = json.loads(first), json.loads(second)
        # The second run hits the baseline cache the first one warmed;
        # everything else must match.
        a.pop("cache"), b.pop("cache")
        assert _strip_timings(a) == _strip_timings(b)
        # Round-trip: parse -> dump -> parse is lossless.
        assert json.loads(json.dumps(a, sort_keys=True)) == a

    def test_unknown_detector_errors(self, capsys):
        for detectors in ("prophet", ","):      # unknown name; none at all
            assert main(_FLEET_ARGS + ["--detectors", detectors]) == 1
            assert "error" in json.loads(capsys.readouterr().err)


class TestGoldenJson:
    """detect/assess emit stable, round-trippable JSON documents."""

    def test_detect_golden_round_trip(self, tmp_path, rng, capsys):
        x = 50.0 + rng.normal(0, 0.5, size=240)
        x[120:] += 5.0
        path = tmp_path / "series.csv"
        write_series(x, path)
        args = ["detect", str(path), "--change-minute", "120"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == first

    def test_assess_golden_round_trip(self, treated_control_csvs, capsys):
        t_path, c_path = treated_control_csvs
        args = ["assess", t_path, "--control", c_path,
                "--change-minute", "120"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == first


_LIVE_ARGS = ["live-replay", "--services", "2", "--servers", "8",
              "--changes", "2", "--window-bins", "120",
              "--change-offset", "60", "--history-days", "1", "--seed", "3"]


class TestLiveReplay:
    def test_replay_reports_verdicts(self, capsys):
        assert main(list(_LIVE_ARGS)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ticks"] > 0
        assert payload["fragments_streamed"] > 0
        report = payload["service"]
        assert report["closed_changes"] == 2
        assert report["verdicts"] > 0
        assert report["counters"]["repro_live_changes_admitted_total"] == 2
        assert payload["mean_detection_lag_bins"] is not None

    def test_check_offline_parity(self, capsys):
        assert main(_LIVE_ARGS + ["--check-offline"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parity"]["ok"] is True
        assert payload["parity"]["live_only"] == []
        assert payload["parity"]["offline_only"] == []

    def test_verdict_jsonl_sink(self, tmp_path, capsys):
        path = tmp_path / "verdicts.jsonl"
        assert main(_LIVE_ARGS + ["--verdicts", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == payload["verdicts"]
        doc = json.loads(lines[0])
        for field in ("change_id", "entity_type", "entity", "metric",
                      "verdict", "reason"):
            assert field in doc

    def test_obs_artifacts_include_live_counters(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        assert main(_LIVE_ARGS + ["--obs-dir", str(obs_dir)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(obs_dir), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        names = [row["name"] for row in report["counters"]]
        assert "repro_live_fragments_total" in names
        assert "repro_live_verdicts_total" in names
        paths = [tuple(p["path"]) for p in report["paths"]]
        assert ("live_replay",) in paths
        assert ("live_replay", "live_change") in paths
        # One gating table per pool pass, many positions per table —
        # and the kernel called on few passes, for few of the positions.
        batching = report["batching"]
        assert 0 < batching["pooled_scoring_batches"] <= \
            batching["pooled_gating_tables"]
        assert batching["pooled_gating_candidates_per_table"] > 1.0
        assert 0 < batching["pooled_windows_per_position"] < 1.0

    def test_overload_surfaces_shed_counters(self, capsys):
        assert main(_LIVE_ARGS + ["--queue-capacity", "2",
                                  "--drain-budget", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        counters = payload["service"]["counters"]
        assert counters.get("repro_live_shed_fragments_total", 0) > 0


class TestAssessFleetVerdicts:
    def test_verdicts_jsonl_written(self, tmp_path, capsys):
        path = tmp_path / "new" / "offline.jsonl"   # parent is created
        assert main(_FLEET_ARGS + ["--verdicts", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdicts_path"] == str(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == payload["jobs"] > 0
        doc = json.loads(lines[0])
        for field in ("change_id", "entity_type", "entity", "metric",
                      "detector", "verdict", "control"):
            assert field in doc

    def test_unwritable_target_fails_before_planning(self, tmp_path,
                                                     monkeypatch, capsys):
        # Planning a job would now be a TypeError, not an exit code.
        monkeypatch.setattr("repro.engine.SyntheticFleetSource.plan_jobs",
                            None)
        (tmp_path / "file").write_text("")
        target = tmp_path / "file" / "offline.jsonl"    # parent is a file
        assert main(_FLEET_ARGS + ["--verdicts", str(target)]) == 1
        assert "error" in json.loads(capsys.readouterr().err)
