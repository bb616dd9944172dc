"""Tests for the library CLI (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestVcCommand:
    def test_default_run(self, capsys):
        assert main(["vc", "--family", "cycle", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "vertex-cover" in out
        assert "is_cover" in out

    def test_json_output_parses(self, capsys):
        assert main(["vc", "--family", "petersen", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == "vertex-cover"
        assert payload["is_cover"] is True
        assert payload["n"] == 10

    def test_exact_flag(self, capsys):
        assert main(["vc", "--family", "path", "--n", "6", "--exact", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cover_weight"] <= 2 * payload["optimum"]

    def test_weighted_run(self, capsys):
        assert main(["vc", "--family", "gnp", "--n", "10", "--W", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_cover"] is True

    def test_broadcast_algorithm(self, capsys):
        assert main(["vc", "--family", "cycle", "--n", "5",
                     "--algorithm", "broadcast", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "broadcast"
        assert payload["is_cover"] is True

    def test_broadcast_replay_scratch_matches_incremental(self, capsys):
        argv = ["vc", "--family", "cycle", "--n", "5",
                "--algorithm", "broadcast", "--json"]
        assert main(argv + ["--replay", "scratch"]) == 0
        scratch = json.loads(capsys.readouterr().out)
        assert main(argv + ["--replay", "incremental"]) == 0
        incremental = json.loads(capsys.readouterr().out)
        assert scratch == incremental

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            main(["vc", "--family", "nope"])


class TestVcFaultFlags:
    @pytest.mark.parametrize(
        "kind", ["state", "loss", "duplication", "corruption", "crash"]
    )
    def test_every_fault_kind_recovers(self, kind, capsys):
        assert main(
            ["vc", "--family", "cycle", "--n", "8", "--W", "3",
             "--fault", kind, "--fault-rate", "0.3",
             "--fault-rounds", "6", "--fault-seed", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fault"] == kind
        assert payload["fault_events"] > 0
        assert payload["recovered_within_T"] is True
        assert payload["cover"]  # readout present once recovered

    def test_fault_schedule_is_seed_deterministic(self, capsys):
        argv = ["vc", "--family", "cycle", "--n", "8", "--fault", "loss",
                "--fault-seed", "5", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert main(argv[:-2] + ["7", "--json"]) == 0
        other_seed = json.loads(capsys.readouterr().out)
        assert other_seed["fault_events"] != first["fault_events"] or (
            other_seed["recovered_within_T"] and first["recovered_within_T"]
        )

    def test_fault_requires_port_algorithm(self):
        with pytest.raises(SystemExit, match="port"):
            main(["vc", "--family", "cycle", "--n", "5",
                  "--algorithm", "broadcast", "--fault", "loss"])


class TestScCommand:
    def test_default_run(self, capsys):
        assert main(["sc", "--subsets", "5", "--elements", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == "set-cover"
        assert payload["is_cover"] is True

    def test_exact_ratio_within_f(self, capsys):
        assert main(
            ["sc", "--subsets", "5", "--elements", "8", "--k", "3", "--f", "2",
             "--W", "4", "--exact", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cover_weight"] <= payload["f"] * payload["optimum"]


class TestFamiliesCommand:
    def test_lists_families(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "petersen" in out and "cycle" in out


class TestSweepCommand:
    def test_json_runs_per_size_and_seed(self, capsys):
        assert main(
            ["sweep", "--family", "cycle", "--sizes", "8,12", "--seeds", "2",
             "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == "vertex-cover"
        assert len(payload["runs"]) == 4
        assert {(r["size"], r["seed"]) for r in payload["runs"]} == {
            (8, 0), (8, 1), (12, 0), (12, 1)
        }
        assert all(r["rounds"] == 27 for r in payload["runs"])

    def test_process_backend_matches_serial(self, capsys):
        argv = ["sweep", "--family", "cycle", "--sizes", "8,10,12", "--json"]
        assert main(argv) == 0
        serial = json.loads(capsys.readouterr().out)
        assert serial["backend"] == "serial"
        # --workers alone means the process pool
        assert main(argv + ["--workers", "2"]) == 0
        pooled = json.loads(capsys.readouterr().out)
        assert serial["runs"] == pooled["runs"]
        assert pooled["backend"] == "process"

    def test_single_job_reports_serial_backend(self, capsys):
        # map_jobs runs one job serially whatever the flags ask for.
        assert main(["sweep", "--sizes", "64", "--seeds", "1",
                     "--workers", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["backend"] == "serial"

    def test_auto_backend_reports_what_ran(self, capsys):
        assert main(["sweep", "--family", "cycle", "--sizes", "8,10",
                     "--workers", "2", "--json"]) == 0
        # With no backend to pick, several jobs on 2 workers run on the
        # process pool, and the payload names it.
        assert json.loads(capsys.readouterr().out)["backend"] == "process"

    def test_broadcast_algorithm_and_metering(self, capsys):
        assert main(
            ["sweep", "--family", "path", "--sizes", "6", "--algorithm",
             "broadcast", "--metering", "bits", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["message_bits"] > 0
        assert payload["replay"] == "incremental"

    def test_broadcast_replay_modes_agree(self, capsys):
        argv = ["sweep", "--family", "path", "--sizes", "6", "--algorithm",
                "broadcast", "--metering", "bits", "--json"]
        assert main(argv + ["--replay", "scratch"]) == 0
        scratch = json.loads(capsys.readouterr().out)
        assert main(argv + ["--replay", "incremental"]) == 0
        incremental = json.loads(capsys.readouterr().out)
        assert scratch["runs"] == incremental["runs"]
        assert scratch["replay"] == "scratch"

    def test_text_output(self, capsys):
        assert main(["sweep", "--family", "cycle", "--sizes", "8"]) == 0
        out = capsys.readouterr().out
        assert "rounds" in out and "cover_weight" in out

    def test_bad_sizes_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--sizes", "eight"])


class TestDynamicCommand:
    def test_incremental_with_verify(self, capsys):
        assert main(
            ["dynamic", "--family", "cycle", "--n", "64", "--batches", "3",
             "--verify", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == "dynamic-vertex-cover"
        assert payload["mode"] == "incremental"
        assert payload["verified_against_scratch"] is True
        assert payload["batches"]
        for rec in payload["batches"]:
            assert rec["is_cover"] is True
            assert 0.0 < rec["repaired_fraction"] <= 1.0

    def test_modes_produce_identical_covers(self, capsys):
        argv = ["dynamic", "--family", "grid", "--n", "16", "--batches", "3",
                "--stream", "window", "--seed", "2", "--json"]
        assert main(argv + ["--mode", "incremental"]) == 0
        inc = json.loads(capsys.readouterr().out)
        assert main(argv + ["--mode", "scratch"]) == 0
        scr = json.loads(capsys.readouterr().out)
        drop = {"wall_ms", "repaired_nodes", "repaired_fraction"}
        for a, b in zip(inc["batches"], scr["batches"]):
            assert {k: v for k, v in a.items() if k not in drop} == {
                k: v for k, v in b.items() if k not in drop
            }
        assert all(r["repaired_fraction"] == 1.0 for r in scr["batches"])

    def test_hub_stream_and_text_output(self, capsys):
        assert main(
            ["dynamic", "--family", "star", "--n", "8", "--batches", "2",
             "--stream", "hubs"]
        ) == 0
        out = capsys.readouterr().out
        assert "repaired_fraction" in out and "dynamic-vertex-cover" in out

    def test_bad_batches_rejected(self):
        with pytest.raises(SystemExit):
            main(["dynamic", "--batches", "0"])


class TestDynamicSnapshotFlags:
    def test_snapshot_then_restore_continues_the_session(self, tmp_path, capsys):
        path = str(tmp_path / "session.bin")
        assert main(
            ["dynamic", "--family", "cycle", "--n", "32", "--batches", "3",
             "--snapshot", path, "--json"]
        ) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["snapshot_path"] == path
        assert first["snapshot_bytes"] > 0
        assert first["batches_applied_total"] == 3

        assert main(
            ["dynamic", "--restore", path, "--batches", "2", "--seed", "9",
             "--json"]
        ) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["restored_from"] == path
        assert resumed["mode"] == first["mode"]  # pinned by the snapshot
        assert resumed["batches_applied_total"] == 5
        # batch numbering continues where the snapshot left off
        assert [r["batch"] for r in resumed["batches"]] == [4, 5]
        for rec in resumed["batches"]:
            assert rec["is_cover"] is True

    def test_restore_with_verify_rejected(self, tmp_path):
        path = str(tmp_path / "session.bin")
        assert main(
            ["dynamic", "--family", "cycle", "--n", "16", "--batches", "1",
             "--snapshot", path, "--json"]
        ) == 0
        with pytest.raises(SystemExit, match="--verify"):
            main(["dynamic", "--restore", path, "--verify"])

    def test_restore_garbage_rejected(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"not a snapshot")
        with pytest.raises(SystemExit, match="restore rejected"):
            main(["dynamic", "--restore", str(path)])

    def test_restore_missing_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["dynamic", "--restore", str(tmp_path / "absent.bin")])


class TestVerifyDiagnostics:
    def test_diff_names_first_differing_node(self):
        from repro.cli import _verify_diff
        from repro.simulator.runtime import RunResult

        a = RunResult(outputs=[0, 1, 0], rounds=3, all_halted=True,
                      messages_sent=6, message_bits=None,
                      per_round_bits=None, states=None)
        b = RunResult(outputs=[0, 1, 1], rounds=3, all_halted=True,
                      messages_sent=7, message_bits=None,
                      per_round_bits=None, states=None)
        assert "node 2" in _verify_diff(a, b, "outputs")
        assert "6 != 7" in _verify_diff(a, b, "messages_sent")
