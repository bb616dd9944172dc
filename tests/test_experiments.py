"""Tests for the experiment harnesses (fast parameterisations).

Each experiment module must (a) run, (b) return a well-formed table,
(c) have its qualitative claim hold — the claims are asserted inside
the experiments themselves, so a successful run *is* the check; these
tests additionally pin the headline numbers.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.experiments.common import ExperimentTable, fmt


class TestExperimentTable:
    def test_add_and_render(self):
        t = ExperimentTable("X", "demo", ["a", "b"])
        t.add_row(a=1, b=True)
        t.add_row(a=Fraction(1, 2))
        t.add_note("note")
        text = t.render()
        assert "[X] demo" in text
        assert "yes" in text
        assert "1/2" in text
        assert "* note" in text

    def test_unknown_column_rejected(self):
        t = ExperimentTable("X", "demo", ["a"])
        with pytest.raises(KeyError):
            t.add_row(nope=1)

    def test_markdown(self):
        t = ExperimentTable("X", "demo", ["a"])
        t.add_row(a=3)
        md = t.to_markdown()
        assert "| a |" in md and "| 3 |" in md

    def test_fmt(self):
        assert fmt(True) == "yes"
        assert fmt(None) == "—"
        assert fmt(Fraction(3, 1)) == "3"
        assert fmt(0.5) == "0.500"


class TestTheorem1Experiments:
    def test_n_sweep_flat(self):
        from repro.experiments.exp_theorem1 import run_n_sweep

        t = run_n_sweep(ns=[8, 16], degree=3)
        rounds = t.column("rounds measured")
        assert rounds[0] == rounds[1]
        assert all(t.column("maximal packing"))
        # the per-n kernel crosses a process boundary unchanged
        assert run_n_sweep(ns=[8, 16], degree=3, n_workers=2).rows == t.rows

    def test_delta_sweep_monotone(self):
        from repro.experiments.exp_theorem1 import run_delta_sweep

        t = run_delta_sweep(deltas=[1, 2, 4])
        rounds = t.column("rounds measured")
        assert rounds == sorted(rounds)
        assert rounds[0] < rounds[-1]

    def test_w_sweep_logstar_growth(self):
        from repro.experiments.exp_theorem1 import run_w_sweep

        t = run_w_sweep(exponents=[0, 16, 256], n=8)
        rounds = t.column("rounds measured")
        assert rounds == sorted(rounds)
        # log*-like: going from W=1 to W=2^256 adds only a handful
        assert rounds[-1] - rounds[0] <= 8


class TestApproxExperiment:
    def test_runs_and_holds(self):
        from repro.experiments.exp_approx import run

        t = run()
        ratios = t.column("ratio")
        assert all(r <= 2 for r in ratios)
        assert any(r > 1 for r in ratios)  # approximation, not exact
        certs = t.column("certificate w(C)/2Σy")
        assert all(c <= 1 for c in certs)


class TestTheorem2Experiments:
    def test_fk_grid(self):
        from repro.experiments.exp_theorem2 import run_fk_grid

        t = run_fk_grid(max_f=2, max_k=2)
        assert all(t.column("f-approx holds"))
        measured = t.column("rounds measured")
        formula = t.column("rounds formula")
        assert measured == formula

    def test_n_sweep(self):
        from repro.experiments.exp_theorem2 import run_n_sweep

        t = run_n_sweep(sizes=[4, 8])
        assert len(set(t.column("rounds measured"))) == 1


class TestFigureExperiments:
    def test_figure1_asserts_paper_values(self):
        from repro.experiments.exp_figure1 import run

        t = run()
        assert all(t.column("matches"))

    def test_figure2_invariant(self):
        from repro.experiments.exp_figure2 import run

        t = run()
        assert all(t.column("weak colouring"))

    def test_figure3_tightness(self):
        from repro.experiments.exp_figure3 import run

        t = run(ps=[2, 3])
        assert all(t.column("lower bound tight"))
        assert t.column("f-approx ratio") == [2.0, 3.0]

    def test_figure4_reduction(self):
        from repro.experiments.exp_figure4 import run_reduction, run_lemma4

        t = run_reduction(cases=[(8, 2)])
        assert all(t.column("IS valid"))
        t2 = run_lemma4(n=30)
        assert t2.column("IS size")[1] == 1


class TestSection5Experiment:
    def test_equivalence_and_growth(self):
        from repro.experiments.exp_section5 import run

        t = run()
        assert all(m in (True, None) for m in t.column("cover == direct run"))
        assert all(g > 10 for g in t.column("growth factor"))

    def test_replay_modes_produce_identical_tables(self):
        from repro.experiments.exp_section5 import run

        assert run(replay="scratch").rows == run(replay="incremental").rows

    def test_sweep_workers_and_large_case(self):
        """The sweep port: process-pooled execution and the large-n case
        (shrunk to keep the smoke test fast) match the serial run."""
        from repro.experiments.exp_section5 import run

        serial = run()
        pooled = run(n_workers=3, include_large=True, large_n=16)
        assert len(pooled.rows) == len(serial.rows) + 1
        for a, b in zip(serial.rows, pooled.rows):
            assert a == b
        large = pooled.rows[-1]
        assert large["instance"] == "cycle16/large"
        assert large["cover valid"]
        # same Δ/W as cycle5 -> identical round count at any n
        assert large["rounds measured"] == pooled.rows[1]["rounds measured"]
        assert large["growth factor"] > 10


class TestSymmetryExperiment:
    def test_invariance_fast_subset(self):
        from repro.experiments.exp_symmetry import run

        t = run(include_slow=False)
        assert all(t.column("broadcast auto-invariant"))


class TestSelfStabExperiment:
    def test_recovery(self):
        from repro.experiments.exp_selfstab import run

        t = run(rates=[0.0, 0.4], n=5)
        assert all(t.column("recovered within T"))

    def test_sweep_pool_and_replay_modes_agree(self):
        """The per-rate sweep in both replay modes — identical tables.
        (It runs serially: the fault adversaries' corruption counters
        are parent-side effects a worker process would keep.)"""
        from repro.experiments.exp_selfstab import run

        scratch = run(rates=[0.0, 0.3], n=5, replay="scratch")
        incremental = run(rates=[0.0, 0.3], n=5, replay="incremental")
        assert incremental.rows == scratch.rows

    def test_all_fault_kinds_recover(self):
        """The message-level and crash adversaries, not just state
        corruption: one row per (kind, rate), all recovered within T."""
        from repro.experiments.exp_selfstab import ACTIVE_FAULT_KINDS, run

        t = run(rates=[0.3], n=5)
        assert t.column("fault kind") == list(ACTIVE_FAULT_KINDS)
        assert all(t.column("recovered within T"))
        # every adversary actually did something at rate 0.3
        assert all(c > 0 for c in t.column("corruptions injected"))

    def test_fault_kind_subset_selectable(self):
        from repro.experiments.exp_selfstab import run

        t = run(rates=[0.0, 0.3], n=5, fault_kinds=["loss", "crash"])
        assert t.column("fault kind") == ["loss", "loss", "crash", "crash"]
        assert all(t.column("recovered within T"))


class TestPerfExperiment:
    def test_runs(self):
        from repro.experiments.exp_perf import run

        t = run(sizes=[16, 32])
        assert all(v > 0 for v in t.column("node-rounds/s"))


class TestCli:
    def test_list(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "figure3" in out

    def test_unknown_experiment(self, capsys):
        from repro.experiments.cli import main

        assert main(["bogus"]) == 2

    def test_run_one(self, capsys):
        from repro.experiments.cli import main

        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "EXP-F2" in out

    def test_markdown_mode(self, capsys):
        from repro.experiments.cli import main

        assert main(["figure2", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "### EXP-F2" in out

    def test_fault_kinds_forwarded_to_selfstab(self, capsys):
        from repro.experiments.cli import main

        assert main(["selfstab", "--fault-kinds", "loss"]) == 0
        out = capsys.readouterr().out
        assert "loss" in out
        assert "duplication" not in out

    def test_bad_fault_kinds_rejected(self, capsys):
        from repro.experiments.cli import main

        assert main(["selfstab", "--fault-kinds", "meteor"]) == 2
        assert "unknown fault kinds" in capsys.readouterr().err


class TestMessagesExperiment:
    def test_tradeoffs_quantified(self):
        from repro.experiments.exp_messages import run

        t = run(n=6)
        bits = t.column("total kbits")
        # broadcast history and selfstab pipeline both cost more than §3
        assert bits[1] > bits[0]
        assert bits[2] > bits[0]
        rounds = t.column("rounds")
        assert rounds[0] == rounds[2]  # selfstab window == schedule length

    def test_sweep_workers_and_large_case(self):
        """Thread-pooled sweep matches serial, and the large-n rows
        (shrunk for the smoke test) show the same trade-off ordering."""
        from repro.experiments.exp_messages import run

        serial = run(n=6)
        pooled = run(n=6, n_workers=3, include_large=True, large_n=12)
        assert len(pooled.rows) == 6
        for a, b in zip(serial.rows, pooled.rows[:3]):
            assert a == b
        large = pooled.rows[3:]
        assert {r["instance"] for r in large} == {"cycle12"}
        assert large[1]["total kbits"] > large[0]["total kbits"]
        assert large[2]["total kbits"] > large[0]["total kbits"]
        # per-node message load of §5 grows with history length, not n:
        # rounds are identical across sizes at equal Δ, W
        assert large[1]["rounds"] == pooled.rows[1]["rounds"]


class TestScalingExperiment:
    def test_rounds_flat_messages_linear(self):
        from repro.experiments.exp_scaling import run

        t = run(ns=[32, 64])
        by_proto = {}
        for row in t.rows:
            by_proto.setdefault(row["protocol"], []).append(row)
        assert len(by_proto) == 2
        for rows in by_proto.values():
            assert len({r["rounds"] for r in rows}) == 1
            assert len({r["messages / n"] for r in rows}) == 1

    def test_process_backend_matches_serial(self):
        from repro.experiments.exp_scaling import run

        serial = run(ns=[24, 48])
        pooled = run(ns=[24, 48], n_workers=2)
        assert serial.rows == pooled.rows

    def test_figure_data_shape(self, tmp_path):
        from repro.experiments.exp_scaling import figure_data, run, write_figure

        t = run(ns=[16, 32])
        fig = figure_data(t)
        assert set(fig["curves"]) == {
            "§3 edge packing (G)",
            "§4 fractional packing (H(G))",
        }
        for curve in fig["curves"].values():
            assert curve["n"] == [16, 32]
            assert len(curve["rounds"]) == len(curve["messages"]) == 2
        out = write_figure(t, tmp_path / "fig.json")
        import json

        assert json.loads(out.read_text())["x_axis"] == "n"


class TestCliBackendFlags:
    def test_workers_and_backend_forwarded(self, capsys):
        from repro.experiments.cli import main

        assert main(["scaling", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "EXP-SCALE" in out
        # --workers always means processes: there is no --backend
        with pytest.raises(SystemExit):
            main(["scaling", "--workers", "2", "--backend", "process"])

    def test_json_output_parses(self, capsys):
        import json

        from repro.experiments.cli import main

        assert main(["scaling", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records[0]["experiment"] == "scaling"
        assert records[0]["experiment_id"] == "EXP-SCALE"
        assert records[0]["rows"][0]["rounds"] == 27

    def test_backend_ignored_by_experiments_without_sweeps(self, capsys):
        from repro.experiments.cli import main

        # figure2 and selfstab take no n_workers; the flag is a no-op,
        # and each says so on stderr (stdout stays the tables alone)
        assert main(["figure2", "selfstab", "--workers", "2"]) == 0
        captured = capsys.readouterr()
        assert "EXP-F2" in captured.out and "EXP-SS" in captured.out
        assert "ignoring" not in captured.out
        assert captured.err.splitlines() == [
            "figure2: ignoring --workers",
            "selfstab: ignoring --workers",
        ]


class TestChurnExperiment:
    def test_quality_and_repaired_fraction(self):
        from repro.experiments.exp_churn import run

        t = run(rates=[1, 3], n=96, batches=3)
        assert len(t.rows) == 2
        for row in t.rows:
            assert row["covers valid"] is True
            assert row["incremental == scratch"] is True
            assert 0.0 < row["mean repaired fraction"] <= 1.0
        assert any("HOLDS" in note for note in t.notes)

    def test_process_backend_matches_serial(self):
        from repro.experiments.exp_churn import run

        serial = run(rates=[1, 2], n=64, batches=2)
        pooled = run(rates=[1, 2], n=64, batches=2, n_workers=2)

        def algorithmic(rows):
            # latency columns are wall clock — everything else must be
            # bit-identical between serial and pooled execution
            return [
                {k: v for k, v in row.items() if "latency" not in k}
                for row in rows
            ]

        assert algorithmic(serial.rows) == algorithmic(pooled.rows)

    def test_registered_in_cli(self, capsys):
        from repro.experiments.cli import main

        assert main(["churn", "--workers", "2"]) == 0
        assert "EXP-CHURN" in capsys.readouterr().out
