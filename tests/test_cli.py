"""Command-line interface."""

import pytest

from repro.cli import EXPERIMENT_REGISTRY, build_parser, main


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENT_REGISTRY:
            assert name in out

    def test_registry_covers_all_figures(self):
        expected = {
            "table1", "fig02", "fig07", "fig08", "fig09", "fig10",
            "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
            "fig17", "fig18", "ablations", "equilibrium", "resilience",
            "prediction-risk", "edr",
        }
        assert set(EXPERIMENT_REGISTRY) == expected


class TestRun:
    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Search-1" in out
        assert "UPS" in out

    def test_run_fig08(self, capsys):
        assert main(["run", "fig08"]) == 0
        assert "p99" in capsys.readouterr().out

    def test_run_fig12_with_options(self, capsys):
        assert main(["run", "fig12", "--slots", "300", "--seed", "5"]) == 0
        assert "operator" in capsys.readouterr().out

    def test_unknown_target_errors(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_seed_defaults_when_omitted(self, capsys):
        assert main(["run", "table1"]) == 0


class TestCompare:
    def test_compare_prints_summary(self, capsys):
        assert main(["compare", "--slots", "300"]) == 0
        out = capsys.readouterr().out
        assert "SpotDC" in out
        assert "profit increase" in out


class TestBadScenarioFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--clearing-deadline", "0"],
            ["simulate", "--fault-profile", "comm", "--fault-intensity", "2"],
            ["simulate", "--crash-at", "-1"],
            ["serve", "--crash-at", "-1"],
            ["compare", "--fault-profile", "comm", "--fault-intensity", "2"],
        ],
        ids=[
            "simulate-clearing-deadline",
            "simulate-fault-intensity",
            "simulate-crash-at",
            "serve-crash-at",
            "compare-fault-intensity",
        ],
    )
    def test_exits_2_with_one_line(self, argv, tmp_path, capsys):
        if argv[0] == "serve":
            argv = argv + ["--state-dir", str(tmp_path), "--socket", "s.sock"]
        assert main(argv + ["--slots", "5"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err


class TestSimulateProfile:
    def test_prints_the_phase_table(self, capsys):
        assert main(["simulate", "--profile", "--slots", "5"]) == 0
        out = capsys.readouterr().out
        table = out[out.index("phase"):].splitlines()
        counts = {line.split()[0]: line.split()[1] for line in table[1:]}
        assert counts["clear"] == counts["slot"] == "5"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])
