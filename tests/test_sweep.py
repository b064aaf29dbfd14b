"""Sweep grids, the parallel runner, sweep files, and their CLI."""

import json

import pytest

from repro.errors import ConfigurationError, SweepCellError
from repro.scenarios import normalize_spec
from repro.scenarios import testbed_spec as make_testbed_spec
from repro.sweep import (
    apply_overrides,
    build_cells,
    derive_cell_seed,
    expand_axes,
    load_sweep_file,
    parallel_map,
    run_sweep,
    sweep_summary_path,
)

SMALL_CONFIG = {
    "name": "unit",
    "base": {"preset": "testbed"},
    "slots": 12,
    "seed": 7,
    "compare": False,
    "axes": {
        "supply.ups_oversubscription": [1.0, 1.05],
        "time.slot_seconds": [60, 120],
    },
}


class TestGrid:
    def test_expand_axes_order_first_axis_slowest(self):
        cells = expand_axes({"a.x": [1, 2], "b.y": ["u", "v"]})
        assert cells == [
            {"a.x": 1, "b.y": "u"},
            {"a.x": 1, "b.y": "v"},
            {"a.x": 2, "b.y": "u"},
            {"a.x": 2, "b.y": "v"},
        ]

    def test_expand_empty_grid_is_single_base_cell(self):
        assert expand_axes({}) == [{}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            expand_axes({"a.x": []})

    def test_apply_override_sets_value(self):
        spec = normalize_spec(make_testbed_spec())
        out = apply_overrides(spec, {"supply.ups_oversubscription": 1.2})
        assert out["supply"]["ups_oversubscription"] == 1.2
        # Original untouched.
        assert spec["supply"]["ups_oversubscription"] == 1.05

    def test_apply_override_indexes_lists(self):
        spec = normalize_spec(make_testbed_spec())
        out = apply_overrides(spec, {"topology.pdus.1.oversubscription": 1.3})
        assert out["topology"]["pdus"][1]["oversubscription"] == 1.3

    def test_unknown_field_fails_with_pointer(self):
        spec = normalize_spec(make_testbed_spec())
        with pytest.raises(ConfigurationError, match="/supply/nope"):
            apply_overrides(spec, {"supply.nope": 1.0})

    def test_bad_list_index_fails(self):
        spec = normalize_spec(make_testbed_spec())
        with pytest.raises(ConfigurationError, match="index a list"):
            apply_overrides(spec, {"topology.pdus.9.oversubscription": 1.3})

    def test_override_value_revalidated(self):
        spec = normalize_spec(make_testbed_spec())
        with pytest.raises(ConfigurationError, match="/time/slot_seconds"):
            apply_overrides(spec, {"time.slot_seconds": -60})

    def test_cell_seed_deterministic_and_decorrelated(self):
        a = derive_cell_seed(7, {"x": 1})
        assert a == derive_cell_seed(7, {"x": 1})
        assert a != derive_cell_seed(7, {"x": 2})
        assert a != derive_cell_seed(8, {"x": 1})
        # Empty overrides keep the base seed: 1-cell sweep == plain run.
        assert derive_cell_seed(7, {}) == 7

    def test_build_cells_applies_seed_to_spec(self):
        cells = build_cells(make_testbed_spec(), SMALL_CONFIG["axes"], base_seed=7)
        assert len(cells) == 4
        for cell in cells:
            assert cell.spec["seed"] == cell.seed


class TestRunner:
    def test_parallel_map_matches_serial(self):
        items = list(range(7))
        assert parallel_map(_square, items, jobs=3) == [x * x for x in items]

    def test_results_identical_across_job_counts(self):
        serial = run_sweep(SMALL_CONFIG, jobs=1)
        parallel = run_sweep(SMALL_CONFIG, jobs=2)
        assert serial == parallel

    def test_envelope_written_and_valid(self, tmp_path):
        from repro.telemetry.exporters import validate_summary_file

        run_sweep(SMALL_CONFIG, jobs=1, out_dir=tmp_path)
        path = sweep_summary_path(tmp_path, "unit")
        assert path.exists()
        validate_summary_file(path)
        envelope = json.loads(path.read_text())
        assert envelope["bench"] == "sweep_unit"
        assert envelope["meta"]["cell_count"] == 4
        assert len(envelope["data"]["cells"]) == 4

    def test_base_must_be_exactly_one_form(self):
        config = dict(SMALL_CONFIG, base={})
        with pytest.raises(ConfigurationError, match="exactly one"):
            run_sweep(config)
        config = dict(
            SMALL_CONFIG, base={"preset": "testbed", "spec": {"spec_version": 1}}
        )
        with pytest.raises(ConfigurationError, match="exactly one"):
            run_sweep(config)

    def test_args_only_with_preset(self):
        config = dict(
            SMALL_CONFIG,
            base={"spec": normalize_spec(make_testbed_spec()), "args": {"x": 1}},
        )
        with pytest.raises(ConfigurationError, match="/base/args"):
            run_sweep(config)


def _square(x):
    return x * x


class TestCellFailure:
    # The absurd subscription passes spec validation but dies inside the
    # worker (`run_simulation` rejects a valuation with no marginal
    # value) — a genuine worker-side failure, not a parent-side one.
    FAILING_CONFIG = {
        "name": "failing",
        "base": {"preset": "testbed"},
        "slots": 5,
        "seed": 7,
        "compare": False,
        "axes": {
            "demand.tenants.0.subscription_w": [125.0, 1e12],
            "time.slot_seconds": [60, 120],
        },
    }

    def test_failure_surfaces_with_overrides_attached(self):
        with pytest.raises(SweepCellError) as exc:
            run_sweep(self.FAILING_CONFIG, jobs=1)
        err = exc.value
        assert err.index == 2  # first axis slowest: cells 2 and 3 fail
        assert err.overrides["demand.tenants.0.subscription_w"] == 1e12
        assert "ConfigurationError" in str(err)

    def test_remaining_cells_complete_before_the_raise(self):
        # Both bad cells are reported, which is only possible if the
        # grid ran to completion instead of aborting at the first
        # failure; the healthy cells' work is likewise not lost.
        with pytest.raises(SweepCellError, match=r"\+1 more failing cell"):
            run_sweep(self.FAILING_CONFIG, jobs=1)

    def test_which_cell_fails_is_jobs_independent(self):
        def failure(jobs):
            with pytest.raises(SweepCellError) as exc:
                run_sweep(self.FAILING_CONFIG, jobs=jobs)
            return (exc.value.index, exc.value.overrides, str(exc.value))

        assert failure(1) == failure(2)


class TestSweepFiles:
    def test_json_sweep_file_loads(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(SMALL_CONFIG))
        config = load_sweep_file(path)
        assert config["name"] == "unit"

    def test_base_file_resolved_relative_to_sweep_file(self, tmp_path):
        from repro.scenarios import dump_spec

        (tmp_path / "base.json").write_text(dump_spec(make_testbed_spec()))
        sweep = dict(SMALL_CONFIG, base={"file": "base.json"})
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep))
        config = load_sweep_file(path)
        assert config["base"]["file"] == str((tmp_path / "base.json").resolve())
        data = run_sweep(dict(config, axes={}, slots=5))
        assert len(data["cells"]) == 1

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, bogus=1)))
        with pytest.raises(ConfigurationError, match="bogus"):
            load_sweep_file(path)

    def test_example_sweep_files_validate(self):
        import pathlib

        pytest.importorskip("yaml")
        examples = pathlib.Path(__file__).parent.parent / "examples" / "scenarios"
        for name in (
            "sweep_smoke.yaml",
            "sweep_oversubscription.yaml",
            "sweep_edr.yaml",
            "sweep_prediction_risk.yaml",
        ):
            config = load_sweep_file(examples / name)
            assert config["axes"]


class TestCli:
    def test_scenario_validate_example(self, capsys):
        import pathlib

        from repro.cli import main

        example = (
            pathlib.Path(__file__).parent.parent
            / "examples"
            / "scenarios"
            / "testbed.json"
        )
        assert main(["scenario", "validate", str(example)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_scenario_show_is_canonical(self, capsys):
        import pathlib

        from repro.cli import main
        from repro.scenarios import dump_spec

        assert main(["scenario", "show", "--preset", "testbed"]) == 0
        assert capsys.readouterr().out == dump_spec(make_testbed_spec())
        example = (
            pathlib.Path(__file__).parent.parent
            / "examples"
            / "scenarios"
            / "testbed.json"
        )
        assert example.read_text() == dump_spec(make_testbed_spec())

    def test_scenario_validate_rejects_bad_file(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"spec_version": 1}))
        assert main(["scenario", "validate", str(bad)]) == 2
        assert "invalid scenario" in capsys.readouterr().err

    def test_scenario_needs_file_or_preset(self, capsys):
        from repro.cli import main

        assert main(["scenario", "validate"]) == 2

    def test_sweep_run_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, slots=5)))
        assert main(
            ["sweep", "run", str(path), "--jobs", "2", "--out", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "4 cells" in out
        assert (tmp_path / "BENCH_sweep_unit.json").exists()
