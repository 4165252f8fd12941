"""Tests for the glove-repro experiment runner."""

import io

import pytest

from repro.core.artifacts import ArtifactStore
from repro.core.pipeline import Pipeline
from repro.experiments.runner import (
    EXPERIMENTS,
    build_parser,
    main,
    run_experiments,
)


class TestRunExperiments:
    def test_runs_and_prints(self, tmp_path):
        stream = io.StringIO()
        reports = run_experiments(
            ["fig4"], n_users=24, days=1, seed=3, stream=stream
        )
        assert "fig4" in reports
        out = stream.getvalue()
        assert "uniform spatiotemporal generalization" in out
        assert "completed in" in out

    def test_saves_artifacts(self, tmp_path):
        stream = io.StringIO()
        run_experiments(
            ["fig4"], n_users=24, days=1, seed=3, stream=stream, output=str(tmp_path)
        )
        assert (tmp_path / "fig4.txt").exists()
        assert (tmp_path / "fig4.json").exists()
        assert "artifacts:" in stream.getvalue()

    def test_every_registered_experiment_accepts_standard_args(self):
        # The registry contract: every run() takes (n_users, days, seed).
        import inspect

        for name, fn in EXPERIMENTS.items():
            params = inspect.signature(fn).parameters
            assert {"n_users", "days", "seed"} <= set(params), name


class TestParser:
    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["-e", "fig99"])
        assert exc.value.code == 2

    def test_rejects_unknown_scenario(self):
        for argv in (["--scenario", "warp-speed"], ["--backend", "process"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2

    def test_output_flag(self):
        args = build_parser().parse_args(["-o", "somewhere"])
        assert args.output == "somewhere"

    def test_pipeline_flags(self):
        args = build_parser().parse_args(["--artifact-dir", "x", "--no-cache"])
        assert args.artifact_dir == "x"
        assert args.no_cache


class TestList:
    def test_list_exits_zero_and_prints_registries(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "experiments:" in out
        assert "fig3" in out
        assert "scenarios:" in out
        assert "suite" in out
        assert "synth-civ" in out

    def test_unknown_experiment_exits_two_through_main(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-e", "fig99"])
        assert exc.value.code == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestScenarioResolution:
    def test_scenario_scale_with_flag_overrides(self):
        # --scenario fills the scale; explicit flags take precedence.
        import repro.experiments.runner as runner_mod

        recorded = {}

        def fake_run(names, n_users, days, seed, **kwargs):
            recorded.update(names=names, n_users=n_users, days=days, seed=seed)
            return {}

        original = runner_mod.run_experiments
        runner_mod.run_experiments = fake_run
        try:
            assert main(["--scenario", "smoke", "-e", "fig4", "-n", "16"]) == 0
        finally:
            runner_mod.run_experiments = original
        assert recorded["names"] == ["fig4"]
        assert recorded["n_users"] == 16  # explicit flag wins
        assert recorded["days"] == 2  # from the smoke scenario
        assert recorded["seed"] == 4  # from the smoke scenario

    def test_suite_scenario_supplies_experiments(self):
        import repro.experiments.runner as runner_mod

        recorded = {}

        def fake_run(names, n_users, days, seed, **kwargs):
            recorded.update(names=names)
            return {}

        original = runner_mod.run_experiments
        runner_mod.run_experiments = fake_run
        try:
            assert main(["--scenario", "suite"]) == 0
        finally:
            runner_mod.run_experiments = original
        assert recorded["names"] == ["fig3", "fig8", "table2"]


class TestComputeOnceAcceptance:
    """The PR's acceptance criterion: one synthesis per dataset key."""

    def test_suite_synthesizes_each_dataset_exactly_once(self):
        # fig3 needs synth-civ and synth-sen (the latter twice in the
        # module), fig8 needs synth-civ again, table2 needs all four
        # presets twice (k=2 and k=5): without the pipeline that is ten
        # synthesize() calls; with it, exactly one per unique key.
        pipeline = Pipeline(ArtifactStore(root=None))
        run_experiments(
            ["fig3", "fig8", "table2"],
            n_users=40,
            days=2,
            seed=0,
            stream=io.StringIO(),
            pipeline=pipeline,
        )
        stats = pipeline.stats["dataset"]
        assert len(stats.computed_labels) == 4  # civ, sen, abidjan, dakar
        assert all(count == 1 for count in stats.computed_labels.values())
        assert stats.hits > 0
        # GLOVE runs are shared across experiments too: fig8's k=2 run
        # on synth-civ is the same artifact as table2's.
        glove_stats = pipeline.stats["glove"]
        assert glove_stats.hits > 0
        assert all(count == 1 for count in glove_stats.computed_labels.values())

    def test_cache_off_reports_byte_identical(self):
        cached = run_experiments(
            ["fig3"],
            n_users=24,
            days=1,
            seed=3,
            stream=io.StringIO(),
            pipeline=Pipeline(ArtifactStore(root=None)),
        )
        fresh = run_experiments(
            ["fig3"],
            n_users=24,
            days=1,
            seed=3,
            stream=io.StringIO(),
            pipeline=Pipeline(ArtifactStore(root=None), enabled=False),
        )
        assert cached["fig3"].render() == fresh["fig3"].render()
