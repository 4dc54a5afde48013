"""CLI smoke tests: `list`, `describe` for every registered experiment,
one tiny `run fig2` end-to-end (fan-out flags + cache resume), a
`run multiseed` over two workers, a three-job `run city_sweep` over two workers,
and the read-only `queue stats <dir>`.

This is the CI smoke job (run under pytest-timeout): it pins that the
generic spec-driven CLI stays wired — every experiment is listable,
describable, and runnable with the shared --workers/--queue-dir/--resume
flags.
"""

import json

import pytest

from repro.experiments.api import experiment_names, get_experiment
from repro.experiments.run import main


class TestListAndDescribe:
    def test_list_names_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in experiment_names():
            assert name in out

    @pytest.mark.parametrize("name", experiment_names())
    def test_describe_prints_schema(self, name, capsys):
        assert main(["describe", name]) == 0
        out = capsys.readouterr().out
        assert name in out
        spec = get_experiment(name)
        assert spec.result_type.__name__ in out
        for param in spec.params:
            assert param.name in out

    def test_describe_unknown_experiment_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["describe", "fig9"])
        assert "unknown experiment" in capsys.readouterr().err


class TestRunEndToEnd:
    def test_tiny_fig2_run_with_cache_resume(self, tmp_path, capsys):
        argv = [
            "run", "fig2",
            "--param", "episodes=2",
            "--workers", "1",
            "--resume",
            "--queue-dir", str(tmp_path / "queue"),
            "--output", str(tmp_path / "out"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out
        assert "1 job(s) executed, 0 from cache" in out
        payload = json.loads((tmp_path / "out" / "fig2.json").read_text())
        result = get_experiment("fig2").result_from_payload(payload)
        assert len(result.episode_returns) == 2
        # Rerun: the training must come back from the cache, not retrain,
        # and assemble the identical result.
        assert main(argv) == 0
        resumed_out = capsys.readouterr().out
        assert "0 job(s) executed, 1 from cache" in resumed_out
        resumed = get_experiment("fig2").result_from_payload(
            json.loads((tmp_path / "out" / "fig2.json").read_text())
        )
        assert resumed == result

    def test_multiseed_seeds_over_workers(self, tmp_path, capsys):
        """`run multiseed --workers 2` fans the seeds' DRL trainings out
        as two market_scheme jobs (the seeds-axis comparison has no
        subcommand of its own)."""
        argv = [
            "run", "multiseed",
            "--workers", "2",
            "--param", "preset=smoke",
            "--param", "seeds=0,1",
            "--output", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Multi-seed comparison" in out
        assert "2 job(s) executed, 0 from cache" in out
        result = get_experiment("multiseed").result_from_payload(
            json.loads((tmp_path / "multiseed.json").read_text())
        )
        assert result.seeds == (0, 1)
        assert sorted(result.samples) == ["drl", "random"]

    def test_city_sweep_jobs_over_workers_write_the_in_process_bytes(
        self, tmp_path, capsys
    ):
        """2100 markets are three ``city_chunk`` jobs (1024 + 1024 + 52);
        spread over two workers they write the in-process run's JSON."""
        outputs = {}
        for mode, flags in (("inline", []), ("workers", ["--workers", "2"])):
            argv = ["run", "city_sweep", "--param", "m=2100", *flags]
            assert main([*argv, "--output", str(tmp_path / mode)]) == 0
            outputs[mode] = (tmp_path / mode / "city_sweep.json").read_bytes()
        assert "3 job(s) executed, 0 from cache" in capsys.readouterr().out
        assert outputs["workers"] == outputs["inline"]
        assert json.loads(outputs["inline"])["chunk_markets"] == 1024

    def test_legacy_figure_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--figure", "fig2"])
        assert exited.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_cheap_sweep_runs_without_scheduler_flags(self, capsys):
        assert main(
            ["run", "distance_sweep", "--param", "distances_m=500,1000"]
        ) == 0
        assert "RSU separation" in capsys.readouterr().out

    def test_run_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig9"])
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_rejects_unknown_param(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig2", "--param", "episodess=2"])
        err = capsys.readouterr().err
        assert "episodess" in err

    def test_run_rejects_malformed_param(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig2", "--param", "episodes"])
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_run_rejects_bad_workers(self):
        with pytest.raises(SystemExit):
            main(["run", "welfare", "--workers", "0"])

    def test_run_domain_validation_is_clean_cli_error(self, capsys):
        """Spec-level ValueErrors (bad draws/seeds/schemes) must exit as
        parser errors on the generic path, not raw tracebacks."""
        with pytest.raises(SystemExit):
            main(["run", "fading_sweep", "--param", "draws=1"])
        assert "draws" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["run", "multiseed", "--param", "seeds=0"])
        assert "seeds" in capsys.readouterr().err

    def test_removed_shards_param_is_clean_cli_error(self, capsys):
        """`shards` is no longer a multiseed parameter; an old command
        line exits as a parser error naming it, not a traceback."""
        with pytest.raises(SystemExit) as raised:
            main(["run", "multiseed", "--param", "shards=2"])
        assert raised.value.code == 2
        assert "shards" in capsys.readouterr().err


class TestQueueStats:
    def test_counts_a_queue_directory(self, tmp_path, capsys):
        from repro.experiments.scheduler import Job
        from repro.queue import JobQueue

        queue = JobQueue(tmp_path / "queue")
        for n in range(3):
            queue.enqueue(Job("welfare_report", {"n": n}))
        queue.lease("w1")
        assert main(["queue", "stats", str(queue.root)]) == 0
        lines = capsys.readouterr().out.splitlines()
        counts = dict(line.split() for line in lines[1:])
        assert counts == {
            "pending": "2",
            "leased": "1",
            "stored": "0",
            "workers": "1",
            "quarantined": "0",
        }

    def test_missing_directory_fails_and_creates_nothing(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "no-queue"
        with pytest.raises(SystemExit) as info:
            main(["queue", "stats", str(missing)])
        assert info.value.code != 0
        assert "not a queue directory" in capsys.readouterr().err
        assert not missing.exists()
        assert list(tmp_path.iterdir()) == []
