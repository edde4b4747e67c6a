"""CLI dispatch (fast paths only — heavy experiments run in benchmarks)."""

import pytest

import repro.experiments.registry as registry
from repro.cli import build_parser, main
from repro.eval.engine import AttackRecord, SuiteResult


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table3"])
        assert args.dataset == "digits"
        assert args.preset == "fast"
        assert args.seed == 0
        assert args.cache_dir is None

    def test_dataset_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table3", "--dataset", "imagenet"])

    def test_preset_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table3", "--preset", "huge"])

    def test_backend_choices_enforced(self):
        args = build_parser().parse_args(["table3", "--backend", "fast"])
        assert args.backend == "fast"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table3", "--backend", "cupy"])

    def test_eval_suite_options(self):
        args = build_parser().parse_args(
            ["eval-suite", "--defense", "pgd-adv", "--attacks", "fgsm,pgd",
             "--cache-dir", "/tmp/adv", "--no-early-stop"])
        assert args.defense == "pgd-adv"
        assert args.attacks == "fgsm,pgd"
        assert args.cache_dir == "/tmp/adv"
        assert args.no_early_stop is True

    def test_eval_suite_defense_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["eval-suite", "--defense", "magic"])

    def test_eval_suite_help_documents_engine(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        assert "eval-suite" in out
        assert "early stopping" in out


class TestDispatch:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "figure5-convergence" in out
        assert "eval-suite" in out

    def test_unknown_experiment(self, capsys):
        assert main(["table9"]) == 2

    def test_eval_suite_renders_suite_result(self, capsys, monkeypatch):
        fake = SuiteResult(model_name="vanilla", dataset="digits",
                           clean_accuracy=0.9)
        fake.records.append(AttackRecord(attack="fgsm", accuracy=0.25,
                                         seconds=0.5, from_cache=True,
                                         flipped=10, evaluated=16))
        captured = {}

        def stub_runner(dataset, **kwargs):
            captured.update(kwargs, dataset=dataset)
            return fake

        monkeypatch.setitem(
            registry.REGISTRY, "eval-suite",
            registry.Experiment(artifact="evaluation engine",
                                description="stub", runner=stub_runner))
        assert main(["eval-suite", "--defense", "vanilla",
                     "--attacks", "fgsm", "--cache-dir", "/tmp/adv"]) == 0
        out = capsys.readouterr().out
        assert "vanilla" in out
        assert "fgsm" in out
        assert "1 of 1 attacks from cache" in out
        assert captured["defense"] == "vanilla"
        assert captured["attack_names"] == ["fgsm"]
        assert captured["cache_dir"] == "/tmp/adv"
        assert captured["early_stop"] is True

    def test_eval_suite_unknown_attack_is_error(self, capsys, monkeypatch):
        def raising_runner(dataset, **kwargs):
            raise KeyError("unknown attacks ['warp']")

        monkeypatch.setitem(
            registry.REGISTRY, "eval-suite",
            registry.Experiment(artifact="evaluation engine",
                                description="stub", runner=raising_runner))
        assert main(["eval-suite", "--attacks", "warp"]) == 2


class TestTrainCommand:
    def test_train_options_parse(self):
        args = build_parser().parse_args(
            ["train", "--defense", "gandef", "--dataset", "objects",
             "--checkpoint-dir", "/tmp/ck", "--resume",
             "--probe-every", "2", "--epochs", "8"])
        assert args.defense == "gandef"
        assert args.checkpoint_dir == "/tmp/ck"
        assert args.resume is True
        assert args.probe_every == 2
        assert args.epochs == 8

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.checkpoint_dir is None
        assert args.resume is False
        assert args.probe_every is None
        assert args.epochs is None

    def test_train_dispatch(self, capsys, monkeypatch):
        from repro.defenses.base import TrainingHistory
        from repro.experiments.train_run import TrainRunResult

        captured = {}

        def stub_runner(dataset, **kwargs):
            captured.update(kwargs, dataset=dataset)
            return TrainRunResult(
                defense="zk-gandef", dataset=dataset,
                history=TrainingHistory(losses=[1.5, 1.0],
                                        epoch_seconds=[2.0, 2.0]),
                completed_epochs=2, resumed_from=1,
                checkpoint_path="/tmp/ck/checkpoint.npz",
                metrics_path="/tmp/ck/metrics.jsonl")

        monkeypatch.setitem(
            registry.REGISTRY, "train",
            registry.Experiment(artifact="training subsystem",
                                description="stub", runner=stub_runner))
        assert main(["train", "--defense", "gandef", "--dataset", "objects",
                     "--checkpoint-dir", "/tmp/ck", "--resume",
                     "--probe-every", "2"]) == 0
        out = capsys.readouterr().out
        assert "resumed from 1" in out
        assert "checkpoint.npz" in out
        assert captured["defense"] == "gandef"
        assert captured["checkpoint_dir"] == "/tmp/ck"
        assert captured["resume"] is True
        assert captured["probe_every"] == 2

    def test_train_flags_flagged_when_inapplicable(self, capsys,
                                                   monkeypatch):
        def stub_runner(dataset, **kwargs):
            return {}

        monkeypatch.setitem(
            registry.REGISTRY, "table3",
            registry.Experiment(artifact="t3", description="stub",
                                runner=stub_runner))
        main(["table3", "--probe-every", "3"])
        out = capsys.readouterr().out
        assert "--probe-every" in out
        assert "ignored" in out

    def test_resume_without_checkpoint_dir_is_error(self, capsys):
        assert main(["train", "--resume"]) == 2
        assert "checkpoint" in capsys.readouterr().out.lower()

    def test_figure5_resume_without_dir_is_error(self, capsys):
        assert main(["figure5-time", "--resume"]) == 2
        assert "resume requires" in capsys.readouterr().out


class TestServeHttpCommand:
    def test_serve_http_options_parse(self):
        args = build_parser().parse_args(
            ["serve-http", "--host", "0.0.0.0", "--port", "8080",
             "--api-keys", "a:1,b:2", "--rate", "200", "--burst", "50",
             "--queue-limit", "64", "--procs", "2",
             "--target-rps", "100", "--requests", "0"])
        assert args.host == "0.0.0.0" and args.port == 8080
        assert args.api_keys == "a:1,b:2"
        assert args.rate == 200.0 and args.burst == 50.0
        assert args.queue_limit == 64 and args.procs == 2
        assert args.target_rps == 100.0 and args.requests == 0

    def test_serve_http_defaults(self):
        args = build_parser().parse_args(["serve-http"])
        assert args.host == "127.0.0.1" and args.port == 0
        assert args.api_keys is None and args.rate is None
        assert args.queue_limit == 1024 and args.procs == 1

    def test_listing_names_serve_http(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "serve-http" in out

    def test_serve_http_multiproc_without_port_is_error(self, capsys):
        assert main(["serve-http", "--procs", "2", "--requests", "1"]) == 2
        assert "explicit --port" in capsys.readouterr().out

    def test_serve_http_bad_api_keys_is_error(self, capsys):
        assert main(["serve-http", "--api-keys", "nope",
                     "--requests", "1"]) == 2
        assert "client:key" in capsys.readouterr().out

    def test_http_flags_flagged_when_inapplicable(self, capsys,
                                                  monkeypatch):
        monkeypatch.setitem(
            registry.REGISTRY, "table3",
            registry.Experiment("t", "d", lambda *a, **k: []))
        main(["table3", "--port", "8080", "--rate", "5"])
        out = capsys.readouterr().out
        assert "--port" in out and "--rate" in out and "ignored" in out
