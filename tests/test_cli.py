"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
import repro.protocols.registry as registry
from repro.cli import build_parser, main
from repro.protocols.registry import ExperimentSpec


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "exact-majority"
        assert args.model == "TW"
        assert args.simulator == "none"

    def test_attack_kinds(self):
        args = build_parser().parse_args(["attack", "lemma1"])
        assert args.kind == "lemma1"
        args = build_parser().parse_args(["attack", "no1", "--model", "I2"])
        assert args.model == "I2"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "nonsense"])


class TestRunCommand:
    def test_two_way_baseline(self, capsys):
        exit_code = main([
            "run", "--protocol", "exact-majority", "--model", "TW",
            "--population", "8", "--seed", "1", "--max-steps", "50000",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "converged" in output
        assert "OK" in output

    def test_skno_on_i3_with_omissions(self, capsys):
        exit_code = main([
            "run", "--protocol", "leader-election", "--model", "I3",
            "--simulator", "skno", "--omission-bound", "1", "--omissions", "1",
            "--population", "6", "--seed", "2", "--max-steps", "150000",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "SKnO" in output

    def test_sid_on_io(self, capsys):
        exit_code = main([
            "run", "--protocol", "exact-majority", "--model", "IO",
            "--simulator", "sid", "--population", "6", "--seed", "3",
            "--max-steps", "150000",
        ])
        assert exit_code == 0
        assert "SID" in capsys.readouterr().out

    def test_known_n_on_io(self, capsys):
        exit_code = main([
            "run", "--protocol", "pairing", "--model", "IO",
            "--simulator", "known-n", "--population", "4", "--seed", "4",
            "--max-steps", "200000",
        ])
        assert exit_code == 0
        assert "Nn+SID" in capsys.readouterr().out

    def test_weak_model_without_simulator_is_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--protocol", "exact-majority", "--model", "IO"])

    def test_omissions_on_non_omissive_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--protocol", "exact-majority", "--model", "TW", "--omissions", "2"])

    def test_threshold_protocol_with_parameters(self, capsys):
        exit_code = main([
            "run", "--protocol", "threshold", "--threshold", "3", "--ones", "4",
            "--model", "TW", "--population", "7", "--seed", "5", "--max-steps", "50000",
        ])
        assert exit_code == 0
        assert "threshold-3" in capsys.readouterr().out


    def test_skno_on_t3_runs_through_the_registry_adapter(self, capsys):
        exit_code = main([
            "run", "--protocol", "pairing", "-n", "5", "--model", "T3",
            "--simulator", "skno", "--omission-bound", "1", "--omissions", "1",
            "--seed", "4",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "two-way(SKnO(o=1,I3))" in output
        assert "| verification              | OK" in output

    @pytest.mark.parametrize("population", ["1", "0"])
    def test_population_below_two_is_a_one_line_error(self, population):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "-n", population],
            capture_output=True, text=True, env=env, timeout=120)
        assert completed.returncode != 0
        assert "Traceback" not in completed.stderr
        assert completed.stderr.strip().splitlines() == [
            "a population needs at least two agents to interact"]

    @pytest.mark.parametrize("ones", ["6", "-1"])
    def test_ones_outside_the_population_is_a_one_line_error(self, ones):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--protocol", "or",
             "-n", "4", "--ones", ones],
            capture_output=True, text=True, env=env, timeout=120)
        assert completed.returncode != 0
        assert "Traceback" not in completed.stderr
        assert completed.stderr.strip().splitlines() == [
            f"ones must lie in 0..population, got ones={ones} "
            "with population=4"]

    @pytest.mark.parametrize("extra", [
        [],
        ["--engine-backend", "auto"],
        ["--runs", "2"],
    ])
    def test_one_build_per_invocation(self, capsys, monkeypatch, extra):
        monkeypatch.setattr(registry, "_BUILD_CACHE", {})
        monkeypatch.setattr(registry, "_RESOLUTION_CACHE", {})
        builds = []
        original = ExperimentSpec.build

        def counting_build(spec):
            builds.append(spec)
            return original(spec)

        monkeypatch.setattr(ExperimentSpec, "build", counting_build)
        exit_code = main([
            "run", "--protocol", "pairing", "-n", "5", "--model", "I3",
            "--simulator", "skno", "--omission-bound", "1", "--omissions", "1",
            "--seed", "4", *extra,
        ])
        capsys.readouterr()
        assert exit_code == 0
        assert len(builds) == 1


class TestRunBackendsAndRing:
    def test_runs_with_process_backend(self, capsys):
        exit_code = main([
            "run", "--protocol", "exact-majority", "--population", "8",
            "--runs", "4", "--jobs", "2",
            "--trace-policy", "counts-only", "--max-steps", "50000", "--seed", "5",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "process" in output
        assert "4/4" in output

    def test_sequential_and_process_runs_report_identical_statistics(self, capsys):
        common = [
            "run", "--protocol", "exact-majority", "--population", "8",
            "--runs", "4", "--trace-policy", "counts-only",
            "--max-steps", "50000", "--seed", "5",
        ]
        assert main(common + ["--jobs", "1"]) == 0
        sequential_out = capsys.readouterr().out
        assert main(common + ["--jobs", "2"]) == 0
        process_out = capsys.readouterr().out

        def stats(output):
            return [line for line in output.splitlines()
                    if "interactions to stabilise" in line or "successes" in line]

        assert stats(sequential_out) == stats(process_out)

    @pytest.mark.parametrize("jobs, lane", [("1", "sequential"), ("2", "process")])
    def test_backend_row_names_the_lane_that_ran(self, capsys, jobs, lane):
        assert main([
            "run", "--protocol", "exact-majority", "--population", "8",
            "--runs", "3", "--jobs", jobs, "--trace-policy", "counts-only",
            "--max-steps", "50000", "--seed", "5",
        ]) == 0
        rows = [line.split("|") for line in capsys.readouterr().out.splitlines()]
        backend = [cells[2].strip() for cells in rows
                   if len(cells) > 2 and cells[1].strip() == "backend"]
        assert backend == [lane]

    def test_run_chunk_and_chunk_size_preserve_statistics(self, capsys):
        common = [
            "run", "--protocol", "exact-majority", "--population", "8",
            "--runs", "5", "--jobs", "2", "--trace-policy", "counts-only",
            "--max-steps", "50000", "--seed", "5",
        ]
        assert main(common) == 0
        reference_out = capsys.readouterr().out
        assert main(common + ["--run-chunk", "2", "--chunk-size", "16"]) == 0
        chunked_out = capsys.readouterr().out

        def stats(output):
            return [line for line in output.splitlines()
                    if "interactions to stabilise" in line or "successes" in line]

        assert stats(chunked_out) == stats(reference_out)

    def test_chunk_size_on_single_runs(self, capsys):
        exit_code = main([
            "run", "--protocol", "exact-majority", "--population", "8",
            "--seed", "1", "--max-steps", "50000", "--chunk-size", "1",
        ])
        assert exit_code == 0
        assert "converged" in capsys.readouterr().out

    def test_invalid_run_chunk_rejected(self):
        with pytest.raises(SystemExit, match="run-chunk"):
            main(["run", "--runs", "2", "--run-chunk", "0"])

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(SystemExit, match="chunk-size"):
            main(["run", "--chunk-size", "0"])

    @pytest.mark.parametrize("fan_out", [[], ["--runs", "3", "--jobs", "2"]])
    @pytest.mark.parametrize("flags,message", [
        (["--max-steps", "-1"], "--max-steps must be non-negative"),
        (["--stability-window", "-3"], "--stability-window must be non-negative"),
        (["--ring-size", "0", "--trace-policy", "ring"], "--ring-size must be at least 1"),
    ])
    def test_invalid_run_budget_flags_rejected(self, flags, message, fan_out):
        with pytest.raises(SystemExit, match=message):
            main(["run", "--protocol", "epidemic", "-n", "10", *flags, *fan_out])

    def test_ring_policy_dumps_last_interactions_on_non_convergence(self, capsys):
        exit_code = main([
            "run", "--protocol", "leader-election", "--population", "6",
            "--trace-policy", "ring", "--ring-size", "5", "--max-steps", "40",
            "--stability-window", "300", "--seed", "7",
        ])
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "crash dump" in output
        assert "last 5 interactions" in output

    def test_ring_dump_with_repeated_runs(self, capsys):
        """--runs > 1 honours --ring-size and dumps failing runs' windows."""
        exit_code = main([
            "run", "--protocol", "leader-election", "--population", "6",
            "--runs", "2", "--trace-policy", "ring", "--ring-size", "4",
            "--max-steps", "40", "--stability-window", "300", "--seed", "7",
        ])
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "run 0 did not converge" in output
        assert "last 4 interactions" in output

    def test_ring_policy_silent_on_convergence(self, capsys):
        exit_code = main([
            "run", "--protocol", "leader-election", "--population", "4",
            "--trace-policy", "ring", "--max-steps", "100000", "--seed", "1",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "crash dump" not in output


class TestAttackCommand:
    def test_lemma1_attack_reports_violation(self, capsys):
        exit_code = main(["attack", "lemma1", "--omission-bound", "1"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "safety violated" in output
        assert "True" in output

    def test_no1_attack_in_weak_model(self, capsys):
        exit_code = main(["attack", "no1", "--model", "I1", "--max-steps", "15000"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "VIOLATED" in output


class TestInformationCommands:
    def test_map(self, capsys):
        assert main(["map"]) == 0
        output = capsys.readouterr().out
        assert "TW" in output and "I3" in output and "?" in output

    def test_hierarchy(self, capsys):
        assert main(["hierarchy"]) == 0
        output = capsys.readouterr().out
        assert "IO -> IT" in output
        assert "weakest to strongest" in output
