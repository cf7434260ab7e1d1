"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.graph.generators import random_bipartite
from repro.graph.io import write_edge_list


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_count_args(self):
        args = build_parser().parse_args(
            ["count", "--dataset", "YT", "-p", "3", "-q", "2"])
        assert args.command == "count"
        assert args.p == 3 and args.q == 2
        assert args.scale == "tiny"

    def test_graph_and_dataset_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["count", "--graph", "x", "--dataset", "YT",
                 "-p", "1", "-q", "1"])

    def test_batch_requires_queries(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "--dataset", "YT"])

    def test_batch_args(self):
        args = build_parser().parse_args(
            ["batch", "--dataset", "YT", "--queries", "3x3,3x4",
             "--backend", "fast"])
        assert args.command == "batch"
        assert args.queries == "3x3,3x4"
        # None defers the GBC default to the handler, which upgrades it
        # to "auto" when --accuracy asks for a non-exact tier
        assert args.method is None
        assert args.accuracy == "exact"


class TestCommands:
    def test_count_dataset(self, capsys):
        assert main(["count", "--dataset", "YT", "--scale", "tiny",
                     "-p", "2", "-q", "2"]) == 0
        out = capsys.readouterr().out
        assert "bicliques:" in out
        assert "backend: native" in out
        assert main(["count", "--dataset", "YT", "--scale", "tiny",
                     "-p", "2", "-q", "2", "--backend", "sim"]) == 0
        assert "memory transactions" in capsys.readouterr().out

    def test_scale_a_stand_in_lacks_exits_2(self, capsys):
        """``large`` exists for YT, BC and GH only; asking another
        stand-in for it names the scales that stand-in has."""
        assert main(["count", "--dataset", "SO", "--scale", "large",
                     "-p", "2", "-q", "2"]) == 2
        err = capsys.readouterr().err
        assert "'large'" in err and "tiny, bench, full" in err
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["experiment", "fig9",
                                       "--scale", "large"])
        assert exc.value.code == 2

    def test_count_cpu_method(self, capsys):
        assert main(["count", "--dataset", "S1", "--scale", "tiny",
                     "-p", "2", "-q", "2", "--method", "BCL"]) == 0
        out = capsys.readouterr().out
        assert "(wall)" in out

    def test_count_from_file(self, tmp_path, capsys):
        g = random_bipartite(10, 10, 40, seed=0)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert main(["count", "--graph", str(path),
                     "-p", "1", "-q", "1"]) == 0
        assert f"bicliques: {g.num_edges}" in capsys.readouterr().out

    def test_batch(self, capsys):
        assert main(["batch", "--dataset", "YT", "--scale", "tiny",
                     "--queries", "2x2,2x3", "--backend", "fast"]) == 0
        out = capsys.readouterr().out
        assert "(2,2)" in out and "(2,3)" in out
        assert "shared precomputation: 1 wedge pass(es)" in out
        assert "result cache: 0 hit(s), 2 miss(es)" in out

    def test_batch_repeated_query_hits_cache(self, capsys):
        assert main(["batch", "--dataset", "S1", "--scale", "tiny",
                     "--queries", "2x2,2x2", "--backend", "fast"]) == 0
        assert "result cache: 1 hit(s), 1 miss(es)" \
            in capsys.readouterr().out

    def test_count_auto(self, capsys):
        assert main(["count", "--dataset", "YT", "--scale", "tiny",
                     "-p", "2", "-q", "2", "--method", "auto"]) == 0
        out = capsys.readouterr().out
        assert "plan: auto ->" in out
        assert "bicliques:" in out

    def test_batch_auto(self, capsys):
        assert main(["batch", "--dataset", "S1", "--scale", "tiny",
                     "--queries", "2x2,2x3", "--method", "auto"]) == 0
        out = capsys.readouterr().out
        assert "(2,2)" in out and "(2,3)" in out

    def test_plan_explain(self, capsys):
        assert main(["plan", "explain", "--dataset", "YT",
                     "--scale", "tiny", "-p", "2", "-q", "2"]) == 0
        out = capsys.readouterr().out
        assert "plan: GBC on native" in out
        assert "price:" in out and "work bound" in out
        assert "promising roots" in out
        assert "prepared state: wedges:" in out

    def test_plan_explain_free_choice_prints_the_rule(self, capsys):
        assert main(["plan", "explain", "--dataset", "YT",
                     "--scale", "tiny", "-p", "2", "-q", "2"]) == 0
        out = capsys.readouterr().out
        assert "plan: GBC on native — auto on native runs GBC" in out

    @pytest.mark.parametrize("argv", [
        ["plan", "explain", "--backend", "fast"],
        ["plan", "explain", "--backend", "sim"],
        ["count", "--method", "auto", "--backend", "fast"],
        ["count", "--method", "auto", "--backend", "sim"],
        ["batch", "--method", "auto", "--backend", "fast",
         "--queries", "2x2"],
        ["batch", "--method", "auto", "--backend", "sim",
         "--queries", "2x2"]])
    def test_auto_off_native_errors(self, argv, capsys):
        """auto plans GBC on native only; on any other engine the
        command exits non-zero, naming the explicit methods."""
        shape = [] if argv[0] == "batch" else ["-p", "2", "-q", "2"]
        assert main(argv + ["--dataset", "YT", "--scale", "tiny"]
                    + shape) == 1
        err = capsys.readouterr().err
        assert "method='auto' runs GBC on 'native' only" in err
        for method in ("Basic", "BCL", "BCLP", "GBL", "GBC"):
            assert method in err

    def test_plan_explain_measure(self, capsys):
        assert main(["plan", "explain", "--dataset", "S1",
                     "--scale", "tiny", "-p", "2", "-q", "2",
                     "--measure"]) == 0
        assert "measured" in capsys.readouterr().out

    def test_plan_explain_deterministic(self, capsys):
        args = ["plan", "explain", "--dataset", "GH", "--scale", "tiny",
                "-p", "2", "-q", "2"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_batch_workers_with_sim_backend_errors(self, capsys):
        assert main(["batch", "--dataset", "YT", "--scale", "tiny",
                     "--queries", "2x2", "--backend", "sim",
                     "--workers", "2"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["count", "plan"])
    @pytest.mark.parametrize("backend", ["fast", "sim"])
    def test_workers_off_native_exit_2(self, command, backend, capsys):
        argv = ["plan", "explain"] if command == "plan" else [command]
        assert main(argv + ["--dataset", "YT", "--scale", "tiny",
                            "-p", "2", "-q", "2", "--backend", backend,
                            "--workers", "2"]) == 2
        assert "forks the 'native' frontier" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["count", "batch", "plan"])
    def test_workers_below_one_exit_2(self, command, capsys):
        argv = {"count": ["count", "-p", "2", "-q", "2"],
                "batch": ["batch", "--queries", "2x2"],
                "plan": ["plan", "explain", "-p", "2", "-q", "2"]}[command]
        assert main(argv + ["--dataset", "YT", "--scale", "tiny",
                            "--workers", "0"]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_workers_shard_native(self, capsys):
        """--workers forks native's root loop; auto plans GBC there."""
        graph = ["--dataset", "YT", "--scale", "tiny", "-p", "2", "-q", "2"]
        assert main(["count", "--backend", "native"] + graph) == 0
        serial = capsys.readouterr().out.splitlines()[1]
        for method in ("GBL", "auto"):
            assert main(["count", "--method", method, "--workers", "2"]
                        + graph) == 0
            out = capsys.readouterr().out
            assert serial in out.splitlines()
            assert "backend: native" in out
        assert main(["plan", "explain", "--workers", "2"] + graph) == 0
        assert "plan: GBC on native" in capsys.readouterr().out

    def test_enumerate(self, capsys):
        assert main(["enumerate", "--dataset", "S1", "--scale", "tiny",
                     "-p", "2", "-q", "2", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("L=") <= 3

    def test_estimate(self, capsys):
        assert main(["estimate", "--dataset", "YT", "--scale", "tiny",
                     "-p", "2", "-q", "2", "--samples", "8"]) == 0
        assert "estimate:" in capsys.readouterr().out

    def test_estimate_routes_through_the_plan_layer(self, capsys):
        """``estimate`` dispatches the registered "approx" method via
        explicit_plan/execute_plan (the gap this command used to have:
        it called the estimator directly and ignored --backend)."""
        assert main(["estimate", "--dataset", "YT", "--scale", "tiny",
                     "-p", "2", "-q", "2", "--samples", "8",
                     "--backend", "native"]) == 0
        out = capsys.readouterr().out
        assert "backend: native" in out
        assert "root trees" in out

    def test_estimate_seed_reproducible(self, capsys):
        argv = ["estimate", "--dataset", "YT", "--scale", "tiny",
                "-p", "3", "-q", "3", "--samples", "8", "--seed", "4"]

        def estimate_line():
            assert main(argv) == 0
            out = capsys.readouterr().out
            return next(ln for ln in out.splitlines()
                        if ln.startswith("estimate:"))

        # wall time varies run to run; the estimate may not
        assert estimate_line() == estimate_line()

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for key in ("YT", "OR", "S2"):
            assert key in out

    def test_experiment(self, capsys):
        assert main(["experiment", "table2", "--scale", "tiny"]) == 0
        assert "Table II" in capsys.readouterr().out


class TestAccuracyTier:
    """--accuracy / --deadline: the sampling tier through the CLI."""

    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["count", "--dataset", "YT", "-p", "2", "-q", "2"])
        assert args.accuracy == "exact"
        assert args.deadline is None

    def test_count_accuracy_approx(self, capsys):
        assert main(["count", "--dataset", "YT", "--scale", "tiny",
                     "-p", "3", "-q", "3", "--accuracy", "approx"]) == 0
        out = capsys.readouterr().out
        assert "plan: auto ->" in out
        assert "estimate:" in out and "95% CI" in out
        assert "seed" in out

    def test_count_auto_with_tight_deadline_samples(self, capsys):
        assert main(["count", "--dataset", "YT", "--scale", "tiny",
                     "-p", "3", "-q", "3", "--accuracy", "auto",
                     "--deadline", "0.000001"]) == 0
        out = capsys.readouterr().out
        assert "method: approx" in out
        assert "estimate:" in out

    def test_count_exact_deadline_infeasible_errors(self, capsys):
        assert main(["count", "--dataset", "YT", "--scale", "tiny",
                     "-p", "3", "-q", "3", "--accuracy", "exact",
                     "--deadline", "0.000000001"]) == 1
        err = capsys.readouterr().err
        assert "deadline" in err
        assert "--accuracy auto" in err

    def test_explicit_method_with_approx_tier_is_usage_error(self, capsys):
        assert main(["count", "--dataset", "YT", "--scale", "tiny",
                     "-p", "2", "-q", "2", "--method", "GBC",
                     "--accuracy", "approx"]) == 2
        assert "planner choose" in capsys.readouterr().err

    def test_batch_accuracy_approx(self, capsys):
        assert main(["batch", "--dataset", "YT", "--scale", "tiny",
                     "--queries", "2x2,3x3", "--accuracy", "approx"]) == 0
        out = capsys.readouterr().out
        assert "(2,2)" in out and "(3,3)" in out
        assert "+-" in out          # every approx cell carries its ci95

    def test_plan_explain_error_column_and_approx_alternative(self, capsys):
        assert main(["plan", "explain", "--dataset", "YT",
                     "--scale", "tiny", "-p", "2", "-q", "2"]) == 0
        out = capsys.readouterr().out
        assert "approx tier:" in out          # the what-if footer
        assert "-sample estimate priced" in out
        assert "rel. error) on native" in out

    def test_plan_explain_accuracy_approx_ranks_the_sampling_tier(
            self, capsys):
        assert main(["plan", "explain", "--dataset", "YT",
                     "--scale", "tiny", "-p", "2", "-q", "2",
                     "--accuracy", "approx"]) == 0
        out = capsys.readouterr().out
        assert "approx" in out
        assert "~" in out           # relative-error cells, not "exact"
        assert "GBC" not in out     # exact methods are not candidates


class TestObservability:
    def test_count_trace_writes_jsonl_and_summarize_renders(
            self, tmp_path, capsys):
        import json

        path = tmp_path / "t.jsonl"
        assert main(["count", "--dataset", "YT", "--scale", "tiny",
                     "-p", "2", "-q", "2", "--method", "auto",
                     "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"-> {path}" in out
        records = [json.loads(line) for line in path.read_text().split("\n")
                   if line]
        names = {r["name"] for r in records}
        assert "plan.rank" in names and "plan.execute" in names
        assert "kernel.batch" in names
        # tracing is switched back off after the run
        from repro.obs.trace import tracing_enabled
        assert not tracing_enabled()

        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "plan.execute" in out
        assert "self ms" in out

    def test_trace_summarize_missing_file_errors(self, tmp_path, capsys):
        assert main(["trace", "summarize",
                     str(tmp_path / "absent.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_plan_explain_ledger_measure_then_calibrated_rerun(
            self, tmp_path, capsys):
        ledger = tmp_path / "costs.json"
        argv = ["plan", "explain", "--dataset", "YT", "--scale", "tiny",
                "-p", "2", "-q", "2", "--ledger", str(ledger)]
        assert main(argv + ["--measure"]) == 0
        first = capsys.readouterr().out
        assert "observed" in first and "calibrated" in first
        assert "ledger:" in first
        assert ledger.exists()
        # second invocation loads the measurements back and calibrates
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "ledger-calibrated" in second

    def test_verbose_flag_configures_then_resets_logging(self, capsys):
        import logging

        from repro.obs.log import configure_logging
        try:
            assert main(["-v", "datasets"]) == 0
            root = logging.getLogger("repro")
            assert root.level == logging.INFO
            assert any(getattr(h, "_repro_managed", False)
                       for h in root.handlers)
        finally:
            configure_logging(0)


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        """``python -m repro`` runs the CLI (repro/__main__.py)."""
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        done = subprocess.run(
            [sys.executable, "-m", "repro", "count", "--dataset", "S1",
             "--scale", "tiny", "-p", "2", "-q", "2", "--backend",
             "native"],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "bicliques:" in done.stdout

    def test_python_dash_m_repro_bad_args_exit_code(self):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        done = subprocess.run([sys.executable, "-m", "repro"],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode != 0
