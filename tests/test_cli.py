"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main
from repro.harness.experiments import clear_cache


@pytest.fixture(autouse=True)
def _clean_cache(monkeypatch, tmp_path):
    # Keep the on-disk result cache out of the repository during tests.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "salus-cache"))
    clear_cache()
    yield
    clear_cache()


class TestParser:
    def test_list(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "nw"])
        assert args.benchmark == "nw"
        assert args.models == ["nosec", "baseline", "salus"]
        assert args.accesses == 20_000

    def test_run_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom"])

    def test_run_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nw", "--models", "quantum"])

    def test_figure_all(self):
        args = build_parser().parse_args(["figure", "all"])
        assert args.name == "all"

    def test_figure_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_engine_flags(self):
        args = build_parser().parse_args(
            ["figure", "fig10", "--jobs", "4", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.no_cache is True

    def test_figures_command_is_figure_all(self):
        args = build_parser().parse_args(["figures", "--jobs", "2"])
        assert args.name == "all"
        assert args.jobs == 2

    def test_cache_dir_flag(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "nw", "--cache-dir", str(tmp_path / "c")]
        )
        assert args.cache_dir == str(tmp_path / "c")

    def test_knobs(self):
        args = build_parser().parse_args(
            [
                "run", "nw", "--accesses", "500", "--seed", "11",
                "--cxl-bw-ratio", "0.25", "--capacity-ratio", "0.2",
                "--fill-granularity", "chunk",
            ]
        )
        assert args.accesses == 500
        assert args.cxl_bw_ratio == pytest.approx(0.25)
        assert args.fill_granularity == "chunk"

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve"],
            ["run", "nw", "--server", "http://127.0.0.1:8765"],
            ["figures", "--server", "http://127.0.0.1:8765"],
            ["trace", "nw", "--jobs", "2"],
            ["runs", "--source", "coalesced"],
        ],
        ids=["serve", "run-server", "figures-server", "trace-jobs",
             "runs-source-coalesced"],
    )
    def test_rejects_retired_commands_and_flags(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestCommands:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "nw" in out and "pannotia" in out
        assert "salus" in out and "fig10" in out

    def test_run_output(self, capsys):
        code = main(["run", "nw", "--accesses", "800", "--models", "nosec", "salus"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ipc_norm" in out
        assert "salus" in out

    def test_run_with_chunk_fills(self, capsys):
        code = main(
            ["run", "nw", "--accesses", "600", "--models", "salus",
             "--fill-granularity", "chunk"]
        )
        assert code == 0

    def test_figure_output(self, capsys):
        code = main(
            ["figure", "fig10", "--accesses", "600", "--benchmarks", "nw"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 10" in out
        assert "geomean_improvement" in out

    def test_figure_warm_cache_identical_output(self, tmp_path, capsys):
        """A second invocation is served from the on-disk cache, byte-identical."""
        argv = [
            "figure", "fig11", "--accesses", "600", "--benchmarks", "nw",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        # Each CLI invocation builds a fresh engine, so the second run can
        # only be served by the persistent on-disk cache.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_figure_parallel_matches_serial(self, capsys):
        argv = ["figure", "fig03", "--accesses", "600",
                "--benchmarks", "nw", "--no-cache"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
