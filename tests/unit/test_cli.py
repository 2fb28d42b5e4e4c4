"""Unit tests for the command-line interface and CSV export."""

import csv
import json

import pytest

from repro.analysis import EvaluationSetting, run_figure2, run_table2
from repro.analysis.export import figure_to_csv, table2_to_csv
from repro.cli import build_parser, main


SMALL_ARGS = ["--nodes", "40", "--runs", "2", "--coord-system", "mds",
              "--seed", "3"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["astrology"])

    def test_defaults_match_paper(self):
        args = build_parser().parse_args(["figure2"])
        assert args.nodes == 226
        assert args.runs == 30
        assert args.coord_system == "rnp"
        assert args.candidate_mode == "dispersed"

    def test_matrix_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["matrix"])

    def test_catalog_defaults(self):
        args = build_parser().parse_args(["catalog"])
        assert args.keys == [100, 1_000]
        assert args.shards == [1, 4, 16]
        assert args.grouping == "chunked"

    def test_catalog_rejects_unknown_grouping(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["catalog", "--grouping", "psychic"])

    def test_catalog_flags_land_on_the_cell_field_names(self):
        from dataclasses import fields

        from repro.catalog import CatalogRunSpec
        args = build_parser().parse_args(
            ["catalog", "--nodes", "20", "--dc", "6", "--rate", "100"])
        assert (args.n_nodes, args.n_dc, args.rate_per_second) == (20, 6, 100.0)
        assert {f.name for f in fields(CatalogRunSpec)} \
            - {"n_keys", "n_shards"} <= set(vars(args))

    @pytest.mark.parametrize("command",
                             [["chaos", "scenario.toml"], ["catalog"]],
                             ids=["chaos", "catalog"])
    def test_engine_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--engine", "batched"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--jobs"])
    def test_runner_counts_must_be_positive(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["table2", "--accesses", "100", flag, "0"])
        assert exit_info.value.code == 2
        assert f"error: argument {flag}: must be >= 1" \
            in capsys.readouterr().err

    def test_chunk_size_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["figure2", "--chunk-size", "4"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --chunk-size" \
            in capsys.readouterr().err

    def test_resume_requires_cache_dir(self):
        with pytest.raises(SystemExit, match="--resume requires --cache-dir"):
            main(["table2", "--accesses", "100", "--resume"])


class TestCommands:
    def test_figure2_prints_table(self, capsys):
        assert main(["figure2", *SMALL_ARGS]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "online clustering" in out

    def test_figure2_csv_export(self, tmp_path, capsys):
        path = str(tmp_path / "fig2.csv")
        assert main(["figure2", *SMALL_ARGS, "--csv", path]) == 0
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert {r["series"] for r in rows} == {
            "random", "offline k-means", "online clustering", "optimal"}
        assert all(float(r["mean_ms"]) > 0 for r in rows)
        assert all(int(r["n_runs"]) == 2 for r in rows)

    def test_table2_command(self, capsys, tmp_path):
        path = str(tmp_path / "t2.csv")
        assert main(["table2", "--accesses", "500", "1000",
                     "--k", "2", "--micro-clusters", "10",
                     "--csv", path]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert [int(r["n_accesses"]) for r in rows] == [500, 1000]

    def test_catalog_command(self, tmp_path, capsys):
        path = str(tmp_path / "catalog.csv")
        assert main(["catalog", "--keys", "24", "--shards", "1", "2",
                     "--grouping", "chunked", "--group-size", "6",
                     "--nodes", "20", "--dc", "6", "--seed", "3",
                     "--rate", "100", "--duration-ms", "8000",
                     "--csv", path]) == 0
        out = capsys.readouterr().out
        assert "shards" in out
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert [int(r["n_shards"]) for r in rows] == [1, 2]
        assert all(int(r["reads_completed"]) > 0 for r in rows)
        assert all(int(r["groups"]) == 4 for r in rows)

    def test_catalog_resumes_from_its_cache(self, tmp_path, capsys):
        argv = ["catalog", "--keys", "24", "--shards", "1", "2",
                "--nodes", "20", "--dc", "6", "--duration-ms", "4000",
                "--jobs", "1", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        metrics = str(tmp_path / "warm.json")
        assert main([*argv, "--resume", "--metrics-out", metrics]) == 0
        warm = capsys.readouterr().out
        assert warm.replace(f"wrote {metrics}\n", "") == cold
        with open(metrics) as handle:
            counters = json.load(handle)["counters"]
        assert counters["runner.cache_hits"] == counters["runner.jobs"] == 2
        assert "runner.jobs_completed" not in counters

    def test_coords_draws_the_chart_when_asked(self, capsys):
        argv = ["coords", "--nodes", "30", "--runs", "1", "--seed", "3"]
        assert main(argv) == 0
        table = capsys.readouterr().out
        assert main([*argv, "--chart"]) == 0
        charted = capsys.readouterr().out
        assert charted.startswith(table)
        assert "o mds" in charted and "o mds" not in table

    def test_matrix_command(self, tmp_path, capsys):
        path = str(tmp_path / "m.npz")
        assert main(["matrix", "--nodes", "12", "--seed", "1",
                     "--out", path]) == 0
        from repro.net import load_matrix
        matrix = load_matrix(path)
        assert matrix.n == 12


class TestExportHelpers:
    def test_figure_csv_roundtrip(self, tmp_path):
        setting = EvaluationSetting(n_nodes=40, n_runs=2,
                                    coord_system="mds", seed=3)
        figure = run_figure2(setting, replica_counts=(1, 2), n_dc=10)
        path = str(tmp_path / "f.csv")
        figure_to_csv(figure, path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4 * 2  # four series, two x points

    def test_table2_csv_columns(self, tmp_path):
        rows = run_table2(n_accesses_list=(500,), k=2, m=10)
        path = str(tmp_path / "t.csv")
        table2_to_csv(rows, path)
        with open(path) as handle:
            parsed = list(csv.DictReader(handle))
        assert parsed[0]["k"] == "2"
        assert int(parsed[0]["offline_bytes"]) > 0


class TestJsonRoundtrip:
    def test_figure_json_roundtrip(self, tmp_path):
        from repro.analysis.export import figure_from_json, figure_to_json
        setting = EvaluationSetting(n_nodes=40, n_runs=2,
                                    coord_system="mds", seed=3)
        figure = run_figure2(setting, replica_counts=(1, 2), n_dc=10)
        path = str(tmp_path / "fig.json")
        figure_to_json(figure, path)
        loaded = figure_from_json(path)
        assert loaded.name == figure.name
        assert set(loaded.series) == set(figure.series)
        for name in figure.series:
            for a, b in zip(figure.series[name], loaded.series[name]):
                assert a.x == b.x
                assert a.summary.mean == pytest.approx(b.summary.mean)
                assert a.summary.n == b.summary.n

    def test_bad_json_rejected(self, tmp_path):
        import json
        from repro.analysis.export import figure_from_json
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            json.dump({"name": "x"}, handle)
        with pytest.raises(ValueError, match="missing field"):
            figure_from_json(path)


class TestReportCommand:
    def test_report_to_stdout(self, capsys):
        from repro.cli import main
        assert main(["report", "--nodes", "40", "--runs", "2",
                     "--coord-system", "mds"]) == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out
        assert "Headline-claim checklist" in out
        assert "Figure 2" in out and "Table II" in out

    def test_report_to_file(self, tmp_path, capsys):
        from repro.cli import main
        path = str(tmp_path / "report.md")
        assert main(["report", "--nodes", "40", "--runs", "2",
                     "--coord-system", "mds", "--out", path]) == 0
        with open(path) as handle:
            text = handle.read()
        assert "claims reproduced" in text

    def test_generate_report_checks_structure(self):
        from repro.analysis import EvaluationSetting, generate_report
        text = generate_report(EvaluationSetting(
            n_nodes=40, n_runs=2, coord_system="mds", seed=3))
        # Every claim line carries a verdict mark and a detail.
        claim_lines = [l for l in text.splitlines()
                       if l.startswith(("- ✅", "- ❌"))]
        assert len(claim_lines) >= 8
        assert all(" — " in l for l in claim_lines)
