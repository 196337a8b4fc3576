import json
import math
import os
import pkgutil
import shlex
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

import expanderlab
from expanderlab import builders, cli, graphcore, matgroups, search
from expanderlab.builders import named_graph
from expanderlab.graphcore import load_graph, save_graph


def run(argv):
    return cli.main([str(a) for a in argv])


def run_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    return exc.value.code


class TestGen:
    def test_random_regular_file(self, tmp_path):
        out = tmp_path / "g.el"
        assert run(["gen", "random-regular:n=10,d=3,seed=1", "-o", out]) == 0
        g = load_graph(out)
        assert g.n == 10 and g.m == 15
        assert (tmp_path / "g.el.manifest.json").exists()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.el", tmp_path / "b.el"
        run(["gen", "random-regular:n=16,d=4,seed=3", "-o", a])
        run(["gen", "random-regular:n=16,d=4,seed=3", "-o", b])
        assert a.read_bytes() == b.read_bytes()

    def test_cayley_labels_sidecar(self, tmp_path):
        out = tmp_path / "c.el"
        assert run(["gen", "cayley:recipe=elementary,p=3", "-o", out]) == 0
        assert load_graph(out).n == 24
        labels = (tmp_path / "c.el.labels").read_text().splitlines()
        assert len(labels) == 24
        assert labels[0] == "0 1 0 0 1"

    def test_malformed_spec_exit2(self, tmp_path, capsys):
        code = run(["gen", "random-regular:n=10,dd=3", "-o", tmp_path / "x.el"])
        assert code == cli.EXIT_INPUT
        assert "unknown key 'dd'" in capsys.readouterr().err

    def test_missing_key_named(self, tmp_path, capsys):
        code = run(["gen", "random-regular:n=10", "-o", tmp_path / "x.el"])
        assert code == cli.EXIT_INPUT
        assert "missing required key 'd'" in capsys.readouterr().err


class TestMeasure:
    def test_c8_report(self, tmp_path):
        path = tmp_path / "c8.el"
        save_graph(named_graph("cycle", 8), path)
        out = tmp_path / "report.json"
        assert run(["measure", path, "-o", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["girth"] == 8 and rep["diameter"] == 4
        assert (rep["h_exact_num"], rep["h_exact_den"]) == (2, 3)
        assert rep["girth_unbounded"] is False and rep["diameter_disconnected"] is False

    def test_tree_girth_is_null_and_flagged(self, tmp_path):
        from oracles import random_connected_graph

        path, out = tmp_path / "tree.el", tmp_path / "tree.json"
        save_graph(random_connected_graph(9, 3), path)
        assert run(["measure", path, "-o", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["girth"] is None and rep["girth_unbounded"] is True

    def test_disconnected_diameter_is_null_and_flagged(self, tmp_path):
        path, out = tmp_path / "triangles.el", tmp_path / "triangles.json"
        triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        save_graph(graphcore.from_edges(6, triangles), path)
        assert run(["measure", path, "-o", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["diameter"] is None and rep["diameter_disconnected"] is True

    def test_petersen(self, tmp_path, capsys):
        path = tmp_path / "p.el"
        save_graph(named_graph("petersen"), path)
        assert run(["measure", path]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["girth"] == 5 and rep["diameter"] == 2

    def test_exact_refusal_path(self, tmp_path):
        from oracles import random_connected_graph

        path = tmp_path / "g.el"
        save_graph(random_connected_graph(30, 1, extra_edges=12), path)
        out = tmp_path / "r.json"
        assert run(["measure", path, "--exact-max", 24, "-o", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["h_exact_num"] is None
        assert rep["lambda2"] is not None

    def test_missing_file_exit2(self, tmp_path):
        assert run(["measure", tmp_path / "nope.el"]) == cli.EXIT_INPUT

    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.el"
        bad.write_text("3 1\n0 zzz\n")
        assert run(["measure", bad]) == cli.EXIT_INPUT
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edges",
        ["1 0\n", "1 1\n", "0 1\n0 1\n", "0 3\n"],
        ids=["reversed", "self-loop", "duplicate", "out-of-range"],
    )
    def test_bad_edge_line_exit2(self, tmp_path, edges):
        bad = tmp_path / "bad.el"
        bad.write_text(f"3 {edges.count(chr(10))}\n{edges}")
        assert run(["measure", bad]) == cli.EXIT_INPUT


class TestPercolateAndSweep:
    def test_percolate_p1(self, tmp_path):
        path = tmp_path / "g.el"
        save_graph(named_graph("cycle", 8), path)
        out = tmp_path / "p.csv"
        assert run(["percolate", path, "-p", 1.0, "--seed", 5, "-o", out]) == 0
        header, row = out.read_text().splitlines()
        assert header == "p,seed,retained_edges,components,giant_fraction"
        cells = row.split(",")
        assert cells[2] == "8" and cells[4] == "1"

    def test_condition_column_matches_measure(self, tmp_path):
        path = tmp_path / "k4.el"
        save_graph(named_graph("complete", 4), path)
        out = tmp_path / "p.csv"
        run(["percolate", path, "-p", 0.9, "--check-condition", "-o", out])
        row = out.read_text().splitlines()[1].split(",")
        rep_path = tmp_path / "m.json"
        run(["measure", path, "-o", rep_path])
        rep = json.loads(rep_path.read_text())
        expected = rep["rho_star"] * rep["max_degree"] * 0.9
        assert math.isclose(float(row[5]), expected, rel_tol=1e-9)
        assert row[6] == "true"

    def test_sweep_endpoints(self, tmp_path):
        path = tmp_path / "g.el"
        save_graph(named_graph("cycle", 10), path)
        out = tmp_path / "s.csv"
        assert (
            run(["sweep", path, "--grid", "0,1", "--seeds-per", 3, "--seed", 2, "-o", out])
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "p,seed_count,giant_mean,giant_std,condition_value,condition_ok"
        first = lines[1].split(",")
        last = lines[2].split(",")
        assert float(first[2]) == 0.1  # 1/n
        assert float(last[2]) == 1.0

    @pytest.mark.parametrize("grid", ["0.5,1.5", "nan", "0.5,-0.1"])
    def test_sweep_bad_grid_exit2(self, tmp_path, capsys, grid):
        path = tmp_path / "g.el"
        save_graph(named_graph("cycle", 10), path)
        out = tmp_path / "s.csv"
        code = run(["sweep", path, "--grid", grid, "--seeds-per", 3, "-o", out])
        assert code == cli.EXIT_INPUT
        assert "retention probability must be in [0,1]" in capsys.readouterr().err
        assert not out.exists()


class TestTrimSearch:
    def test_trim_noop_when_target_met(self, tmp_path):
        path = tmp_path / "c6.el"
        save_graph(named_graph("cycle", 6), path)
        out = tmp_path / "t.el"
        assert run(["trim", path, "--girth", 6, "-o", out]) == 0
        assert out.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("girth", [-1, 0, 1, 2, 3])
    def test_trim_target_of_three_or_less_writes_the_input(self, tmp_path, girth):
        # a girth target is a lower bound, and every simple graph meets 3
        path = tmp_path / "k4.el"
        save_graph(named_graph("complete", 4), path)
        out = tmp_path / "t.el"
        assert run(["trim", path, "--girth", girth, "-o", out]) == 0
        assert out.read_bytes() == path.read_bytes()

    def test_search_report(self, tmp_path):
        path = tmp_path / "k4.el"
        save_graph(named_graph("complete", 4), path)
        out = tmp_path / "s.el"
        report = tmp_path / "s.json"
        assert (
            run(
                ["search", path, "--girth", 4, "--strategy", "trim",
                 "--budget", 100, "-o", out, "--report", report]
            )
            == 0
        )
        rep = json.loads(report.read_text())
        assert rep["connected"] is True
        assert rep["girth_unbounded"] or rep["girth_achieved"] >= 4
        sub = load_graph(out)
        assert sub.n == 4

    @pytest.mark.parametrize(
        "strategy, validations", [("trim", 1), ("percolate-repair", 1)]
    )
    def test_search_validates_pairs_once_per_entry(self, tmp_path, strategy, validations):
        # the re-measure only: the sample is built from host edges, and the
        # steps pass one Graph between them
        path = tmp_path / "rr.el"
        save_graph(builders.random_regular(20, 4, seed=3), path)
        argv = ["search", path, "--girth", 5, "--strategy", strategy, "--budget", 50,
                "-o", tmp_path / "s.el"]
        with mock.patch.object(search, "edge_subgraph", wraps=search.edge_subgraph) as validate:
            assert run(argv) == 0
        assert validate.call_count == validations

    def test_search_requires_one_target(self, tmp_path):
        path = tmp_path / "c6.el"
        save_graph(named_graph("cycle", 6), path)
        code = run(["search", path, "-o", tmp_path / "x.el"])
        assert code == cli.EXIT_INPUT

    def test_search_refuses_two_targets(self, tmp_path, capsys):
        path = tmp_path / "c6.el"
        save_graph(named_graph("cycle", 6), path)
        code = run(["search", path, "--ratio", 0.5, "--girth", 4, "-o", tmp_path / "x.el"])
        assert code == cli.EXIT_INPUT
        assert "exactly one of ratio and girth_target" in capsys.readouterr().err
        assert not (tmp_path / "x.el").exists()


class TestBallsTower:
    def test_balls_c10(self, tmp_path):
        path = tmp_path / "c10.el"
        save_graph(named_graph("cycle", 10), path)
        out = tmp_path / "b.csv"
        assert run(["balls", path, "--radius", 2, "-o", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("kind,vertex,ball_size,gap,h_exact")
        summary = lines[-1].split(",")
        assert summary[0] == "summary"
        assert summary[7] == "1/2"  # min h over balls (P5)

    def test_tower_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["tower", "--p", 3, "--levels", 2, "--recipe", "sanov", "-o", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "level,modulus,vertices,degree,girth,girth_unbounded,gap,"
            "reached_order,full_group_order"
        )
        assert lines[1].split(",")[2] == "24"
        assert lines[2].split(",")[2] == "648"

    def test_tower_p2_girth_falls_where_degree_grows(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["tower", "--p", 2, "--levels", 3, "--recipe", "elementary", "-o", out]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[3] for r in rows] == ["2", "4", "4"]  # degree
        assert [r[4] for r in rows] == ["6", "4", "6"]  # girth

    def test_tower_order_cap_exit3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(matgroups, "ORDER_CAP", 100)
        code = run(["tower", "--p", 3, "--levels", 2, "-o", tmp_path / "t.csv"])
        assert code == cli.EXIT_REFUSED


class TestProbeAndManifest:
    def test_probe_outputs_and_rerun(self, tmp_path):
        out_dir = tmp_path / "probe"
        argv = [
            "probe", "--family", "cycle:n=10", "--ratios", "0.5",
            "--strategies", "trim", "--budget", 10, "--seed", 4,
            "--out-dir", out_dir,
        ]
        assert run(argv) == 0
        csv_path = out_dir / "probe.csv"
        json_path = out_dir / "probe_summary.json"
        manifest_path = out_dir / "manifest.json"
        assert csv_path.exists() and json_path.exists() and manifest_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == (
            "family,instance,n,m,d,host_gap,host_h_exact,diameter,c,girth_target,"
            "strategy,best_girth,best_gap,best_h_exact,ratio_achieved,success,"
            "degenerate_diameter,seed"
        )
        row = lines[1].split(",")
        assert row[0] == "cycle:n=10"
        assert row[15] == "true"  # success

        before_csv = csv_path.read_bytes()
        before_json = json_path.read_bytes()
        assert run(["rerun", manifest_path]) == 0
        assert csv_path.read_bytes() == before_csv
        assert json_path.read_bytes() == before_json

    def test_manifest_hashes_match(self, tmp_path):
        import hashlib

        out = tmp_path / "g.el"
        run(["gen", "cycle:n=12", "-o", out])
        manifest = json.loads((tmp_path / "g.el.manifest.json").read_text())
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert manifest["outputs"][str(out)] == digest
        assert manifest["command"] == "gen"

    def test_manifest_records_environment(self, tmp_path, monkeypatch):
        import platform

        import numpy

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out = tmp_path / "g.el"
        assert run(["gen", "cycle:n=12", "-o", out]) == 0
        manifest = json.loads((tmp_path / "g.el.manifest.json").read_text())
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": None,
        }

    def test_rerun_tampered_digest_exit5(self, tmp_path, capsys):
        out = tmp_path / "g.el"
        other = tmp_path / "g.el.labels"
        assert run(["gen", "cayley:recipe=elementary,p=3", "-o", out]) == 0
        manifest_path = tmp_path / "g.el.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["outputs"][str(out)] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["rerun", manifest_path]) == cli.EXIT_MISMATCH == 5
        err = capsys.readouterr().err
        assert str(out) in err and str(other) not in err

    def test_rerun_of_rerun_exit2(self, tmp_path, capsys):
        # a manifest that replays itself would recurse without end
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(
            json.dumps({"argv": ["rerun", str(manifest_path)], "outputs": {}})
        )
        assert run(["rerun", manifest_path]) == cli.EXIT_INPUT
        assert "replays rerun" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--version"], ["gen", "--help"]], ids=["version", "help"])
    def test_rerun_of_an_argv_that_runs_no_command_exit2(self, tmp_path, capsys, argv):
        # argparse prints and exits 0 before any command runs, so no output was replayed
        out = tmp_path / "g.el"
        assert run(["gen", "cycle:n=5", "-o", out]) == 0
        manifest_path = tmp_path / "g.el.manifest.json"
        assert run(["rerun", manifest_path]) == 0  # the recorded digests match
        manifest = json.loads(manifest_path.read_text())
        manifest["argv"] = argv
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["rerun", manifest_path]) == cli.EXIT_INPUT
        assert "runs no command" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "manifest",
        [
            [["gen", "cycle:n=5", "-o", "x.el"]],
            {"argv": ["gen", "cycle:n=5", "-o", 5], "outputs": {"x.el": "0" * 64}},
            {"argv": ["gen", "cycle:n=5", "-o", "x.el"], "outputs": {"x.el": 0}},
            {"argv": ["gen", "cycle:n=5", "-o", "x.el"], "outputs": {}},
        ],
        ids=["list", "non-string-argv", "non-string-digest", "empty-outputs"],
    )
    def test_rerun_malformed_manifest_exit2(self, tmp_path, monkeypatch, manifest):
        monkeypatch.chdir(tmp_path)
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps(manifest))
        assert run(["rerun", manifest_path]) == cli.EXIT_INPUT
        assert not (tmp_path / "x.el").exists()

    def test_rerun_manifest_without_outputs_exit2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps({"argv": ["gen", "cycle:n=5", "-o", "x.el"]}))
        assert run(["rerun", manifest_path]) == cli.EXIT_INPUT
        assert not (tmp_path / "x.el").exists()


class TestExitCodes:
    def test_no_command_usage(self):
        assert run_usage_error([]) == cli.EXIT_USAGE

    def test_unknown_command_usage(self):
        assert run_usage_error(["frobnicate"]) == cli.EXIT_USAGE

    def test_missing_required_flag_usage(self):
        assert run_usage_error(["gen", "cycle:n=5"]) == cli.EXIT_USAGE

    def test_input_error_is_2(self, tmp_path):
        assert run(["measure", tmp_path / "missing.el"]) == cli.EXIT_INPUT

    def test_exact_enumeration_too_large_is_3(self, tmp_path, capsys):
        from oracles import random_connected_graph

        path = tmp_path / "g40.el"
        save_graph(random_connected_graph(40, 3, extra_edges=20), path)
        code = run(["measure", path, "--exact-max", 40, "-o", tmp_path / "r.json"])
        assert code == cli.EXIT_REFUSED
        assert f"needs {4 << 40} bytes" in capsys.readouterr().err

    def test_vertex_cap_is_3(self, tmp_path, capsys):
        # a 12-byte header asking for 10^9 vertices is refused before allocation
        path = tmp_path / "huge.el"
        path.write_text("1000000000 0")
        assert run(["measure", path]) == cli.EXIT_REFUSED
        assert "exceed the cap" in capsys.readouterr().err

    def test_family_vertex_cap_checked_before_building(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(graphcore, "VERTEX_CAP", 1000)
        out = tmp_path / "g.el"
        start = time.perf_counter()
        assert run(["gen", "random-regular:n=20000,d=4,seed=1", "-o", out]) == cli.EXIT_REFUSED
        assert time.perf_counter() - start < 1.0
        assert "20000 vertices exceed the cap" in capsys.readouterr().err

        def unreachable(*args):
            raise AssertionError("constructor allocated for a refused vertex count")

        # each constructor refuses its own size before its first allocation
        monkeypatch.setattr(builders, "from_edges", unreachable)
        monkeypatch.setattr(builders, "Stream", unreachable)
        for spec in ("random-regular:n=1001,d=4", "cycle:n=1001", "complete:n=1001"):
            assert run(["gen", spec, "-o", out]) == cli.EXIT_REFUSED
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, edges",
        [("complete:n=60000", 1_799_970_000), ("random-regular:n=200000,d=100000", 10**10)],
    )
    def test_family_edge_cap_checked_before_building(self, tmp_path, capsys, monkeypatch,
                                                    spec, edges):
        def unreachable(*args):
            raise AssertionError("constructor allocated for a refused edge count")

        monkeypatch.setattr(builders, "from_edges", unreachable)
        monkeypatch.setattr(builders, "Stream", unreachable)
        out = tmp_path / "g.el"
        assert run(["gen", spec, "-o", out]) == cli.EXIT_REFUSED
        assert f"{edges} edges exceed the cap" in capsys.readouterr().err
        assert not out.exists()

    def test_hopeless_random_regular_refused_before_sampling(self, tmp_path, capsys):
        # a simple sample is expected once in about exp((d^2 - 1)/4) draws
        out = tmp_path / "g.el"
        with mock.patch("expanderlab.rng.Stream.shuffle") as shuffle:
            assert run(["gen", "random-regular:n=1000,d=998", "-o", out]) == cli.EXIT_REFUSED
        assert shuffle.call_count == 0
        assert "configuration model expects about 10^" in capsys.readouterr().err
        assert not out.exists()

    def test_power_edge_cap_checked_while_building(self, tmp_path, capsys, monkeypatch):
        # C_100 has 100 edges and passes the cap; its cube has 300
        monkeypatch.setattr(graphcore, "EDGE_CAP", 100)
        out = tmp_path / "g.el"
        assert run(["gen", "power:k=3,inner=(cycle:n=100)", "-o", out]) == cli.EXIT_REFUSED
        assert "edges exceed the cap of 100" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["magic", "anneal"])
    def test_unknown_strategy(self, tmp_path, strategy):
        # directly and replayed from a manifest: usage error 1 for search, input error 2 for probe
        host = tmp_path / "c10.el"
        run(["gen", "cycle:n=10", "-o", host])
        search_argv = ["search", str(host), "--girth", "4", "--strategy", strategy,
                       "-o", str(tmp_path / "s.el")]
        out = tmp_path / "probe"
        probe_argv = ["probe", "--family", "cycle:n=10", "--ratios", "0.5",
                      "--strategies", strategy, "--out-dir", str(out)]
        manifest = tmp_path / "m.json"
        for argv, code in ((search_argv, cli.EXIT_USAGE), (probe_argv, cli.EXIT_INPUT)):
            manifest.write_text(json.dumps({"argv": argv, "outputs": {"x": "0" * 64}}))
            for attempt in (argv, ["rerun", manifest]):
                try:
                    got = run(attempt)
                except SystemExit as exc:  # argparse's usage errors exit from the parser
                    got = exc.code
                assert got == code
        assert not (tmp_path / "s.el").exists()
        assert not out.exists()

    @pytest.mark.parametrize("recipe", ["transvections:3:9", "product:twisted:sanov:junk"])
    def test_recipe_with_a_field_left_over_is_2(self, tmp_path, recipe, capsys):
        # refused, not read as transvections:3 or product:twisted:sanov
        out = tmp_path / "c.el"
        assert run(["gen", f"cayley:recipe={recipe},p=7", "-o", out]) == cli.EXIT_INPUT
        tower = tmp_path / "t.csv"
        argv = ["tower", "--p", 3, "--levels", 1, "--recipe", recipe, "-o", tower]
        assert run(argv) == cli.EXIT_INPUT
        assert capsys.readouterr().err.count("input error") == 2
        assert not out.exists() and not tower.exists()

    @pytest.mark.parametrize(
        "recipe",
        ["transvections:3_0", "transvections: 3", "transvections:+3", "transvections:\u0663",
         "transvections:x"],
    )
    def test_transvection_power_outside_ascii_digits_is_2(self, tmp_path, recipe, capsys):
        # int() would read these as k = 30, 3, 3, 3 or fail with its own message
        out = tmp_path / "c.el"
        assert run(["gen", f"cayley:recipe={recipe},p=7", "-o", out]) == cli.EXIT_INPUT
        tower = tmp_path / "t.csv"
        argv = ["tower", "--p", 7, "--levels", 1, "--recipe", recipe, "-o", tower]
        assert run(argv) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count(f"recipe {recipe!r}: power must be digits 0-9") == 2
        assert not out.exists() and not tower.exists()

    def test_tower_refused_is_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(matgroups, "ORDER_CAP", 50)
        code = run(["tower", "--p", 3, "--levels", 3, "-o", tmp_path / "t.csv"])
        assert code == cli.EXIT_REFUSED

    @pytest.mark.parametrize(
        "spec", ["cayley:p=3,level=30000000", "cayley:p=2,level=64", "cayley:p=-3,level=30000000"]
    )
    def test_cayley_modulus_refused_before_the_power(self, tmp_path, spec, capsys):
        out = tmp_path / "c.el"
        start = time.perf_counter()
        assert run(["gen", spec, "-o", out]) == cli.EXIT_REFUSED
        assert time.perf_counter() - start < 1.0
        assert "must be below 2^64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("depth", [520, 2000])
    def test_spec_nested_too_deep_is_2(self, tmp_path, depth, capsys, monkeypatch):
        # refused as it is parsed, before anything is built; it once overflowed
        # the stack and exited 4
        spec = "power:k=1,inner=(" * depth + "cycle:n=5" + ")" * depth
        unreached = mock.Mock(side_effect=AssertionError("built"))
        monkeypatch.setattr(builders, "build_family", unreached)
        monkeypatch.setattr(search, "conjecture_probe", unreached)
        out = tmp_path / "g.el"
        assert run(["gen", spec, "-o", out]) == cli.EXIT_INPUT
        probe = ["probe", "--family", "cycle:n=5", "--family", spec, "--ratios", "1",
                 "--out-dir", tmp_path / "probe"]
        assert run(probe) == cli.EXIT_INPUT
        assert capsys.readouterr().err.count("nested deeper than 100 levels") == 2
        assert not out.exists() and not (tmp_path / "probe").exists()
        assert not unreached.called

    @pytest.mark.parametrize("spec", ["cayley:p=-3,level=2", "cayley:p=1,level=3"])
    def test_cayley_p_below_2_is_2(self, tmp_path, spec, capsys):
        # p=-3, level=2 would otherwise build SL(2, Z/9Z)
        out = tmp_path / "c.el"
        assert run(["gen", spec, "-o", out]) == cli.EXIT_INPUT
        assert "p must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec",
        [
            "random-regular:n=8,d=3,n=10,seed=1",
            "cycle:n=5,inner=(petersen)",
            "power:k=2,inner=(cycle:n=6),inner2=(petersen)",
            "petersen:inner=(cycle:n=4)",
            "power:k=2,inner=(cycle:n=6),inner=(cycle:n=7)",
        ],
    )
    def test_repeated_or_stray_spec_key_is_2(self, tmp_path, spec):
        # refused, not overwritten by the last value or dropped
        out = tmp_path / "g.el"
        assert run(["gen", spec, "-o", out]) == cli.EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, kind, key",
        [
            ("power:k=2", "power", "inner"),
            ("product:inner=(cycle:n=3)", "product", "inner2"),
            ("power:k=2,inner=(random-regular:n=8)", "random-regular", "d"),
        ],
    )
    def test_missing_required_key_refused_before_building(
        self, tmp_path, capsys, monkeypatch, spec, kind, key
    ):
        # refused where the spec is parsed: probe builds no earlier host either
        def unreachable(*args):
            raise AssertionError("builder ran for a spec missing a required key")

        for module, name in (
            (builders, "random_regular"), (builders, "named_graph"), (builders, "graph_power"),
            (builders, "cartesian_product"), (search, "graph_power"),
            (matgroups, "cayley_from_recipe"),
        ):
            monkeypatch.setattr(module, name, unreachable)
        out, out_dir = tmp_path / "g.el", tmp_path / "probe"
        for argv in (
            ["gen", spec, "-o", out],
            ["probe", "--family", "cycle:n=10", "--family", spec, "--ratios", "0.5",
             "--out-dir", out_dir],
        ):
            assert run(argv) == cli.EXIT_INPUT
            assert f"family spec {kind!r} missing required key {key!r}" in capsys.readouterr().err
        assert not out.exists() and not out_dir.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["balls", "{graph}", "--radius", "1", "--exact-limit", "16", "-o", "{out}"],
            ["tower", "--p", "3", "--levels", "1", "--order-cap", "100", "-o", "{out}"],
        ],
        ids=["balls-exact-limit", "tower-order-cap"],
    )
    def test_retired_flag_is_usage_error(self, tmp_path, argv):
        # directly and replayed from an old manifest that still names the flag
        host, out = tmp_path / "c10.el", tmp_path / "o.csv"
        run(["gen", "cycle:n=10", "-o", host])
        argv = [a.format(graph=host, out=out) for a in argv]
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"argv": argv, "outputs": {str(out): "0" * 64}}))
        for attempt in (argv, ["rerun", manifest]):
            assert run_usage_error(attempt) == cli.EXIT_USAGE
        assert not out.exists()

    def test_tower_without_levels_is_2(self, tmp_path):
        for levels in (0, -1):
            out = tmp_path / "t.csv"
            assert run(["tower", "--p", 3, "--levels", levels, "-o", out]) == cli.EXIT_INPUT
            assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--ratios", "0.5,0.5", "--strategies", "trim"],
            ["--ratios", "0.5", "--strategies", "trim,trim"],
            ["--ratios", "0.5", "--strategies", "trim",
             "--family", "random-regular:n=20,d=3,seed=1"],
        ],
    )
    def test_probe_repeated_input_is_2(self, tmp_path, extra):
        out = tmp_path / "probe"
        code = run(["probe", "--family", "random-regular:n=20,d=3,seed=1", *extra,
                    "--out-dir", out])
        assert code == cli.EXIT_INPUT
        assert not out.exists()

    def test_probe_empty_strategy_list_is_2_before_any_host(self, tmp_path, capsys, monkeypatch):
        def unbuilt(spec):
            raise AssertionError(f"built {spec}")

        monkeypatch.setattr(search, "build_family", unbuilt)
        out = tmp_path / "probe"
        code = run(["probe", "--family", "cycle:n=10", "--ratios", "0.5", "--strategies", ",",
                    "--out-dir", out])
        assert code == cli.EXIT_INPUT
        assert "need at least one strategy" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("strategies", ["trim", "all"])
    def test_probe_ignores_a_blank_strategy_entry(self, tmp_path, strategies):
        for given in (strategies, strategies + ","):
            assert run(["probe", "--family", "cycle:n=10", "--ratios", "0.5", "--strategies",
                        given, "--budget", 10, "--out-dir", tmp_path / given]) == 0
        for name in ("probe.csv", "probe_summary.json"):
            blank, plain = tmp_path / (strategies + ",") / name, tmp_path / strategies / name
            assert blank.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "first, second",
        [
            ("random-regular:n=20,d=3", "random-regular:n=20,d=3,seed=0"),
            ("cayley:p=5", "cayley:recipe=elementary,p=5,level=1"),
            ("cycle:n=5", "power:k=1,inner=(cycle:n=5)"),
        ],
    )
    def test_probe_same_graph_under_two_specs_is_2(self, tmp_path, first, second):
        # the specs differ by a default or in kind, yet build one graph
        out = tmp_path / "probe"
        code = run(["probe", "--family", first, "--family", second, "--ratios", "0.5",
                    "--strategies", "trim", "--out-dir", out])
        assert code == cli.EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("ratio", ["inf", "nan", "0", "-1", "1e308"])
    def test_bad_ratio_is_2(self, tmp_path, ratio):
        host = tmp_path / "c10.el"
        run(["gen", "cycle:n=10", "-o", host])
        assert run(["search", host, "--ratio", ratio, "-o", tmp_path / "s.el"]) == cli.EXIT_INPUT
        code = run(["probe", "--family", "cycle:n=10", "--ratios", ratio,
                    "--out-dir", tmp_path / "probe"])
        assert code == cli.EXIT_INPUT


@pytest.mark.parametrize(
    "module",
    sorted(m.name for m in pkgutil.iter_modules(expanderlab.__path__) if m.name != "__main__"),
)
def test_module_imports_alone(module):
    # one fresh interpreter per module, so that no earlier import hides a cycle
    src = str(Path(expanderlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", f"import expanderlab.{module}"], env=env, check=True)


def test_cli_import_leaves_multiprocessing_unloaded():
    # every command pays for what `expanderlab.cli` imports; only the probe needs a pool
    src = str(Path(expanderlab.__file__).resolve().parents[1])
    code = "import sys, expanderlab.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    assert out == "False\n"


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and at least two CPUs",
)
def test_probe_bytes_do_not_depend_on_worker_count(tmp_path):
    # the probe runs one worker per CPU in its affinity mask: here all of them, then one
    argv = ["probe", "--family", "random-regular:n=20,d=4,seed=3", "--family", "cycle:n=12",
            "--ratios", "0.25,0.5", "--strategies", "all", "--budget", "50", "--seed", "5"]
    assert run([*argv, "--out-dir", tmp_path / "pool"]) == 0
    one_cpu = {min(os.sched_getaffinity(0))}
    src = str(Path(expanderlab.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-m", "expanderlab", *argv, "--out-dir", "one"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
        timeout=300,
        preexec_fn=lambda: os.sched_setaffinity(0, one_cpu),
    )
    for name in ("probe.csv", "probe_summary.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "pool" / name).read_bytes()


def test_package_import_loads_no_submodule():
    # the package holds only its version, so `import expanderlab.<m>` loads m alone
    src = str(Path(expanderlab.__file__).resolve().parents[1])
    code = (
        "import sys, expanderlab\n"
        "print(sorted(m for m in sys.modules if m.startswith(('expanderlab.', 'numpy'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    assert out == "[]\n"


def test_readme_command_block_runs(tmp_path):
    # each `expanderlab ...` line under "Command line", in order, as `python -m expanderlab`
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", "").splitlines()
    commands = [c for c in (shlex.split(line, comments=True) for line in lines) if c]
    assert all(c[0] == "expanderlab" for c in commands)
    assert commands[-1][1] == "rerun"
    src = str(Path(expanderlab.__file__).resolve().parents[1])
    for argv in commands:
        done = subprocess.run(
            [sys.executable, "-m", "expanderlab", *argv[1:]],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, (argv, done.stderr)
