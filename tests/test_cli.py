import contextlib
import hashlib
import importlib.util
import io
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

import cycledec as cd
from conftest import graph_texts
from cycledec import recognition
from cycledec.cli import main
from cycledec.oracle import DEFAULT_EDGE_LIMIT, MAX_SEARCH_DEPTH, MAX_SEARCH_STATES


def run_capped(argv):
    """Run the CLI in a child capped at 1 GiB of address space, so that an
    allocation without bound fails there instead of exhausting memory."""
    cap = 1 << 30
    env = dict(os.environ, PYTHONPATH=str(Path(cd.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "cycledec.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


def write_graph_file(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(cd.write_graph(g))
    return str(path)


@pytest.fixture
def necklace3_file(tmp_path):
    return write_graph_file(tmp_path, "n3.graph", cd.gen_closed_necklace(3))


@pytest.fixture
def bowtie_file(tmp_path):
    g = cd.MultiGraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    return write_graph_file(tmp_path, "bowtie.graph", g)


class TestCheck:
    def test_unique_exit_zero(self, tmp_path, capsys):
        path = write_graph_file(tmp_path, "c6.graph", cd.gen_cycle(6))
        assert main(["check", path]) == 0
        assert capsys.readouterr().out == "UNIQUE\n"

    def test_nonunique_exit_one(self, necklace3_file, capsys):
        assert main(["check", necklace3_file]) == 1
        assert capsys.readouterr().out == "NOT-UNIQUE\n"

    def test_witness_block(self, necklace3_file, capsys):
        assert main(["check", "--witness", necklace3_file]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "NOT-UNIQUE"
        assert out[1] == "WITNESS"
        assert out[2] == "p 3 6"
        assert "CYCLE-PAIR" in out
        cyc = [l for l in out if l.startswith("C ")]
        assert len(cyc) == 2

    def test_per_component(self, bowtie_file, capsys):
        assert main(["check", "--per-component", bowtie_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "UNIQUE"
        blocks = [l for l in out if l.startswith("block ")]
        assert len(blocks) == 2
        assert all(l.endswith("unique") for l in blocks)

    def test_per_component_decides_each_block_once(self, tmp_path, capsys, monkeypatch):
        # C4, doubled triangle, C3 glued in a chain: the middle block fails
        g, _ = cd.vertex_identification(cd.gen_cycle(4), 2, cd.gen_closed_necklace(3), 0)
        g, _ = cd.vertex_identification(g, 5, cd.gen_cycle(3), 0)
        path = write_graph_file(tmp_path, "chain.graph", g)
        decided = []
        inner = recognition._block_is_unique
        monkeypatch.setattr(recognition, "_block_is_unique", lambda h: decided.append(h) or inner(h))
        assert main(["check", "--per-component", path]) == 1
        assert capsys.readouterr().out == (
            "NOT-UNIQUE\n"
            "block 0: n=4 m=4 unique\n"
            "block 1: n=3 m=6 nonunique\n"
            "block 2: n=3 m=3 unique\n"
        )
        assert len(decided) == 3

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(cd.write_graph(cd.gen_cycle(4))))
        assert main(["check", "-"]) == 0
        assert capsys.readouterr().out == "UNIQUE\n"

    def test_non_eulerian_is_a_usage_error(self, tmp_path, capsys):
        path = write_graph_file(tmp_path, "path.graph", cd.MultiGraph(3, [(0, 1), (1, 2)]))
        assert main(["check", path]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "decompose", "numbers", "oracle"])
    def test_invalid_utf8_file_is_a_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "bad.graph"
        path.write_bytes(b"p 2 2\n\xff 0 1\ne 0 1\n")
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff")

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/x.graph"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_syntax_error_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("p 2 1\ne 0 5\n")
        assert main(["check", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_randomized_order_accepted(self, necklace3_file, capsys):
        assert main(["check", "--randomized-order", "7", necklace3_file]) == 1
        assert capsys.readouterr().out == "NOT-UNIQUE\n"

    @pytest.mark.parametrize("command", ["check", "decompose", "numbers", "oracle"])
    def test_huge_header_exits_three_before_allocating(self, tmp_path, command):
        # a parser that allocated per header vertex would fail in the capped child
        path = tmp_path / "bomb.graph"
        path.write_text("p 1000000000000 0\n")
        proc = run_capped([command, str(path)])
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: line 1: n=1000000000000 exceeds the vertex budget {cd.multigraph.MAX_VERTICES}\n"
        )


    @given(graph_texts())
    def test_any_text_ends_in_an_exit_code(self, text):
        # an exception that main does not turn into exit 2 or 3 would
        # propagate here as a traceback
        for command in ("check", "decompose", "numbers", "oracle"):
            with contextlib.ExitStack() as stack:
                stack.enter_context(pytest.MonkeyPatch.context()).setattr(sys, "stdin", io.StringIO(text))
                stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
                stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
                code = main([command, "-"])
            assert code in (0, 1, 2, 3), command


class TestDecompose:
    def test_cycle_report(self, tmp_path, capsys):
        path = write_graph_file(tmp_path, "c5.graph", cd.gen_cycle(5))
        assert main(["decompose", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "GRAPH 5 5"
        ve = [l for l in out if l.startswith("VE ")]
        assert len(ve) == 3
        comps = [l for l in out if l.startswith("COMPONENT ")]
        assert len(comps) == 4
        assert all(l.endswith("multiedge=yes") for l in comps)
        assert out[-1] == "VERDICT unique"

    @pytest.mark.parametrize("graph", [
        cd.MultiGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        cd.MultiGraph(2, [(0, 1)]),
    ], ids=["two-triangles", "odd-degree"])
    def test_non_eulerian_is_a_usage_error(self, tmp_path, capsys, graph):
        path = write_graph_file(tmp_path, "bad.graph", graph)
        for command in ("decompose", "check", "numbers"):
            assert main([command, path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "defined for connected even graphs" in captured.err

    def test_nonunique_verdict_and_exit(self, necklace3_file, capsys):
        assert main(["decompose", necklace3_file]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "VERDICT nonunique"
        assert any(l.endswith("multiedge=no") for l in out)

    def test_trace_file_replays(self, tmp_path, capsys):
        path = write_graph_file(tmp_path, "c7.graph", cd.gen_cycle(7))
        trace_path = tmp_path / "c7.trace"
        assert main(["decompose", "--trace-out", str(trace_path), path]) == 0
        text = trace_path.read_text()
        ve_lines = [l for l in text.splitlines() if l.startswith("VE ")]
        assert len(ve_lines) == 5
        tokens = ve_lines[0].split()
        assert len(tokens) == 10 and tokens[3] == "->"
        assert all(t.isdigit() for t in tokens[1:3] + tokens[4:])

    def test_dot_file(self, bowtie_file, tmp_path, capsys):
        dot_path = tmp_path / "b.dot"
        assert main(["decompose", "--dot-out", str(dot_path), bowtie_file]) == 0
        text = dot_path.read_text()
        assert text.startswith("graph blockstructure {")
        assert text.rstrip().endswith("}")
        assert text.count("shape=box") == 2  # two lobes
        assert "b0 -- v0;" in text and "b1 -- v0;" in text


class TestOracleCmd:
    def test_reports_numbers_and_witnesses(self, tmp_path, capsys):
        path = write_graph_file(tmp_path, "c6.graph", cd.gen_cycle(6))
        assert main(["oracle", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "c 1"
        assert out[1] == "nu 1"
        assert out[2] == "MIN"
        assert out[3] == "C 0 1 2 3 4 5"
        assert out[4] == "MAX"

    def test_too_large_exit_three(self, tmp_path, capsys):
        g, _ = cd.gen_class_G(20, 1)
        path = write_graph_file(tmp_path, "big.graph", g)
        assert main(["oracle", path]) == 3
        assert "error:" in capsys.readouterr().err

    def test_edge_limit_flag(self, tmp_path, capsys):
        path = write_graph_file(tmp_path, "c26.graph", cd.gen_cycle(26))
        assert main(["oracle", "--edge-limit", "26", path]) == 0

    def test_deep_search_exit_three(self, tmp_path, capsys):
        # a raised edge budget must not turn a long cycle into a RecursionError
        path = write_graph_file(tmp_path, "c1500.graph", cd.gen_cycle(1500))
        assert main(["oracle", "--edge-limit", "5000", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["oracle", "numbers"])
    def test_search_state_cap_exit_three(self, tmp_path, command):
        # n = 16, m = 71: the cycles through the first edge alone would
        # exhaust the capped child before the search made one memo entry
        path = write_graph_file(tmp_path, "dense.graph", cd.gen_random_eulerian(16, 14, 3))
        proc = run_capped([command, "--edge-limit", "100", path])
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (f"error: more than {MAX_SEARCH_STATES} memo entries and listed cycles; "
                               "the graph is too large for exhaustive search\n")

    def test_depth_cap_clears_the_default_budget(self):
        # a walk or a search never nests deeper than the edge count
        assert MAX_SEARCH_DEPTH > DEFAULT_EDGE_LIMIT


class TestNumbersCmd:
    def test_reports_both(self, necklace3_file, capsys):
        assert main(["numbers", necklace3_file]) == 0
        assert capsys.readouterr().out == "c 2\nnu 3\n"

    def test_randomized_order(self, necklace3_file, capsys):
        for seed in ("3", "4"):
            assert main(["numbers", "--randomized-order", seed, necklace3_file]) == 0
            assert capsys.readouterr().out == "c 2\nnu 3\n"

    def test_component_budget_exit_three(self, tmp_path, capsys):
        k5 = cd.MultiGraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        path = write_graph_file(tmp_path, "k5.graph", k5)
        assert main(["numbers", "--edge-limit", "5", path]) == 3


def corpus_families():
    """scripts/make_corpus.py's instances at its default sizes."""
    path = Path(__file__).parents[1] / "scripts" / "make_corpus.py"
    spec = importlib.util.spec_from_file_location("make_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    cfg = module.CorpusConfig(out=Path("corpus"), seed=0, per_family=10, min_n=2, max_n=30)
    return [g for _, g, _ in module.family_instances(cfg)]


class TestFrozenVerdicts:
    """One digest of `check --per-component` and `numbers` output, exit codes
    included, over the corpus script's families, every generator family at
    sizes up to 240, and non-unique graphs of treewidth 2. It pins the
    verdict and numbers routes across rewrites of the series-parallel
    reduction."""

    DIGEST = "57230da787304804f7bfa38a3f2915566a29adb6ffbdb8fef182009b0b7bb854"

    def graphs(self):
        yield from corpus_families()
        for n in (4, 16, 60, 240):
            for seed in (1, 2, 3):
                yield cd.gen_eulerian_multiedge(n)
                yield cd.gen_cycle(n)
                yield cd.gen_closed_necklace(n)
                yield cd.gen_class_G(n, seed)[0]
                yield cd.gen_class_H(n, seed)
                yield cd.gen_class_H_prime(n, seed)
                yield cd.gen_random_eulerian(n, max(1, n // 8), seed)
        for d in (3, 10, 50):
            # d routes 0 = x = 1, every edge doubled, and the same with
            # a triangle hung off each x
            yield cd.MultiGraph(2 + d, [e for i in range(d) for e in ((0, 2 + i),) * 2 + ((2 + i, 1),) * 2])
            g = cd.gen_closed_necklace(d)
            for v in range(d):
                g, _ = cd.vertex_identification(g, v, cd.gen_cycle(3), 0)
            yield g

    def test_check_and_numbers_output(self, tmp_path, capsys):
        path = str(tmp_path / "g.graph")
        h = hashlib.sha256()
        for g in self.graphs():
            Path(path).write_text(cd.write_graph(g))
            for argv in (["check", "--per-component", path], ["numbers", path]):
                code = main(argv)
                h.update(f"{code}\n{capsys.readouterr().out}".encode())
        assert h.hexdigest() == self.DIGEST


class TestRepeatedCalls:
    def test_calls_in_one_process_print_what_each_prints_alone(self, tmp_path, capsys):
        # one parser serves every call; a flag of one call must not leak into the next
        from cycledec import cli
        assert cli._build_parser() is cli._build_parser()
        bad, _ = cd.edge_identification(cd.MultiGraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)]),
                                        0, 0, cd.gen_cycle(6), 0, 0)
        path = write_graph_file(tmp_path, "bad.graph", bad)
        calls = [
            ["numbers", "--randomized-order", "5", path],
            ["numbers", path],
            ["check", "--witness", "--randomized-order", "3", path],
            ["check", path],
            ["check", "--per-component", path],
            ["decompose", "--randomized-order", "17", path],
            ["decompose", path],
            ["oracle", "--edge-limit", "30", path],
            ["numbers", "--edge-limit", "5", path],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(cd.__file__).parents[1]))
        for argv in calls:
            alone = subprocess.run([sys.executable, "-m", "cycledec.cli", *argv],
                                   capture_output=True, text=True, env=env, timeout=120)
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (alone.returncode, alone.stdout, alone.stderr), argv


class TestGenerate:
    def test_writes_instances_and_manifest(self, tmp_path, capsys):
        assert main(["generate", "classG", "12", "--seed", "3", "--count", "2",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        files = sorted(p.name for p in tmp_path.iterdir())
        assert "classG-12-s3.graph" in files
        assert "classG-12-s3.script" in files
        assert "classG-12-s4.graph" in files
        assert "manifest.txt" in files
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert len(manifest) == 2
        assert all("family=classG" in l and "params=12" in l for l in manifest)
        g = cd.parse_graph((tmp_path / "classG-12-s3.graph").read_text())
        expected, script = cd.gen_class_G(12, 3)
        assert g == expected
        replayed = cd.replay_script(cd.parse_script((tmp_path / "classG-12-s3.script").read_text()))
        assert replayed == expected
        assert "classG-12-s3.graph" in out

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            assert main(["generate", "randomEulerian", "9", "2", "--seed", "11",
                         "--out", str(tmp_path / sub)]) == 0
        capsys.readouterr()
        fa = (tmp_path / "a" / "randomEulerian-9x2-s11.graph").read_bytes()
        fb = (tmp_path / "b" / "randomEulerian-9x2-s11.graph").read_bytes()
        assert fa == fb

    @pytest.mark.parametrize("params", [
        ["multiedge", "100000000000"], ["cycle", "300000000"], ["necklace", "300000000"],
        ["classG", "300000000"], ["classH", "300000000"], ["classHprime", "300000000"],
        ["randomEulerian", "10", "100000000000"],
    ])
    def test_oversized_requests_exit_three_before_allocating(self, tmp_path, params):
        proc = run_capped(["generate", *params, "--out", str(tmp_path)])
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: the graph ")
        assert proc.stderr.endswith(f"edges, over the budget {cd.multigraph.MAX_VERTICES}\n")
        assert list(tmp_path.iterdir()) == []

    def test_bad_params_exit_two(self, tmp_path, capsys):
        assert main(["generate", "multiedge", "0", "--out", str(tmp_path)]) == 2
        assert main(["generate", "noSuchFamily", "3", "--out", str(tmp_path)]) == 2
        assert main(["generate", "multiedge", "--out", str(tmp_path)]) == 2
        assert main(["generate", "multiedge", "2", "7", "--out", str(tmp_path)]) == 2
        capsys.readouterr()
