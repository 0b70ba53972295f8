"""scripts/output_digest.py: one line per command, stable across runs."""

import importlib.util
from pathlib import Path

import cycledec as cd


def load_script():
    path = Path(__file__).parents[1] / "scripts" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_line_per_command_and_the_same_digests_twice(tmp_path, capsys):
    graphs = {
        "necklace-3": cd.gen_closed_necklace(3),
        "cycle-5": cd.gen_cycle(5),
        "classG-6": cd.gen_class_G(6, 1)[0],
        "random-6": cd.gen_random_eulerian(6, 2, 1),
        "path-3": cd.MultiGraph(3, [(0, 1), (1, 2)]),  # not even: exit 2
    }
    for name, g in graphs.items():
        (tmp_path / f"{name}.graph").write_text(cd.write_graph(g))
    script = load_script()
    runs = []
    for _ in range(2):
        assert script.main([str(tmp_path)]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    commands = [" ".join(command) for command in script.COMMANDS]
    assert commands == ["check", "check --witness", "decompose", "numbers", "oracle"]
    assert len(runs[0]) == len(commands)
    for line, command in zip(runs[0], commands):
        head, digest = line.rsplit(" ", 1)
        assert head == f"{command} 5"
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    assert len({line.rsplit(" ", 1)[1] for line in runs[0]}) == len(commands)


def test_empty_directory_is_a_usage_error(tmp_path, capsys):
    assert load_script().main([str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: no .graph files")
