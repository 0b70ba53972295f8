"""Digest what the CLI prints over a directory of graph files.

    PYTHONPATH=src python scripts/make_corpus.py --out corpus
    PYTHONPATH=src python scripts/output_digest.py corpus

Runs cycledec.cli.main in-process on every .graph file of the directory, in
name order, for `check`, `check --witness`, `decompose`, `numbers` and
`oracle`. Each command gets one line: the command, the file count, and a
sha256 over (file name, exit code, stdout, stderr) of each of its runs.
Run it in two checkouts on the same directory and diff the lines: equal
lines mean byte-identical output.
"""

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

from cycledec.cli import main as cli_main

COMMANDS = (("check",), ("check", "--witness"), ("decompose",), ("numbers",), ("oracle",))


def digest(files: list[Path], command: tuple[str, ...]) -> str:
    h = hashlib.sha256()
    for path in files:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main([*command, str(path)])
        h.update(repr((path.name, code, out.getvalue(), err.getvalue())).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("corpus", metavar="DIR", help="directory of .graph files")
    args = parser.parse_args(argv)
    files = sorted(Path(args.corpus).glob("*.graph"))
    if not files:
        print(f"error: no .graph files in {args.corpus}", file=sys.stderr)
        return 2
    for command in COMMANDS:
        print(f"{' '.join(command)} {len(files)} {digest(files, command)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
