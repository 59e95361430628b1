"""Report bytes of every README CLI example, compared with stored copies.

``tests/data/readme_cli/`` holds, for each ``modlab`` line of the README
CLI block (numbered in order), the stdout it prints and, for ``sweep``,
the CSV and fit JSON it writes.  A change that deliberately moves report
bytes (the accuracy exception of the roadmap) refreshes the copies with

    PYTHONPATH=src python tests/test_golden_reports.py

and says so in CHANGES.md.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from modlab.cli import main
from test_cli import ROOT, readme_cli_commands

DATA = Path(__file__).resolve().parent / "data" / "readme_cli"
LINES = list(enumerate(readme_cli_commands(), 1))


def capture(i: int, argv: list, workdir: Path) -> dict:
    """{stored file name: bytes} of README line i, run from the repo root.

    ``--out`` is redirected into ``workdir``; its files keep their names.
    """
    stem = f"{i:02d}-{argv[0]}"
    argv = list(argv)
    written = []
    if "--out" in argv:
        j = argv.index("--out") + 1
        out = workdir / argv[j]
        argv[j] = str(out)
        written = [out, out.with_name(out.stem + ".fit.json")]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{stem} exited {code}"
    files = {f"{stem}.stdout": buf.getvalue().encode("utf-8")}
    for path in written:
        files[f"{stem}.{path.name.split('.', 1)[1]}"] = path.read_bytes()
    return files


@pytest.mark.parametrize("i, argv", LINES,
                         ids=[f"{i:02d}-{a[0]}" for i, a in LINES])
def test_readme_report_bytes_unchanged(i, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    for name, data in capture(i, argv, tmp_path).items():
        assert data == (DATA / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile

    os.chdir(ROOT)
    DATA.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in LINES:
            for name, data in capture(i, argv, Path(tmp)).items():
                (DATA / name).write_bytes(data)
                print(name, len(data), file=sys.stderr)
