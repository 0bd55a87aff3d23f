"""Golden CLI session: stdout, stderr, exit code and written files of a
fixed list of in-process ``radiolab`` calls, compared byte for byte.

The expected data lives in ``data/cli_golden.json``.  After an intended
change of output, regenerate it with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of the data file entry by entry.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from radiolab.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

GRAPHS = {  # file stem -> construct arguments
    "petersen": ["petersen"],
    "heawood": ["pg-incidence", "2"],
    "cage38": ["cage-3-8"],
    "c7": ["cycle", "7"],
    "c8": ["cycle", "8"],
    "c13": ["cycle", "13"],
    "p8": ["path", "8"],
    "erq3": ["erq", "3"],
    "singer3c": ["singer", "3", "--complement"],
}

SESSION = [  # run in order: verify reads the files label wrote before it
    "analyze petersen.el",
    "analyze petersen.el --json -o petersen.analyze.json",
    "analyze heawood.el --json",
    "analyze cage38.el",
    "analyze cage38.el --json",
    "analyze cage38.el --budget 1",
    "analyze c7.el",
    "analyze c7.el --json",
    "analyze c8.el",
    "analyze c13.el --json",
    "analyze erq3.el",
    "analyze singer3c.el --json",
    "label petersen.el",
    "label heawood.el -o heawood.lab.json",
    "label cage38.el -o cage38.lab.json",
    "label cage38.el --budget 1",
    "label c7.el",
    "label c8.el",
    "label c13.el",
    "label petersen.el --method antipodal-path",
    "label c7.el --method antipodal-path",
    "label c13.el --method antipodal-path",
    "label cage38.el --method antipodal-path",
    "label p8.el --method antipodal-path",
    "label cage38.el --method quad-glue",
    "label heawood.el --method quad-glue",
    "label cage38.el --method hex-glue",
    "label erq3.el --method singer -o erq3.lab.json",
    "label singer3c.el --method singer-complement",
    "label petersen.el --method singer",
    "verify heawood.el heawood.lab.json",
    "verify cage38.el cage38.lab.json --json",
    "verify erq3.el erq3.lab.json",
    "radio-number c7.el",
    "radio-number c8.el --json -o c8.rn.json",
    "radio-number c13.el",
]


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_session(workdir) -> dict:
    """Every SESSION command's record, keyed by the command line."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for stem, params in GRAPHS.items():
            assert _call(["construct", *params, "-o", f"{stem}.el"])[0] == 0
        records = {}
        for command in SESSION:
            argv = command.split()
            written = argv[argv.index("-o") + 1] if "-o" in argv else None
            code, out, err = _call(argv)
            files = {}
            if written is not None and os.path.exists(written):
                files[written] = Path(written).read_text(encoding="ascii")
            records[command] = {"exit": code, "stdout": out, "stderr": err,
                                "files": files}
        return records
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    return run_session(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_session(golden):
    assert list(golden) == SESSION


@pytest.mark.parametrize("command", SESSION)
def test_cli_golden(session, golden, command):
    assert session[command] == golden[command]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = run_session(tmp)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
