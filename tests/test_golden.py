"""The command line's bytes: every case in tests/golden/ reruns through
`rfvlc.cli.main` and gives back its recorded exit code, stdout, stderr and
`--out` file text exactly.  tests/golden/generate.py writes the cases.
The Monte Carlo digits hold for the numpy they were recorded with (2.4): a
numpy that changes `Generator`'s streams would change them too."""
import json
import pathlib

import pytest

from golden.generate import cases, run_case

CASES = sorted((pathlib.Path(__file__).resolve().parent / "golden").glob("*.json"))


def test_every_generated_case_is_recorded():
    assert sorted(p.stem for p in CASES) == sorted(cases())


@pytest.mark.parametrize("path", CASES, ids=[p.stem for p in CASES])
def test_output_is_unchanged(path, tmp_path):
    want = json.loads(path.read_text(encoding="utf-8"))
    assert run_case(want["argv"], want["config"], tmp_path) == want
