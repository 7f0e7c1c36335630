"""Command line outputs, byte for byte, against the recorded reference.

tests/golden/cli_outputs.json holds the exit code, stdout and stderr of each
recorded `hyperaut` call; tests/golden/regenerate.py writes it.  A change
that keeps every verdict, JSON field and exit code passes unchanged.
"""

import json
from pathlib import Path

import pytest

from hyperaut.cli import main

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "cli_outputs.json").read_text()
)


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[" ".join(c["argv"])[:80] for c in GOLDEN]
)
def test_cli_output_matches_the_golden_record(capsys, case):
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        case["code"], case["stdout"], case["stderr"]
    )
