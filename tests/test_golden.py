"""Replays every recorded corpus ``golden/*.json`` in process: every argv
in it must give the recorded exit code, the sha256 of the recorded stdout
and the exact recorded stderr (see each corpus' ``about`` for what it
holds and where it was recorded)."""
import hashlib
import json
from pathlib import Path

import pytest

from orbichar.cli import main

ENTRIES = [
    (path.stem, entry)
    for path in sorted((Path(__file__).parent / "golden").glob("*.json"))
    for entry in json.loads(path.read_text())["entries"]
]


@pytest.mark.parametrize(
    "corpus, entry", ENTRIES, ids=[f"{c}: {' '.join(e['argv'])}" for c, e in ENTRIES]
)
def test_golden_corpus_replays(capsys, corpus, entry):
    code = main(list(entry["argv"]))
    captured = capsys.readouterr()
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert (code, digest, captured.err) == (
        entry["exit"],
        entry["stdout_sha256"],
        entry["stderr"],
    )
