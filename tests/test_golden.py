"""Replays the recorded corpus ``golden/exp_main.json`` in process: every
``verify exp`` and ``verify main`` argv in it must give the recorded exit
code, the sha256 of the recorded stdout and the exact recorded stderr (see
the corpus' ``about`` for what it holds and where it was recorded)."""
import hashlib
import json
from pathlib import Path

import pytest

from orbichar.cli import main

CORPUS = json.loads((Path(__file__).parent / "golden" / "exp_main.json").read_text())


@pytest.mark.parametrize(
    "entry", CORPUS["entries"], ids=lambda entry: " ".join(entry["argv"])
)
def test_exp_main_corpus_replays(capsys, entry):
    code = main(list(entry["argv"]))
    captured = capsys.readouterr()
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert (code, digest, captured.err) == (
        entry["exit"],
        entry["stdout_sha256"],
        entry["stderr"],
    )
