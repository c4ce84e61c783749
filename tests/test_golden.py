"""Golden report bytes: the default-corpus `theorems` output, pinned by sha256.

C10 only compares two runs of the same code; these digests were captured
before the statement and predicate registries were merged, so any change
to a report byte (a reason, a certificate, an instance order) fails here.
Regenerate them only for a change that is meant to alter the report.
"""

import hashlib

import pytest

from hyperlab.cli import main

GOLDEN = {
    ("theorems", "--json"):
        "40032a96347dfbb8fcd3345863589caee88abb5e0fb7264bf3afe7fd0a4a7caf",
    ("theorems",):
        "68666881122e589913820f1eac653306c5019ac0b1fb6a862f4acb3a6f18b913",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_default_corpus_report_bytes(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[argv]
