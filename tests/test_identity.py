"""CLI byte-identity: the digests of tools/identity.py's grid are the committed ones."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"


def test_cli_output_matches_the_committed_digests():
    # A deliberate output change re-takes the digests with
    # `python3 tools/identity.py --write`, in the change that makes it.
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    committed = json.loads(identity.COMMITTED.read_text(encoding="utf-8"))
    assert identity.digests() == committed
