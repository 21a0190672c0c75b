"""The byte corpus: every request of tests/data/golden.json, replayed
through cli.main, gives the recorded exit code, stdout, stderr and files.

The manifest is rewritten by tests/golden.py; see its docstring for what it
holds and README.md (Tests) for which bytes depend on the numpy and libm
builds.
"""

import json

from golden import MANIFEST, replay


def test_corpus_replays_byte_for_byte(tmp_path):
    records = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert len(records) > 50
    requests = ({key: record[key] for key in ("name", "argv", "scenario")} for record in records)
    replayed = [replay(request, tmp_path / str(k)) for k, request in enumerate(requests)]
    assert [r["name"] for r, record in zip(replayed, records) if r != record] == []
