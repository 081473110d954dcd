"""The bitwise fingerprint tool (``tools/fingerprint.py``): a small case
set run twice in one process gives equal manifests, which also pins
byte-deterministic losses, gradients and CLI artifacts."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"


def _tool():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_quick_manifest_repeats_bit_for_bit():
    fingerprint = _tool()
    first, second = fingerprint.manifest(quick=True), fingerprint.manifest(quick=True)
    assert fingerprint.differing(first, second) == []
    assert {"env", "loss/lbp/n7/parts-on/dropout-on/trained", "cli/train",
            "cli/trace/lbp/T3", "cli/gradcheck"} <= first.keys()
    assert all(entry["code"] == 0 for key, entry in first.items() if key.startswith("cli/"))


def test_compare_lists_the_keys_that_differ(tmp_path, capsys):
    fingerprint = _tool()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text('{"x": "1", "y": "2"}', encoding="utf-8")
    b.write_text('{"x": "1", "y": "3", "z": "4"}', encoding="utf-8")
    assert fingerprint.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.split() == ["y", "z"]
    assert fingerprint.main(["--compare", str(a), str(a)]) == 0
