"""tools/byte_identity.py reports a one-byte change in a report.

The script's check runs a two-command list in the repository's tree and in
a copy of its src: a copy with one byte of cli.py's semidirect report
changed must be reported, under every variant, and exit 1; a clean copy
must pass.
"""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "byte_identity", ROOT / "tools" / "byte_identity.py")
byte_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_identity)

SEMIDIRECT = ("-m", "groupoids", "semidirect",
              "src/groupoids/data/tree_swap.act")
CASES = {
    (SEMIDIRECT, None): None,
    (("-m", "groupoids", "abelianize", "src/groupoids/data/f2.pres"),
     None): None,
}


def _copy(tmp_path, label, old=None, new=None):
    tree = tmp_path / label
    shutil.copytree(ROOT / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if old is not None:
        cli = tree / "src" / "groupoids" / "cli.py"
        text = cli.read_text(encoding="utf-8")
        assert text.count(old) == 1
        cli.write_text(text.replace(old, new), encoding="utf-8")
    return label, tree


def test_a_one_byte_change_is_reported_and_a_clean_copy_passes(
        tmp_path, capsys):
    here = ("working tree", ROOT)
    planted = _copy(tmp_path, "planted", 'f"semidirect product {',
                    'f"semidirect producT {')
    assert byte_identity.check(CASES, [here, planted], tmp_path) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(byte_identity.VARIANTS) == 4
    for line, (flags, seed) in zip(lines, byte_identity.VARIANTS):
        assert line == " ".join(
            ["planted", *flags, f"PYTHONHASHSEED={seed}: differs in stdout "
             "from working tree's first run: python -m groupoids semidirect "
             "src/groupoids/data/tree_swap.act"])

    clean = _copy(tmp_path, "clean")
    assert byte_identity.check(CASES, [here, clean], tmp_path) == 0
    assert capsys.readouterr().out == (
        "byte-identical: 16 runs of 2 commands in 2 tree(s)\n")
