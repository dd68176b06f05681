"""The repository's comparison tool, tools/same_outputs.py."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def _outputs(tmp_path, ref_text: str, new_text: str) -> tuple:
    """(working-tree directory, REF directory), each with one summary.json."""
    dirs = tmp_path / "new", tmp_path / "ref"
    for directory, text in zip(dirs, (new_text, ref_text)):
        directory.mkdir()
        (directory / "summary.json").write_text(text, encoding="utf-8")
    return dirs


class TestMovedCells:
    # each pair compares equal in Python after json.loads, but not in the file
    @pytest.mark.parametrize("old, new", [("-0.0", "0.0"), ("1", "1.0"), ("true", "1")])
    def test_json_leaves_are_compared_as_text(self, tmp_path, old, new):
        ours, theirs = _outputs(tmp_path, f'{{"value": {old}}}\n', f'{{"value": {new}}}\n')
        lines, _ = same_outputs.moved_cells(ours, theirs)
        assert len(lines) == 1 and lines[0].startswith("summary.json .value: ")
        assert old in lines[0] and new in lines[0]

    def test_bytes_that_differ_with_no_moved_cell_are_reported(self, tmp_path):
        ours, theirs = _outputs(tmp_path, '{"value": 1}\n', '{"value":  1}\n')
        assert same_outputs.moved_cells(ours, theirs) == (
            ["summary.json: bytes differ, no cell moved"], None
        )

    def test_identical_files_move_nothing(self, tmp_path):
        ours, theirs = _outputs(tmp_path, '{"value": -0.0}\n', '{"value": -0.0}\n')
        assert same_outputs.moved_cells(ours, theirs) == ([], None)
