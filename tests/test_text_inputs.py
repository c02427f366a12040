"""Every text input goes through one reader (`datasets._text_lines`): edge,
feature, sweep-CSV and config files are UTF-8 with an optional BOM, blank
lines are skipped, line numbers are the file's own, and a file that is not
UTF-8 is refused with its path."""

import io
import math

import pytest

from graphalign import SweepRow, read_rows, write_rows
from graphalign.cli import _apply_config, cli


def sweep_csv() -> str:
    rows = [SweepRow("d", "both", percent, 0, "gcn", 0.9 - percent / 200, 1.0 + percent / 100,
                     0.1, 0.2, 0.3, 5, 4, 3, 42) for percent in (0, 50, 100)]
    buffer = io.StringIO(newline="")
    write_rows(buffer, rows)
    return buffer.getvalue()


# reader: (file name, plain content, exit code of a file that is not UTF-8, name in the error)
READERS = {
    "edges": ("e.txt", "a b\nb c\nc d\n", 1, "edge list"),
    "features": ("f.txt", "a 1.0 0\nb 2.0 1\nc 3.0 1\nd 0.5 0\n", 1, "features file"),
    "csv": ("r.csv", sweep_csv(), 1, "sweep CSV"),
    "config": ("c.cfg", "nodes = 40\ncommunities = 2\nfeatures_per_community = 5\n", 2,
               "config file"),
}


def run(tmp_path, capsys, reader: str, data: bytes):
    """Write `data` as `reader`'s file and the other files plain, run the
    command that reads it, and return its exit code, stdout and output files."""
    for name, text, *_ in READERS.values():
        (tmp_path / name).write_bytes(text.encode())
    (tmp_path / READERS[reader][0]).write_bytes(data)
    path = {name: str(tmp_path / READERS[name][0]) for name in READERS}
    outs = ["--out-edges", str(tmp_path / "oe.txt"), "--out-features", str(tmp_path / "of.txt")]
    if reader == "csv":
        argv = ["correlate", path["csv"]]
    elif reader == "config":
        argv = ["generate", "--config", path["config"], *outs]
    else:
        argv = ["randomize", "--dataset", "files", "--edges", path["edges"],
                "--features", path["features"], "--percent", "0", *outs]
    code = cli(argv)
    written = [(tmp_path / name).read_bytes() for name in ("oe.txt", "of.txt")
               if (tmp_path / name).exists()]
    return code, capsys.readouterr(), written


@pytest.mark.parametrize("reader", READERS)
def test_a_file_that_is_not_utf8_is_refused_naming_it(reader, tmp_path, capsys):
    name, text, exit_code, what = READERS[reader]
    code, captured, _ = run(tmp_path, capsys, reader, text.encode() + "café\n".encode("latin-1"))
    assert code == exit_code
    assert captured.err.startswith(f"error: cannot read {what}: {tmp_path / name}: ")
    assert "0xe9" in captured.err


@pytest.mark.parametrize("reader", READERS)
def test_a_bom_file_reads_like_the_plain_one(reader, tmp_path, capsys):
    text = READERS[reader][1]
    plain = run(tmp_path, capsys, reader, text.encode())
    assert plain[0] == 0
    assert run(tmp_path, capsys, reader, text.encode("utf-8-sig")) == plain


@pytest.mark.parametrize("reader", READERS)
def test_blank_lines_are_skipped(reader, tmp_path, capsys):
    text = READERS[reader][1]
    plain = run(tmp_path, capsys, reader, text.encode())
    assert plain[0] == 0
    blank = "\n" + text.replace("\n", "\n\n")
    assert run(tmp_path, capsys, reader, blank.encode()) == plain


def test_csv_round_trips_a_name_with_a_comma_and_line_breaks(tmp_path):
    """csv parses the whole file, so a quoted field keeps its line breaks,
    a blank line among them too, and later errors still name the file's line."""
    row = SweepRow("a,b\nc\r\n\nd", "both", 0, 0, "gcn", 0.5, math.pi,
                   0.1, 0.2, 0.3, 5, 4, 3, 42)
    path = tmp_path / "r.csv"
    write_rows(path, [row, row])
    assert read_rows(path) == [row, row]
    path.write_bytes(path.read_bytes() + b"d,both,x\n")
    with pytest.raises(ValueError, match=f"{path}:10: expected 14 fields, got 3"):
        read_rows(path)


@pytest.mark.parametrize("separator", ["\f", "\v", "\x1c", "\x85", "\u2028", "\u2029"],
                         ids=["FF", "VT", "FS", "NEL", "LS", "PS"])
def test_config_lines_are_the_files_lines(separator, tmp_path, capsys):
    """`str.splitlines` would end a line at these characters; the config
    reader keeps them inside the value and numbers the file's lines."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"name = a{separator}b\n", encoding="utf-8")
    assert _apply_config(["train", "--config", str(cfg)]) == ["train", f"--name=a{separator}b"]
    cfg.write_text(f"name = a{separator}b\njust some words\n", encoding="utf-8")
    assert cli(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: expected `key = value`\n"
