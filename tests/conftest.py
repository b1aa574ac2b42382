"""The helpers the tests share: one in-process call of the ``gausspen``
entry point, one way to derive a config from a shipped one, and the peak
memory of one call."""

import contextlib
import io
import pathlib
import re
import tracemalloc
import warnings

from gausspen.cli import main

CONFIGS = pathlib.Path(__file__).parents[1] / "configs"


def run_cli(directory, *args, out="out"):
    """``main([*args, "--out", directory / out])`` with every warning an
    error, as ``PYTHONWARNINGS=error`` makes it; returns the exit code, the
    stderr text and the --out path.  Every file is written beside its name
    and renamed over it, so no ``.*.tmp`` file may be left under --out."""
    out = pathlib.Path(directory) / out
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([*map(str, args), "--out", str(out)])
    assert not list(out.rglob(".*.tmp"))
    return code, err.getvalue(), out


def derive_config(name, edits):
    """The text of ``configs/<name>.cfg`` with ``edits`` applied.  ``edits``
    maps a section name to None, which drops the section, or to a dict that
    maps a key to its new value, or to None, which drops the key; a key the
    section lacks is appended to it."""
    lines, keep, todo, seen = [], True, {}, set()
    end = 0  # past the last nonblank line kept: where a section's new keys go
    for line in [*(CONFIGS / f"{name}.cfg").read_text().splitlines(), None]:  # None ends
        header = re.fullmatch(r"\[(.+)\]", line or "")
        if line is None or header:
            lines[end:end] = [f"{key} = {value}" for key, value in todo.items()
                              if value is not None]
            if line is None:
                break
            seen.add(header[1])
            edit = edits.get(header[1], {})
            keep, todo = edit is not None, dict(edit or {})
        elif (key := re.match(r"(\w+) *=", line)) and key[1] in todo:
            value = todo.pop(key[1])
            if value is None:
                continue
            line = f"{key[1]} = {value}"
        if keep:
            lines.append(line)
            end = len(lines) if line.strip() else end
    assert edits.keys() <= seen, f"{name}.cfg has no section {sorted(edits.keys() - seen)}"
    return "\n".join(lines) + "\n"


def traced_peak(fn, *args):
    """The most bytes that ``fn(*args)`` held at once, its result included,
    as tracemalloc counts them; numpy reports its array data to it."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
