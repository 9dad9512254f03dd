"""Crash-safe file writes.

`write_atomic` is the only code in ptde that opens a file for writing:
PTDF feature files, checkpoints, run logs, ROC CSV and SVG files, and
synth's pose documents and manifest all go through it. `_DIGIT_GROUPS`
is the digit table of the writers that build their text as byte arrays.
"""

import os
import threading
from pathlib import Path

import numpy as np

# The text of every integer below 1000, right-aligned in three bytes with 0
# bytes to the left of its first digit (0 is "\0\00"): one 3-digit group.
# A writer fills fixed places from it and deletes the 0 bytes with one
# `bytes.translate(None, b"\0")`.
_DIGIT_GROUPS = np.array(
    [list(str(v).rjust(3, "\0").encode("ascii")) for v in range(1000)], dtype=np.uint8
)


def write_atomic(path, chunks) -> None:
    """Write the byte strings `chunks` to a temp file beside `path`, then os.replace
    it into place; on any failure the previous file stays and the temp file goes.
    The temp file is named for the process and the thread, so concurrent writers
    of one path each replace it with a whole payload of their own."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            exc.filename = str(path)  # report the file the caller asked for
        raise
