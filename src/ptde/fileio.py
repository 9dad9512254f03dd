"""Crash-safe file writes.

`write_atomic` is the only code in ptde that opens a file for writing:
PTDF feature files, checkpoints, run logs, ROC CSV and SVG files, and
synth's pose documents and manifest all go through it.
"""

import os
import threading
from pathlib import Path


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
