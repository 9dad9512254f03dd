"""Crash-safe file writes."""

import os
from pathlib import Path


def write_atomic(path, chunks) -> None:
    """Write the byte strings `chunks` to a temp file beside `path`, then os.replace
    it into place; on any failure the previous file stays and the temp file goes."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            exc.filename = str(path)  # report the file the caller asked for
        raise
