"""Atomic file replacement: the one writer behind every output file.

Data goes to a fresh ``mkstemp`` file in the target's directory, which is
then renamed over the target, so a reader sees the old bytes or the new
ones and two writers into one directory never share a temp name. The temp
file, and so the result, has mode 0600. Directories are not created here;
writing into a missing one raises.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile


def atomic_write(path: str, data: str | bytes):
    """Replace ``path`` with ``data``; str is UTF-8 with no newline translation."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list, rows: list):
    """Atomically write a header and rows with ``csv.writer`` (``\\r\\n`` ends)."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    atomic_write(path, buf.getvalue())
