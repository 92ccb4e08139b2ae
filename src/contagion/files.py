"""Output files are replaced, never truncated."""

from pathlib import Path


def open_new(path, newline=None):
    """``open(path, "w")`` on a new file: a file at ``path`` is unlinked first.

    On ext4 a truncated file is written back when it is closed
    (``auto_da_alloc``), and truncating it again waits for that I/O; a new
    file does not. A hard link or symlink at ``path`` gives way to a regular
    file, and the file's other names keep their bytes.
    """
    Path(path).unlink(missing_ok=True)
    return open(path, "w", newline=newline)
