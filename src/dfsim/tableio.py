"""CSV writing with fixed formatting: 17 significant digits, LF endings."""

from __future__ import annotations

import os


def format_value(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int,)) and not isinstance(x, bool):
        return str(x)
    return f"{float(x):.17g}"


def render_columns(header, columns) -> str:
    """The text ``render_csv`` gives for the rows of ``columns``.  A float array
    is converted to Python floats once and formatted through a row template."""
    specs, cells = [], []
    for values in columns:
        if getattr(values, "dtype", None) is not None and values.dtype.kind == "f":
            specs.append("{:.17g}")
            cells.append(values.tolist())
        else:
            specs.append("{}")
            cells.append([format_value(v) for v in values])
    row = ",".join(specs).format
    lines = [",".join(header)]
    lines.extend(row(*values) for values in zip(*cells))
    return "\n".join(lines) + "\n"


def render_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def write_text(path, text: str):
    """Write atomically: a partial file never appears under the final name."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)
