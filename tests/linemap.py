"""The line map: which executable lines of `src/nuolab` tier-1 runs.

    python tests/linemap.py [pytest arguments]

runs the tier-1 tests in this process under `sys.settrace` and prints each
executable line of the package that no test reached, as `file:line: text`,
followed by the reason `tests/unreached.txt` gives for it, if it lists the
line. It exits 1 if a printed line is not listed there. Lines that a test
reaches only in a fresh process (`python -m nuolab.cli`) count as unreached.
It is not part of tier-1, which it slows about threefold.
"""
from __future__ import annotations

import sys
import types
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "nuolab"
LISTED = TESTS / "unreached.txt"


def executable_lines(path: Path) -> set[int]:
    """The lines of `path` that hold bytecode, in any of its code objects."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def listed_lines(text: str) -> dict[tuple[str, int], tuple[str, str]]:
    """`tests/unreached.txt` read as {(file, line): (its text, the reason)}:
    one entry per line, `file:line | text | reason`; blank lines and lines
    starting with # are skipped. A `file:line` listed twice raises
    ValueError, for the second entry would hide the first."""
    entries = {}
    for row in text.splitlines():
        if row.strip() and not row.startswith("#"):
            place, code, reason = (part.strip() for part in row.split(" | ", 2))
            name, line = place.rsplit(":", 1)
            if (name, int(line)) in entries:
                raise ValueError(f"{place} is listed twice")
            entries[name, int(line)] = code, reason
    return entries


def main(argv: list[str]) -> int:
    import pytest

    reached: dict[str, set[int]] = {}
    root = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(root):
            return None
        reached.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(tracer)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS), *argv])
    finally:
        sys.settrace(None)
    listed = listed_lines(LISTED.read_text())
    unlisted = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - reached.get(str(path), set())):
            code = source[line - 1].strip()
            reason = listed.get((path.name, line), (None, None))[1]
            unlisted += reason is None
            print(f"{path.name}:{line}: {code}" + (f"  [{reason}]" if reason else ""))
    print(f"{unlisted} unreached lines not listed in {LISTED.name}")
    return int(unlisted > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
