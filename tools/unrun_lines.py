"""List the lines of src/fedsim that a pytest run never executes.

Runs pytest in this process under sys.settrace, recording the lines run
in frames whose code lives in src/fedsim, then prints every executable
line that was not run as `path:line: source`, and their count. The
executable lines come from each module's compiled code objects.

    python3 tools/unrun_lines.py             # Tier-1 minus criteria 1, 5, 6
    python3 tools/unrun_lines.py -q tests/test_data.py

Any arguments are passed to pytest in place of the default ones. The
exit status is pytest's.
"""
from __future__ import annotations

import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fedsim"
# Tier-1 without the three slow acceptance criteria
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                "-k", "not (criterion_1_ or criterion_5_ or criterion_6_)"]


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every instruction in the module's code."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and the lines run per file of the package."""
    import pytest

    prefix = str(PACKAGE) + "/"
    run: dict[str, set[int]] = {}

    def local(frame, event, arg):
        run[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        run.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.settrace(global_trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), run


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    status, run = run_traced(argv or DEFAULT_ARGS)
    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - run.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            unrun += 1
    print(f"{unrun} lines unrun")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
