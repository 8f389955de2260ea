"""List the functions and methods of src/polquat that no entry point calls.

    python3 tools/reach.py < argvs.json

stdin holds a JSON list of command lines, each a list of `polquat`
arguments.  The script is the fresh interpreter the trace runs in: it puts
the tree's `src` first on the import path, makes numpy unimportable and
installs one `sys.setprofile` hook before `import polquat`.  Then it runs
`polquat.cli.main` on each command line, then `check`, then each demo and
each python block of README.md as `__main__`, every script copied into a
temporary directory first, which is also its working directory, so that the
files a demo writes land there.  A script that exits nonzero, raises or
prints a traceback to stderr stops the run.  It prints, sorted and one a
line, the dotted name of every function and method defined in src/polquat
that no call reached.

The definitions come from an `ast` walk of the source files.  A profiled
code object matches a definition by file, first line (a decorated one's is
its first decorator's) and name, so no `co_qualname` is needed.

Standard library only; runs on Python 3.10 and later.  tests/test_reach.py
passes it the argv table of tests/test_cli.py and pins what it prints.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import re
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polquat"


def _definitions() -> dict:
    """{(file, first line, name): dotted name} of every function and method
    defined in the package."""
    found = {}

    def walk(node, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = prefix
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{prefix}.{child.name}"
            if isinstance(child, ast.FunctionDef):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path, line, child.name] = inner
            walk(child, inner, path)

    for path in sorted(PACKAGE.glob("*.py")):
        module = "polquat" if path.stem == "__init__" else f"polquat.{path.stem}"
        walk(ast.parse(path.read_text()), module, str(path))
    return found


def _scripts(root: Path = ROOT) -> list:
    """(file name, text) of each demo and each python block of README.md of
    the tree at `root`."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (root / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    return ([(path.name, path.read_text()) for path in sorted((root / "demos").glob("*.py"))]
            + [(f"quick_start_{k}.py", block) for k, block in enumerate(blocks)])


def _run_script(name: str, text: str) -> None:
    """Run the script `text` as `__main__`, saved as `name` in a temporary
    directory that is also the working directory, where a demo writes its
    files.  A nonzero exit or a traceback on stderr stops the trace, and a
    zero exit ends only the script."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        script = Path(tmp) / name
        script.write_text(text)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                runpy.run_path(str(script), run_name="__main__")
        except SystemExit as exc:
            if exc.code:
                raise SystemExit(f"{name} exited with {exc.code}") from exc
        finally:
            os.chdir(cwd)
    if "Traceback" in err.getvalue():
        raise SystemExit(f"{name} printed a traceback:\n{err.getvalue()}")


def main() -> int:
    argvs = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    sys.modules["numpy"] = None   # any `import numpy` now raises ImportError
    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(hook)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        from polquat import cli

        for argv in [*argvs, ["check"]]:
            try:
                cli.main(argv)
            except SystemExit:   # argparse rejects a command line by exiting
                pass
        for name, text in _scripts():
            _run_script(name, text)
    sys.setprofile(None)
    called = {(code.co_filename, code.co_firstlineno, code.co_name) for code in reached}
    for name in sorted(name for key, name in _definitions().items() if key not in called):
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
