"""The error contract of errors.py: every error the library raises on purpose
is one of its classes, so callers can tell rejected input from a bug."""

import ast
from pathlib import Path

import strobe
from strobe import errors

ERROR_CLASSES = {name for name, value in vars(errors).items()
                 if isinstance(value, type) and value.__module__ == errors.__name__}


def _raises(path: Path):
    """(line, class name as written) of each raise in the file that names an exception."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, ast.unparse(exc)


def _package_files():
    return sorted(Path(strobe.__file__).parent.glob("*.py"))


def test_every_raise_in_the_package_is_an_error_of_errors_py():
    stray = [f"{path.name}:{line} raises {name}"
             for path in _package_files()
             for line, name in _raises(path)
             # cli's usage error never leaves main, which turns it into exit code 1;
             # read_json raises the class its caller passes, checked below.
             if name not in ERROR_CLASSES
             and (path.name, name) not in {("cli.py", "_UsageError"), ("errors.py", "error")}]
    assert stray == []


def test_every_read_json_call_passes_an_error_of_errors_py():
    passed = [ast.unparse(node.args[1]) if len(node.args) == 2 and not node.keywords else None
              for path in _package_files()
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Call) and ast.unparse(node.func) == "read_json"]
    assert passed and set(passed) <= ERROR_CLASSES
