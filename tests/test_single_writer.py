"""No module of the package but errors.py opens a file to write.

errors.open_output is the one writer: it replaces a regular file whole or
leaves it as it was.  A call elsewhere that opens a file with a `w`, `a`,
`x` or `+` mode, an `os.open` with a write flag, or a `.write_text` or
`.write_bytes` call would bring back a write path that can leave a file cut
at a line boundary.  The check reads each module with the stdlib `ast`
module; `os.open(os.devnull, ...)`, which `cli.main` uses to silence a
closed stdout, writes no output file and is allowed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qatrigger"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "errors.py")

_MODE_CHARS = set("rwaxbt+")
_WRITE_MODE_CHARS = set("wax+")
_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}


def _is_write_mode(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and set(node.value) <= _MODE_CHARS and bool(set(node.value) & _WRITE_MODE_CHARS))


def _is_os_attribute(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "os" and node.attr == name)


def _opens_to_write(call: ast.Call) -> bool:
    if _is_os_attribute(call.func, "open"):
        if call.args and _is_os_attribute(call.args[0], "devnull"):
            return False
        flags = [node.attr if isinstance(node, ast.Attribute) else node.id
                 for arg in call.args[1:2] for node in ast.walk(arg)
                 if isinstance(node, (ast.Attribute, ast.Name))]
        return bool(_WRITE_FLAGS.intersection(flags))
    # builtins.open and io.open take the mode second, Path.open first.
    modes = [*call.args[:2], *(kw.value for kw in call.keywords if kw.arg == "mode")]
    return any(_is_write_mode(mode) for mode in modes)


def write_calls(source: str) -> list[str]:
    """`line N: <call>` for each call in `source` that opens a file to write."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if (name == "open" and _opens_to_write(node)) or (
            isinstance(func, ast.Attribute) and name in ("write_text", "write_bytes")
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("module", MODULES, ids=[path.stem for path in MODULES])
def test_no_module_but_errors_opens_a_file_to_write(module):
    assert write_calls(module.read_text(encoding="utf-8")) == []


def test_the_check_sees_the_writer_in_errors():
    assert write_calls((PACKAGE / "errors.py").read_text(encoding="utf-8"))


def test_the_check_sees_each_kind_of_write():
    source = (
        "import os\n"
        "open(path)\n"
        "open(path, encoding='utf-8')\n"
        "open(path, 'rb')\n"
        "path.open()\n"
        "os.open(os.devnull, os.O_WRONLY)\n"
        "os.open(path, os.O_RDONLY)\n"
        "open(path, 'w', encoding='utf-8')\n"
        "open(path, mode='a')\n"
        "path.open('xb')\n"
        "io.open(path, 'r+')\n"
        "os.open(path, os.O_WRONLY | os.O_CREAT)\n"
        "path.write_text(text)\n"
        "Path(name).write_bytes(data)\n"
    )
    assert [line.split(":")[0] for line in write_calls(source)] == [
        f"line {n}" for n in range(8, 15)
    ]
