"""Checks over the project's source code itself, parsed with ``ast``."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parsed(directory):
    return [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted((ROOT / directory).rglob("*.py"))]


def optional_parameters(func):
    """``func``'s parameters that have defaults: (position, name) for those
    a call may pass by position (counted after ``self`` or ``cls``), (None,
    name) for keyword-only ones."""
    positional = [arg.arg for arg in func.args.posonlyargs + func.args.args]
    offset = 1 if positional[:1] in (["self"], ["cls"]) else 0
    first = len(positional) - len(func.args.defaults)
    out = [(i - offset, positional[i]) for i in range(first, len(positional))]
    return out + [(None, arg.arg) for arg, default in zip(func.args.kwonlyargs,
                                                           func.args.kw_defaults)
                  if default is not None]


def passes(call, position, name):
    """Whether ``call`` passes the parameter at ``position`` (None when
    keyword-only) called ``name``: by position, by keyword, or through a
    ``*`` or ``**`` argument."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(arg, ast.Starred) for arg in call.args)


def test_every_optional_parameter_is_passed_somewhere():
    # a default that no call overrides is a setting nothing sets: inline it
    src = parsed("src")
    functions = [node for tree in src for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    defined = Counter(func.name for func in functions)
    calls = {}
    for tree in src + parsed("tests") + parsed("perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                calls.setdefault(name, []).append(node)
    unused = [f"{func.name}({name})" for func in functions if defined[func.name] == 1
              for position, name in optional_parameters(func)
              if not any(passes(call, position, name) for call in calls.get(func.name, []))]
    assert unused == []
