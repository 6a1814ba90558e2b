"""Hot-path modules read enum members from module constants only.

A class-attribute read of an enum member (``EventKind.ARRIVAL``,
``TransactionState.READY``) costs an order of magnitude more than a
module global on CPython 3.11, and the engine, the transaction
lifecycle and the policies do dozens of them per scheduling point.  The
convention is to bind each member once at module level
(``_READY = TransactionState.READY``) and read the constant inside
functions.  This test keeps a member read from creeping back into a
function body; module-level bindings are allowed.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro.core.transaction import TransactionState
from repro.sim.events import EventKind

SRC = pathlib.Path(repro.__file__).resolve().parent

HOT_MODULES = sorted(
    [
        SRC / "sim" / "engine.py",
        SRC / "sim" / "event_queue.py",
        SRC / "core" / "transaction.py",
        SRC / "core" / "workflow.py",
        *(SRC / "policies").glob("*.py"),
    ]
)

MEMBERS = {
    "EventKind": set(EventKind.__members__),
    "TransactionState": set(TransactionState.__members__),
}


def member_reads_in_functions(source: str) -> list[str]:
    """``Enum.MEMBER`` loads inside any function body of ``source``."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.attr in MEMBERS.get(node.value.id, ())
            ):
                found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    # A nested function is walked once per enclosing function.
    return sorted(set(found))


@pytest.mark.parametrize(
    "path", HOT_MODULES, ids=lambda p: str(p.relative_to(SRC))
)
def test_no_enum_member_reads_in_function_bodies(path):
    reads = member_reads_in_functions(path.read_text(encoding="utf-8"))
    assert reads == [], (
        f"{path.name} reads enum members inside functions; bind them once "
        f"at module level instead: {reads}"
    )


def test_detector_sees_reads_and_allows_module_bindings():
    source = (
        "_READY = TransactionState.READY\n"
        "def f(txn, event):\n"
        "    if event.kind is EventKind.ARRIVAL:\n"
        "        return txn.state is TransactionState.READY\n"
        "    return txn.state is _READY\n"
    )
    assert member_reads_in_functions(source) == [
        "3: EventKind.ARRIVAL",
        "4: TransactionState.READY",
    ]
