"""Client and server meet only through wire bytes and the orchestrator's loop.

Neither module imports the other, so what the server reads of a round is
what the uploads carry. The tests' reference round imports neither that
loop nor the server's in-place mixes, so it cannot share what it checks.
"""

import ast
from pathlib import Path

import pytest

import fedsim

PACKAGE = Path(fedsim.__file__).parent


def imported_modules(path: Path) -> set[str]:
    """Every fedsim module a source file imports, as a dotted name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "fedsim" if node.level else ""
            module = ".".join(part for part in (base, node.module or "") if part)
            found.add(module)
            # `from . import fed_client` and `from fedsim import server` name modules too.
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


@pytest.mark.parametrize(
    "module, other", [("server", "fed_client"), ("fed_client", "server")]
)
def test_client_and_server_do_not_import_each_other(module, other):
    assert f"fedsim.{other}" not in imported_modules(PACKAGE / f"{module}.py")


def test_the_import_scan_sees_relative_and_absolute_imports():
    # The orchestrator drives both sides, so the scan must find both there.
    found = imported_modules(PACKAGE / "orchestrator.py")
    assert {"fedsim.fed_client", "fedsim.server", "fedsim.transport"} <= found


def test_the_reference_round_shares_neither_the_loop_nor_the_in_place_mix():
    found = imported_modules(Path(__file__).parent / "reference_round.py")
    assert "fedsim.server.update_matrix" in found  # the scan sees its server imports
    shared = {"fedsim.orchestrator", "fedsim.server.aggregate", "fedsim.server.fedavg_aggregate"}
    assert not found & shared
