"""Lint-style pin: all Beamer thresholds flow through HybridConfig.

The library must route every threshold through
:class:`~repro.core.hybrid.HybridConfig` — otherwise the tuner
could optimize ``alpha``/``beta`` while some call site silently pins a
stray literal.  These are AST walks over ``src/``, so a violation names
its file and line.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

pytestmark = pytest.mark.tune

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: The only modules allowed to reference the threshold constants: their
#: definition site and the tuning space that enumerates candidates over
#: them.  Everyone else must go through HybridConfig's defaults.
DEFAULT_CONSTANT_ALLOWLIST = {
    SRC / "core" / "hybrid.py",
    SRC / "tune" / "space.py",
}


def _python_sources():
    return sorted(SRC.rglob("*.py"))


def _violations():
    """(path, lineno, message) for every stray threshold spelling."""
    found = []
    for path in _python_sources():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (
                    func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name)
                    else None
                )
                if name != "direction_optimized_bfs":
                    continue
                for keyword in node.keywords:
                    if keyword.arg in ("alpha", "beta"):
                        found.append((
                            path, node.lineno,
                            f"passes {keyword.arg}= directly; "
                            "use config=HybridConfig(...)",
                        ))
            if isinstance(node, ast.Name) and node.id in (
                "DEFAULT_ALPHA", "DEFAULT_BETA"
            ):
                if path not in DEFAULT_CONSTANT_ALLOWLIST:
                    found.append((
                        path, node.lineno,
                        f"references {node.id} outside the allowlist",
                    ))
    return found


def test_no_stray_alpha_beta_in_the_library():
    messages = [
        f"{path.relative_to(SRC.parent)}:{line}: {message}"
        for path, line, message in _violations()
    ]
    assert not messages, "\n".join(messages)


def test_the_walk_actually_sees_the_deprecated_spelling(tmp_path):
    """Self-check: the detector is live, not vacuously green."""
    sample = SRC / "core" / "hybrid.py"
    tree = ast.parse(sample.read_text(encoding="utf-8"))
    bad = ast.parse(
        "direction_optimized_bfs(g, f, 0, alpha=3.0)\n"
        "x = DEFAULT_ALPHA\n"
    )
    calls = [n for n in ast.walk(bad) if isinstance(n, ast.Call)]
    assert calls and calls[0].keywords[0].arg == "alpha"
    names = {n.id for n in ast.walk(bad) if isinstance(n, ast.Name)}
    assert "DEFAULT_ALPHA" in names
    # And the real definition site is on the allowlist, so the constants
    # existing at all never trips the pin.
    assert sample in DEFAULT_CONSTANT_ALLOWLIST
    assert tree is not None
