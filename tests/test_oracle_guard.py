"""The golden oracles are an independent restatement of the reference:
they must not share the engine's frontier, or a politeness or ordering bug
there would show up on both sides of every parity test."""

import ast
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _imported_modules(path: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(open(path).read())):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level:
                mod = "wikicrawl." + mod if mod else "wikicrawl"
            names.add(mod)
            names.update(f"{mod}.{a.name}" for a in node.names)
    return names


def test_oracle_imports_nothing_from_state():
    names = _imported_modules(os.path.join(ROOT, "wikicrawl", "oracle.py"))
    assert "wikicrawl.oracle" not in names  # the scan saw the right file
    assert "wikicrawl.vwiki" in names
    state = sorted(n for n in names
                   if n == "wikicrawl.state" or n.startswith("wikicrawl.state."))
    assert state == []


def test_discovery_oracle_runs_without_state_modules(tmp_path):
    """A tight budget drives many politeness ticks; none may load
    ``wikicrawl.state``."""
    code = f"""
import sys
sys.path.insert(0, {ROOT!r})
from wikicrawl.synth import generate
from wikicrawl.oracle import run_discovery_oracle
generate({str(tmp_path)!r}, n_entities=40, seed=3)
res = run_discovery_oracle({str(tmp_path)!r}, entity_wave=16,
                           host_rate=3, host_burst=3)
print(res.crawl_log.num_rows, res.metrics["discovered"])
print(",".join(sorted(m for m in sys.modules
                      if m == "wikicrawl.state" or m.startswith("wikicrawl.state."))))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=300).stdout.splitlines()
    fetched, discovered = map(int, out[-2].split())
    assert fetched > 0 and discovered > 0
    assert out[-1] == ""
