"""The mini-DOM's document-order index agrees with a plain recursive walk.

``descendants()`` and ``find_all_next()`` are slices of the parser's flat
element list; these tests check them, for every node, against a pre-order
walk of ``children`` over every page of a synthetic corpus and every
hand-written HTML fragment of the section and caption tests.
"""

import ast
import os

import pyarrow.parquet as pq
import pytest

from wikicrawl.minidom import parse_html
from wikicrawl.synth import generate

HERE = os.path.dirname(os.path.abspath(__file__))

# parser edge cases: unclosed elements, stray and mismatched end tags,
# void and self-closing elements, an empty document
EDGE_CASES = [
    "",
    "plain text, no elements",
    "<div><p>unclosed<span>deep",
    "<div><p>a</div><p>b</span></p>",
    "</p><br><img src=x><hr/><div/><p>after</p>",
    "<ul><li>one<li>two</ul><b><i>x</b></i>",
]


def _walk(node):
    """Reference pre-order walk of the element children."""
    out = []
    for child in node.children:
        if not isinstance(child, str):
            out.append(child)
            out.extend(_walk(child))
    return out


def _fragments(test_file: str) -> list[str]:
    """Every string literal holding a tag in a test module."""
    with open(os.path.join(HERE, test_file)) as f:
        tree = ast.parse(f.read())
    return [n.value for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and "<" in n.value]


def _check(html: str) -> None:
    root = parse_html(html)
    order = _walk(root)
    assert list(root.descendants()) == order
    assert [n._doc_pos for n in order] == list(range(len(order)))
    for pos, node in enumerate(order):
        assert list(node.descendants()) == _walk(node)
        assert list(node.find_all_next()) == order[pos + 1:]
        for name in ("p", "a", "img", "h2"):
            assert node.find_all(name) == [n for n in _walk(node) if n.name == name]
            want = next((n for n in _walk(node) if n.name == name), None)
            assert node.find(name) is want


@pytest.mark.parametrize("test_file", ["test_sections.py", "test_captions.py"])
def test_index_matches_walk_on_hand_written_html(test_file):
    fragments = _fragments(test_file)
    assert len(fragments) >= 5
    for html in fragments:
        _check(html)


def test_index_matches_walk_on_edge_cases():
    for html in EDGE_CASES:
        _check(html)


def test_index_matches_walk_on_synthetic_pages(tmp_path):
    generate(str(tmp_path), n_entities=50)
    pages = pq.read_table(tmp_path / "pages_html.parquet", columns=["html"])
    htmls = [h for h in pages["html"].to_pylist() if h]
    assert len(htmls) > 50
    for html in htmls:
        _check(html)
