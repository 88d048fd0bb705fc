"""The mini-DOM's document-order index agrees with a plain recursive walk,
and its tokenizer builds the tree ``HTMLParser`` builds.

``descendants()`` and ``find_all_next()`` are slices of the parser's flat
element list; these tests check them, for every node, against a pre-order
walk of ``children`` over every page of a synthetic corpus and every
hand-written HTML fragment of the section and caption tests.

The differential tests compare the tokenizer (``_parse_fast``) with the
``HTMLParser`` builder (``_parse_slow``) node for node wherever the
tokenizer accepts a document: synthetic pages whole and truncated, the
edge cases and fragments, and random documents from a grammar of mixed-case
tags, every attribute form, charrefs, stray ``<``/``>``, comments, doctype,
script and style.
"""

import ast
import os

import pyarrow.parquet as pq
import pytest

from hypothesis import given, settings, strategies as st

from wikicrawl import minidom
from wikicrawl.minidom import _parse_fast, _parse_slow, parse_html
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


# -- the tokenizer against the HTMLParser builder ----------------------------


def _tree(root) -> tuple:
    """Everything the DOM exposes, in document order: per node its name,
    attributes in order, ``_doc_pos`` and ``_end``, and the text chunks
    between (the flat list itself is checked by ``_check``)."""
    out = []

    def walk(node):
        for child in node.children:
            if isinstance(child, str):
                out.append(child)
            else:
                out.append((child.name, list(child.attrs.items()),
                            child._doc_pos, child._end))
                walk(child)
                out.append(None)  # end of the element's children

    walk(root)
    return root._doc_pos, root._end, len(root._doc), out


def _same_tree(html: str) -> bool:
    """The tokenizer's tree of ``html`` equals HTMLParser's, when it builds
    one; True when it did (False: the document went to the fallback)."""
    fast = _parse_fast(html)
    slow = _parse_slow(html)
    assert _tree(parse_html(html)) == _tree(slow)
    if fast is None:
        return False
    assert _tree(fast) == _tree(slow), html
    return True


def _synth_pages(tmp_path, seed: int) -> list[str]:
    out = tmp_path / f"s{seed}"
    generate(str(out), n_entities=120, seed=seed)
    pages = pq.read_table(out / "pages_html.parquet", columns=["html"])
    return [h for h in pages["html"].to_pylist() if h]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tokenizer_matches_htmlparser_on_synthetic_pages(tmp_path, seed):
    htmls = _synth_pages(tmp_path, seed)
    assert len(htmls) > 100
    for html in htmls:
        assert _same_tree(html)
        # truncations end inside tags, attributes, charrefs and text
        for cut in (1, 2, 17, len(html) // 3, len(html) // 2, len(html) - 7,
                    len(html) - 1):
            _same_tree(html[:cut])


def test_tokenizer_covers_every_synthetic_page(tmp_path, monkeypatch):
    """No synthetic page needs the fallback: the fetch path runs the
    tokenizer only."""
    htmls = [h for seed in (1, 2, 3) for h in _synth_pages(tmp_path, seed)]

    def no_fallback(html):
        raise AssertionError(f"fallback parse of {html[:80]!r}")

    monkeypatch.setattr(minidom, "_parse_slow", no_fallback)
    for html in htmls:
        parse_html(html)


@pytest.mark.parametrize("test_file", ["test_sections.py", "test_captions.py"])
def test_tokenizer_matches_htmlparser_on_fragments(test_file):
    fragments = _fragments(test_file)
    assert sum(_same_tree(html) for html in fragments) >= 5


def test_tokenizer_matches_htmlparser_on_edge_cases():
    assert all(_same_tree(html) for html in EDGE_CASES)
    # out of the grammar: each goes to the fallback
    for html in ["a < b", "<p>x<", "<?php x ?>", "<script>a<b</script>",
                 "<style>p{}</style>", "<![CDATA[x]]>", "</ p>", "</>",
                 "<a b=>", "<a b='x'c=y>", "<!x>", "</a x>", "<a\x0bb>",
                 "<a/b>", "<a b=c`>", "<!-- open", "<p\xa0class=x>"]:
        assert not _same_tree(html), html


def _cased(words):
    """A word from ``words`` with each letter in either case."""
    return st.sampled_from(words).flatmap(lambda w: st.tuples(
        *[st.sampled_from((c.lower(), c.upper())) for c in w]).map("".join))


_NAMES = _cased(["p", "div", "a", "img", "br", "h2", "h3", "li", "ul", "td",
                 "tr", "table", "span", "figure", "figcaption", "b", "x-y"])
_ATTR_NAMES = _cased(["class", "href", "src", "alt", "id", "data-k", "title"])
_WS = st.sampled_from([" ", "  ", "\n", "\t", "\r\n", "\f"])
_CHARREFS = ["&amp;", "&#38;", "&#x26;", "&lt;", "&lt", "&copy;", "&nbsp",
             "&", "&#", "&#xZ;", "&bogus;"]
_TEXT = st.lists(st.sampled_from(
    ["a", "b", " ", "\n", ">", "é", "-", "/", "="] + _CHARREFS),
    max_size=6).map("".join)
_UNQUOTED = st.lists(st.sampled_from(
    ["a", "B", "1", "/", "-", ".", "#", ":", "&amp;", "&#38;", "&x"]),
    min_size=1, max_size=5).map("".join)
_QUOTED = st.lists(st.sampled_from(
    ["a", " ", "<", ">", "/", "=", "`", "\n"] + _CHARREFS),
    max_size=5).map("".join)


@st.composite
def _attr(draw):
    name = draw(_ATTR_NAMES)
    form = draw(st.sampled_from(["bare", "unquoted", "dq", "sq"]))
    if form == "bare":
        return name
    eq = (draw(st.sampled_from(["", " "])) + "="
          + draw(st.sampled_from(["", " ", "\n"])))
    if form == "unquoted":
        return name + eq + draw(_UNQUOTED)
    quote = '"' if form == "dq" else "'"
    return name + eq + quote + draw(_QUOTED).replace(quote, "") + quote


@st.composite
def _start_tag(draw):
    attrs = draw(st.lists(_attr(), max_size=4))  # names may repeat
    attr_src = "".join(draw(_WS) + a for a in attrs)
    close = draw(st.sampled_from([">", "/>", " >", " />", "\n/>"]))
    return "<" + draw(_NAMES) + attr_src + close


_END_TAG = st.builds(lambda n, w: f"</{n}{w}>", _NAMES,
                     st.sampled_from(["", " ", "\n"]))
_COMMENT = st.builds(lambda t, e: f"<!--{t}{e}", _TEXT,
                     st.sampled_from(["-->", "--  >", "---->", "--\n>"]))
_DOCTYPE = st.sampled_from(["<!DOCTYPE html>", "<!doctype html>",
                            "<!DocType x 'y'>"])
_IN_GRAMMAR = st.one_of(_start_tag(), _END_TAG, _COMMENT, _DOCTYPE, _TEXT)
_OUT_OF_GRAMMAR = st.sampled_from([
    "<", "< p>", "<?pi x?>", "<![CDATA[x<y]]>", "<script>a<b></p></script>",
    "<STYLE>p>q{}</style>", "<script/>", "</ p>", "</>", "<a b=>",
    "<a b='x'c=y>", "<!x>", "</a x>", "<a\x0bb>", "<a/b>", "<a b=c/>",
    "<!-->", "<!--->", "<!-- a -- >", "<p\xa0x>", "<a b==c>", "<a b=`c`>",
    "<a b=c\"d>", "<a\u3000b=1>", "<!--", "<a href=\"x"])


@settings(max_examples=600, deadline=None)
@given(st.lists(_IN_GRAMMAR, max_size=40))
def test_tokenizer_accepts_its_grammar(tokens):
    assert _same_tree("".join(tokens))


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.one_of(_IN_GRAMMAR, _IN_GRAMMAR, _OUT_OF_GRAMMAR),
                max_size=40))
def test_tokenizer_matches_htmlparser_on_random_documents(tokens):
    _same_tree("".join(tokens))
