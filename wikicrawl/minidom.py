"""Minimal HTML DOM (stdlib only).

BeautifulSoup / lxml are not available in this environment, so the extraction
operators (sections, captions) run on this small DOM instead. It implements
exactly the traversal surface the reference's extraction semantics rely on
(reference: ``wikipedia_crawler_helpers.py:196-245``, ``wikipedia_images.py:409-515``):

- document-order descendant iteration (``find_all(recursive=True)``)
- "everything after this element in document order" (``find_all_next``)
- ancestor walk with class matching (``find_parent``)
- following-sibling search (``find_next_sibling``)
- ``get_text`` with bs4 semantics: default = raw concatenation of descendant
  text nodes; ``get_text(" ", strip=True)`` = strip each text node, drop
  empties, join with the separator
- ``strings`` = descendant text nodes in document order

The tree is the one ``html.parser.HTMLParser(convert_charrefs=True)``
produces, built two ways:

- the fast path, ``_parse_fast``: one compiled tokenizer regex walks the
  document and builds the tree directly. Its grammar is start, end and
  self-closing tags with quoted, unquoted and bare attributes (names
  lower-cased, the last duplicate wins), comments, ``<!doctype ...>``, and
  text between them decoded by ``html.unescape``. Within that grammar every
  token means to the tokenizer what it means to ``HTMLParser``;
- the exact fallback, ``_parse_slow``: ``HTMLParser`` driving
  ``_TreeBuilder``. A document with any markup outside the grammar (a ``<``
  that starts no accepted token, script/style raw text, a processing
  instruction, a CDATA section, ...) is parsed by it, so the result is
  exact by construction. ``tests/test_minidom.py`` checks the two paths
  agree, node for node, wherever the fast path accepts a document.

Void elements (img, br, hr, ...) never take children.

Document-order index: the builders append every element to one flat list in
the order its start tag is seen, which is pre-order. Each node records its
position in that list and the end of its subtree (one past its last
descendant), so ``descendants()`` and ``find_all_next()`` are list slices
and ``find``/``find_all`` scan those slices; no traversal recurses.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser
from itertools import chain
from typing import Callable, Iterator, Optional, Union

_VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)


class Node:
    """One element (or the document root). Text lives in ``children`` as ``str``."""

    __slots__ = ("name", "attrs", "children", "parent", "_doc", "_doc_pos", "_end")

    def __init__(self, name: str, attrs: dict, parent: Optional["Node"],
                 doc: list["Node"], pos: int):
        self.name = name
        self.attrs = attrs
        self.children: list[Union["Node", str]] = []
        self.parent = parent
        # the document's flat element list: this node is doc[pos] (the root
        # is -1) and its descendants are doc[pos + 1:_end]; the builder
        # moves _end past the last descendant when the element closes
        self._doc = doc
        self._doc_pos = pos
        self._end = pos + 1

    # -- attributes ------------------------------------------------------

    def get(self, key: str, default=None):
        if key == "class":
            raw = self.attrs.get("class")
            if raw is None:
                return default
            return raw.split()
        return self.attrs.get(key, default)

    @property
    def classes(self) -> list[str]:
        return self.get("class") or []

    # -- text ------------------------------------------------------------

    @property
    def strings(self) -> Iterator[str]:
        for child in self.children:
            if isinstance(child, str):
                yield child
            else:
                yield from child.strings

    def get_text(self, separator: str = "", strip: bool = False) -> str:
        if strip:
            return separator.join(s.strip() for s in self.strings if s.strip())
        return separator.join(self.strings)

    # -- traversal -------------------------------------------------------

    def descendants(self) -> list["Node"]:
        """All element descendants, document order (pre-order)."""
        return self._doc[self._doc_pos + 1 : self._end]

    def find_all(self, name: Optional[str] = None, recursive: bool = True) -> list["Node"]:
        if recursive:
            pool = self.descendants()
        else:
            pool = [c for c in self.children if isinstance(c, Node)]
        if name is None:
            return pool
        return [n for n in pool if n.name == name]

    def find(
        self,
        name_or_pred: Union[str, Callable[["Node"], bool], None] = None,
        class_: Optional[re.Pattern] = None,
    ) -> Optional["Node"]:
        for n in self.descendants():
            if self._matches(n, name_or_pred, class_):
                return n
        return None

    def find_all_next(self) -> list["Node"]:
        """Every element strictly after this one in document order (whole doc)."""
        return self._doc[self._doc_pos + 1 :]

    def find_parent(
        self, name: Optional[str] = None, class_: Optional[re.Pattern] = None
    ) -> Optional["Node"]:
        node = self.parent
        while node is not None:
            if node.name != "[document]" and self._matches(node, name, class_):
                return node
            node = node.parent
        return None

    def find_next_sibling(
        self, name: Optional[str] = None, class_: Optional[re.Pattern] = None
    ) -> Optional["Node"]:
        if self.parent is None:
            return None
        sibs = [c for c in self.parent.children if isinstance(c, Node)]
        try:
            idx = sibs.index(self)
        except ValueError:
            return None
        for n in sibs[idx + 1 :]:
            if self._matches(n, name, class_):
                return n
        return None

    @staticmethod
    def _matches(
        n: "Node",
        name_or_pred: Union[str, Callable[["Node"], bool], None],
        class_: Optional[re.Pattern],
    ) -> bool:
        if callable(name_or_pred):
            return bool(name_or_pred(n))
        if name_or_pred is not None and n.name != name_or_pred:
            return False
        if class_ is not None:
            raw = n.attrs.get("class") or ""
            if not class_.search(raw):
                return False
        return True

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<{self.name} {self.attrs}>"


def _open(doc: list, parent: Node, name: str, attrs: dict) -> Node:
    """Append a new element to ``parent`` and to the document order."""
    node = Node(name, attrs, parent, doc, len(doc))
    doc.append(node)
    parent.children.append(node)
    return node


def _close(stack: list, i: int, end: int) -> None:
    """Pop stack[i:], ending each popped element's subtree at ``end``."""
    for node in stack[i:]:
        node._end = end
    del stack[i:]


def _close_tag(stack: list, name: str, end: int) -> None:
    """An end tag closes the nearest open element of its name and every
    element opened inside it (a stray end tag closes nothing)."""
    for i in range(len(stack) - 1, 0, -1):
        if stack[i].name == name:
            _close(stack, i, end)
            return


class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.doc: list[Node] = []
        self.root = Node("[document]", {}, None, self.doc, -1)
        self.stack = [self.root]

    def handle_starttag(self, tag, attrs):
        node = _open(self.doc, self.stack[-1], tag, dict(attrs))
        if tag not in _VOID_ELEMENTS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        _open(self.doc, self.stack[-1], tag, dict(attrs))

    def handle_endtag(self, tag):
        _close_tag(self.stack, tag, len(self.doc))

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)


# the tokenizer's grammar. Whitespace is the five ASCII characters, names
# and unquoted values are narrower than HTMLParser's, and each token must be
# followed by what HTMLParser would end it on; so wherever these patterns
# match, HTMLParser reads the same tag, attributes and extent. Anything else
# leaves a '<' outside every token and sends the document to the fallback.
_WS = r"[ \t\n\r\f]"


def _attr_pattern(group: str) -> str:
    """One attribute: whitespace, name, then optionally ``=`` and a double
    quoted, single quoted or unquoted value; ``group`` opens each part
    ("(" captures name, ``=`` and the three value forms, "(?:" does not)."""
    return (_WS + "+" + group + r"[a-zA-Z_:][-.a-zA-Z0-9_:]*)"
            "(?:" + _WS + "*" + group + "=)" + _WS + "*"
            '(?:"' + group + '[^"]*)"'
            "|'" + group + "[^']*)'"
            "|" + group + r"""[^\s"'=<>`]++)))?""")


_ATTR = re.compile(_attr_pattern("("))
_TOKEN = re.compile(
    "<(?:"
    # start tag: name, attributes, optional self-closing slash
    r"([a-zA-Z][-.a-zA-Z0-9:_]*)((?:" + _attr_pattern("(?:") + ")*+)"
    + _WS + "*(/?)>"
    # end tag
    r"|/([a-zA-Z][-.a-zA-Z0-9:_]*)" + _WS + "*>"
    # comment (HTMLParser ends it at the first --\s*>) and doctype
    r"|!--.*?--\s*>"
    "|![dD][oO][cC][tT][yY][pP][eE][^>]*>"
    ")",
    re.S,
)
_RAW_TEXT = frozenset(("script", "style"))  # HTMLParser's CDATA elements


def _attrs(src: str) -> dict:
    """Attributes of a start tag, as ``dict(HTMLParser attrs)``."""
    attrs = {}
    for name, eq, dq, sq, bare in _ATTR.findall(src):
        value = dq or sq or bare
        attrs[name.lower()] = unescape(value) if value else (
            value if eq else None)
    return attrs


def _parse_fast(html: str) -> Optional[Node]:
    """The tree of ``html`` built from one tokenizer pass, or None when the
    document has markup outside the tokenizer's grammar."""
    doc: list[Node] = []
    root = Node("[document]", {}, None, doc, -1)
    stack = [root]
    top = root
    # split gives the leading text, then per token its four groups (all
    # None for a comment or doctype) and the text after it
    parts = iter(_TOKEN.split(html))
    head = (None, None, None, None, next(parts))
    for name, attr_src, self_closing, end_name, text in chain(
            (head,), zip(parts, parts, parts, parts, parts)):
        if name is not None:
            name = name.lower()
            if name in _RAW_TEXT:
                return None
            node = _open(doc, top, name, _attrs(attr_src) if attr_src else {})
            if not self_closing and name not in _VOID_ELEMENTS:
                stack.append(node)
                top = node
        elif end_name is not None:
            _close_tag(stack, end_name.lower(), len(doc))
            top = stack[-1]
        if text:
            if "<" in text:  # a '<' that starts no accepted token
                return None
            top.children.append(unescape(text))
    _close(stack, 0, len(doc))  # the root and open elements end with it
    return root


def _parse_slow(html: str) -> Node:
    """The tree of ``html`` as ``HTMLParser`` builds it (any document)."""
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    _close(builder.stack, 0, len(builder.doc))  # open elements end here
    return builder.root


def parse_html(html: str) -> Node:
    """Parse HTML into a document Node with its document-order index."""
    root = _parse_fast(html)
    return root if root is not None else _parse_slow(html)
