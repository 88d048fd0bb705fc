"""Minimal HTML DOM on top of ``html.parser`` (stdlib only).

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

Entities are decoded by ``HTMLParser(convert_charrefs=True)``. Void elements
(img, br, hr, ...) never take children.

Document-order index: the parser appends every element to one flat list in
the order its start tag is seen, which is pre-order. Each node records its
position in that list and the end of its subtree (one past its last
descendant), so ``descendants()`` and ``find_all_next()`` are list slices
and ``find``/``find_all`` scan those slices; no traversal recurses.
"""

from __future__ import annotations

import re
from html.parser import HTMLParser
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


class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.doc: list[Node] = []
        self.root = Node("[document]", {}, None, self.doc, -1)
        self.stack = [self.root]

    def _open(self, tag, attrs) -> Node:
        parent = self.stack[-1]
        node = Node(tag, dict(attrs), parent, self.doc, len(self.doc))
        self.doc.append(node)
        parent.children.append(node)
        return node

    def _close(self, i: int) -> None:
        """Pop stack[i:], ending each popped element's subtree here."""
        end = len(self.doc)
        for node in self.stack[i:]:
            node._end = end
        del self.stack[i:]

    def handle_starttag(self, tag, attrs):
        node = self._open(tag, attrs)
        if tag not in _VOID_ELEMENTS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        self._open(tag, attrs)

    def handle_endtag(self, tag):
        # close the nearest matching open element (tolerant of stray end tags)
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].name == tag:
                self._close(i)
                break

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)


def parse_html(html: str) -> Node:
    """Parse HTML into a document Node with its document-order index."""
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    builder._close(0)  # elements still open end with the document
    return builder.root
