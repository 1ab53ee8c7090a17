"""Generic traversal utilities over the JavaScript AST."""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterator, List, Optional, Tuple

from .nodes import Node


def walk(root: Node) -> Iterator[Node]:
    """Yield ``root`` and every descendant in depth-first pre-order."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        children = list(node.children())
        if children:
            children.reverse()
            stack += children


def walk_with_ancestors(root: Node) -> Iterator[Tuple[Node, Tuple[Node, ...]]]:
    """Yield ``(node, ancestors)`` pairs in depth-first pre-order.

    ``ancestors`` is ordered from the root down to the immediate parent, so
    ``ancestors[-1]`` (when present) is the node's parent.
    """
    stack: List[Tuple[Node, Tuple[Node, ...]]] = [(root, ())]
    while stack:
        node, ancestors = stack.pop()
        yield node, ancestors
        children = list(node.children())
        if children:
            children.reverse()
            stack += zip(children, repeat(ancestors + (node,)))


def find_all(root: Node, predicate: Callable[[Node], bool]) -> List[Node]:
    """Collect every node under ``root`` (inclusive) matching ``predicate``."""
    return [node for node in walk(root) if predicate(node)]


def find_first(root: Node, predicate: Callable[[Node], bool]) -> Optional[Node]:
    """Return the first node in pre-order matching ``predicate``, if any."""
    for node in walk(root):
        if predicate(node):
            return node
    return None


def count_nodes(root: Node) -> int:
    """Number of nodes in the tree rooted at ``root``."""
    return sum(1 for _ in walk(root))
