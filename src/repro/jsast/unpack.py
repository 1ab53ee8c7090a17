"""Static unpacking of dynamically generated JavaScript.

The paper intercepts Chrome V8's ``script.parsed`` hook so that code passed
to ``eval()`` (or injected via ``<script>``/``<iframe>``) is analysed in its
*unpacked* form. We reproduce that behaviour statically: expressions passed
to ``eval``/``Function``/``setTimeout``/``document.write`` are constant-
folded where possible, parsed, and spliced into the surrounding program.
The common Dean Edwards ``p,a,c,k,e,d`` packer is evaluated directly.

The result is the same property the paper relies on: feature extraction
sees the real anti-adblocking logic, not the packer shell.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field
from typing import List, Optional, Set

from . import nodes as N
from .parser import ParseError, parse
from .tokenizer import TokenizeError
from .walker import walk_with_ancestors

#: Upper bound on unpacking passes; packers nest but never this deep.
MAX_UNPACK_ROUNDS = 8


@dataclass
class UnpackResult:
    """Outcome of :func:`unpack_program`."""

    program: N.Program
    rounds: int = 0
    unpacked_sources: List[str] = field(default_factory=list)
    #: dynamic payloads that folded to a constant string but did not parse
    #: as JavaScript (each distinct payload counted once) — the unpacker
    #: left them in place rather than splicing their statements in.
    failed_payloads: int = 0
    #: the round cap cut unpacking off while rounds were still changing
    #: the program (reaching a fixed point in exactly the cap is clean)
    hit_round_cap: bool = False

    @property
    def was_packed(self) -> bool:
        """Whether any dynamic code was unpacked."""
        return self.rounds > 0

    @property
    def bailed_out(self) -> bool:
        """Whether unpacking gave up on any payload or was cut off by the cap."""
        return self.failed_payloads > 0 or self.hit_round_cap


def fold_constant_string(node: N.Node) -> Optional[str]:
    """Statically evaluate ``node`` to a string, or return ``None``.

    Handles string/number literals, ``+`` concatenation chains,
    ``String.fromCharCode(...)`` with literal arguments, ``'...'.split('')``
    joins, array ``join`` over literal elements, and parenthesised/sequence
    wrappers. This covers the packer idioms observed in anti-adblock
    deployments.
    """
    if isinstance(node, N.Literal) and node.regex is None:
        if isinstance(node.value, str):
            return node.value
        if isinstance(node.value, float):
            return _js_number_to_string(node.value)
        return None
    if isinstance(node, N.BinaryExpression) and node.operator == "+":
        left = fold_constant_string(node.left)
        right = fold_constant_string(node.right)
        if left is not None and right is not None:
            return left + right
        return None
    if isinstance(node, N.SequenceExpression) and node.expressions:
        return fold_constant_string(node.expressions[-1])
    if isinstance(node, N.CallExpression):
        return _fold_call(node)
    return None


def _js_number_to_string(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _fold_call(node: N.CallExpression) -> Optional[str]:
    callee = node.callee
    if not isinstance(callee, N.MemberExpression) or callee.computed:
        return None
    if not isinstance(callee.property, N.Identifier):
        return None
    method = callee.property.name
    if method == "fromCharCode" and _is_member_path(callee.object, ("String",)):
        codes = []
        for arg in node.arguments:
            if isinstance(arg, N.Literal) and isinstance(arg.value, float):
                codes.append(chr(int(arg.value)))
            else:
                return None
        return "".join(codes)
    if method == "join":
        elements = _fold_array_elements(callee.object)
        if elements is None:
            return None
        separator = ","
        if node.arguments:
            folded = fold_constant_string(node.arguments[0])
            if folded is None:
                return None
            separator = folded
        return separator.join(elements)
    if method == "reverse":
        # ``'...'.split('').reverse().join('')`` idiom is handled by join()
        # above through _fold_array_elements; a bare reverse() call cannot
        # itself be a string.
        return None
    if method == "replace" and len(node.arguments) == 2:
        base = fold_constant_string(callee.object)
        target = fold_constant_string(node.arguments[0])
        replacement = fold_constant_string(node.arguments[1])
        if base is not None and target is not None and replacement is not None:
            return base.replace(target, replacement, 1)
    return None


def _fold_array_elements(node: N.Node) -> Optional[List[str]]:
    """Fold an expression into a list of strings, if statically possible."""
    if isinstance(node, N.ArrayExpression):
        elements: List[str] = []
        for element in node.elements:
            if element is None:
                elements.append("")
                continue
            folded = fold_constant_string(element)
            if folded is None:
                return None
            elements.append(folded)
        return elements
    if isinstance(node, N.CallExpression):
        callee = node.callee
        if (
            isinstance(callee, N.MemberExpression)
            and isinstance(callee.property, N.Identifier)
            and not callee.computed
        ):
            if callee.property.name == "split" and len(node.arguments) == 1:
                base = fold_constant_string(callee.object)
                separator = fold_constant_string(node.arguments[0])
                if base is None or separator is None:
                    return None
                if separator == "":
                    return list(base)
                return base.split(separator)
            if callee.property.name == "reverse" and not node.arguments:
                inner = _fold_array_elements(callee.object)
                if inner is None:
                    return None
                return list(reversed(inner))
    return None


def _is_member_path(node: N.Node, path: tuple) -> bool:
    """True when ``node`` spells the dotted identifier path ``path``."""
    parts: List[str] = []
    current = node
    while isinstance(current, N.MemberExpression) and not current.computed:
        if not isinstance(current.property, N.Identifier):
            return False
        parts.append(current.property.name)
        current = current.object
    if isinstance(current, N.Identifier):
        parts.append(current.name)
    else:
        return False
    return tuple(reversed(parts)) == path


_SCRIPT_TAG_RE = re.compile(
    r"<script[^>]*>(?P<body>.*?)</script\s*>", re.IGNORECASE | re.DOTALL
)


def _extract_inline_scripts(html_fragment: str) -> List[str]:
    """Pull inline ``<script>`` bodies out of a document.write payload."""
    return [m.group("body") for m in _SCRIPT_TAG_RE.finditer(html_fragment)]


def _dynamic_code_sources(call: N.CallExpression) -> List[str]:
    """Return the JS source strings a call would dynamically execute."""
    callee = call.callee
    # eval("...")
    if isinstance(callee, N.Identifier) and callee.name == "eval" and call.arguments:
        folded = fold_constant_string(call.arguments[0])
        return [folded] if folded is not None else []
    # window.eval("..."), this.eval is out of scope
    if (
        isinstance(callee, N.MemberExpression)
        and not callee.computed
        and isinstance(callee.property, N.Identifier)
        and callee.property.name == "eval"
        and isinstance(callee.object, N.Identifier)
        and callee.object.name in ("window", "self", "globalThis")
        and call.arguments
    ):
        folded = fold_constant_string(call.arguments[0])
        return [folded] if folded is not None else []
    # new Function("body")() is handled at the NewExpression level; the
    # direct Function("body")() form lands here.
    if isinstance(callee, N.Identifier) and callee.name == "Function" and call.arguments:
        folded = fold_constant_string(call.arguments[-1])
        return [folded] if folded is not None else []
    # setTimeout("code", delay) string form
    if (
        isinstance(callee, N.Identifier)
        and callee.name in ("setTimeout", "setInterval")
        and call.arguments
    ):
        folded = fold_constant_string(call.arguments[0])
        return [folded] if folded is not None else []
    # document.write("<script>...</script>")
    if (
        isinstance(callee, N.MemberExpression)
        and not callee.computed
        and isinstance(callee.property, N.Identifier)
        and callee.property.name in ("write", "writeln")
        and _is_member_path(callee.object, ("document",))
        and call.arguments
    ):
        folded = fold_constant_string(call.arguments[0])
        if folded is None:
            return []
        return _extract_inline_scripts(folded)
    return []


def _try_parse(source: str) -> Optional[N.Program]:
    try:
        return parse(source)
    except (ParseError, TokenizeError):
        return None


def _unpack_packed_packer(calls: List[N.CallExpression]) -> Optional[str]:
    """Evaluate the Dean Edwards ``eval(function(p,a,c,k,e,d){...})`` packer.

    Detects the canonical shape among ``calls`` (a program's call
    expressions in pre-order) and runs the base-N word substitution in
    Python, returning the unpacked source of the first packer found.
    """
    for node in calls:
        if not (isinstance(node.callee, N.Identifier) and node.callee.name == "eval"):
            continue
        if len(node.arguments) != 1:
            continue
        inner = node.arguments[0]
        if not isinstance(inner, N.CallExpression):
            continue
        if not isinstance(inner.callee, N.FunctionExpression):
            continue
        params = [p.name for p in inner.callee.params]
        if params[:4] != ["p", "a", "c", "k"]:
            continue
        if len(inner.arguments) < 4:
            continue
        payload = fold_constant_string(inner.arguments[0])
        radix_node = inner.arguments[1]
        count_node = inner.arguments[2]
        words = _fold_array_elements(inner.arguments[3])
        if payload is None or words is None:
            continue
        if not isinstance(radix_node, N.Literal) or not isinstance(count_node, N.Literal):
            continue
        radix = int(radix_node.value)
        return _packed_substitute(payload, radix, words)
    return None


_BASE62 = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _encode_base(value: int, radix: int) -> str:
    if value == 0:
        return _BASE62[0]
    digits = []
    while value:
        digits.append(_BASE62[value % radix])
        value //= radix
    return "".join(reversed(digits))


def _packed_substitute(payload: str, radix: int, words: List[str]) -> str:
    mapping = {}
    for index, word in enumerate(words):
        token = _encode_base(index, radix)
        mapping[token] = word if word else token

    def replace(match: re.Match) -> str:
        """Regex callback substituting packed word tokens."""
        token = match.group(0)
        return mapping.get(token, token)

    return re.sub(r"\b\w+\b", replace, payload)


def unpack_program(program: N.Program) -> UnpackResult:
    """Iteratively splice dynamically generated code into ``program``.

    Each round scans for ``eval``-like calls whose payload folds to a
    constant string, parses the payload, and replaces the call's statement
    with the parsed statements. Rounds repeat until fixpoint or
    :data:`MAX_UNPACK_ROUNDS`.
    """
    rounds = 0
    sources: List[str] = []
    failed: Set[str] = set()
    while rounds < MAX_UNPACK_ROUNDS:
        changed = _unpack_one_round(program, sources, failed)
        if not changed:
            break
        rounds += 1
    hit_cap = False
    if rounds >= MAX_UNPACK_ROUNDS:
        # Hitting the cap is only a bailout when another round would
        # still change something; a program whose fixed point lands in
        # exactly MAX_UNPACK_ROUNDS rounds unpacked cleanly. Probe on a
        # throwaway copy so the returned program stays capped.
        hit_cap = _unpack_one_round(copy.deepcopy(program), [], set())
    return UnpackResult(
        program=program,
        rounds=rounds,
        unpacked_sources=sources,
        failed_payloads=len(failed),
        hit_round_cap=hit_cap,
    )


def _unpack_one_round(program: N.Program, sources: List[str], failed: Set[str]) -> bool:
    # One walk serves both passes: neither the packer search nor payload
    # folding changes the tree, which is only modified just before returning.
    calls = [
        (node, ancestors)
        for node, ancestors in walk_with_ancestors(program)
        if isinstance(node, N.CallExpression)
    ]
    packed = _unpack_packed_packer([node for node, _ancestors in calls])
    if packed is not None:
        parsed = _try_parse(packed)
        if parsed is not None:
            sources.append(packed)
            _remove_packer_statements(program)
            program.body.extend(parsed.body)
            return True
        failed.add(packed)
    for node, ancestors in calls:
        payloads = _dynamic_code_sources(node)
        if not payloads:
            continue
        parsed_bodies: List[N.Node] = []
        for payload in payloads:
            parsed = _try_parse(payload)
            if parsed is None:
                failed.add(payload)
                parsed_bodies = []
                break
            sources.append(payload)
            parsed_bodies.extend(parsed.body)
        if not parsed_bodies:
            continue
        if _splice_statements(node, ancestors, parsed_bodies, program):
            return True
    return False


def _remove_packer_statements(program: N.Program) -> None:
    """Drop top-level statements that are pure eval(packer) shells."""
    kept = []
    for statement in program.body:
        if isinstance(statement, N.ExpressionStatement):
            expression = statement.expression
            if (
                isinstance(expression, N.CallExpression)
                and isinstance(expression.callee, N.Identifier)
                and expression.callee.name == "eval"
                and len(expression.arguments) == 1
                and isinstance(expression.arguments[0], N.CallExpression)
                and isinstance(expression.arguments[0].callee, N.FunctionExpression)
            ):
                continue
        kept.append(statement)
    program.body[:] = kept


def _splice_statements(
    call: N.CallExpression,
    ancestors: tuple,
    replacement: List[N.Node],
    program: N.Program,
) -> bool:
    """Replace the statement containing ``call`` with ``replacement``.

    Only splices when the call is the whole expression of an
    ExpressionStatement that sits directly in a statement list; otherwise
    the replacement statements are appended to the program body so the
    unpacked code is still visible to analysis.
    """
    parent = ancestors[-1] if ancestors else None
    if isinstance(parent, N.ExpressionStatement) and parent.expression is call:
        grandparent = ancestors[-2] if len(ancestors) >= 2 else None
        container = None
        if isinstance(grandparent, (N.Program, N.BlockStatement)):
            container = grandparent.body
        elif isinstance(grandparent, N.SwitchCase):
            container = grandparent.consequent
        if container is not None:
            index = next((i for i, s in enumerate(container) if s is parent), None)
            if index is not None:
                container[index : index + 1] = replacement
                return True
        parent.expression = N.Literal(value=None, raw="null")
        program.body.extend(replacement)
        return True
    # The call result is used in an expression context — neutralise the
    # call site and append the unpacked statements for analysis.
    if parent is not None and parent.replace_child(call, N.Literal(value=None, raw="null")):
        program.body.extend(replacement)
        return True
    return False


def unpack_source(source: str) -> UnpackResult:
    """Parse ``source`` and unpack any dynamically generated code."""
    return unpack_program(parse(source))
