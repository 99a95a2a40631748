"""Canonical AST fingerprints — the key for statement statistics.

``pg_stat_statements`` aggregates load by *query shape*, not query
text: ``data[..10] = 5001`` and ``data[..10] = 5002`` are the same
statement with different literals.  This module computes the analogous
key for DUEL: a canonical rendering of the parsed AST with

* **literals bucketed** — every :class:`~repro.core.nodes.Constant`
  and :class:`~repro.core.nodes.StringLiteral` renders as ``?``, so
  differing constants collapse into one fingerprint;
* **aliases resolved** — names *bound inside the query* (``x := e``
  definitions and ``e#i`` index aliases) are replaced positionally by
  ``$1``, ``$2``, ... in binding order, along with every reference to
  them, so ``x := data[..10]`` and ``y := data[..10]`` fingerprint
  identically while references to *program* symbols (``data``,
  ``head``) keep their names — those define the shape;
* **stable hash** — 16 hex chars of SHA-256 over the canonical text,
  stable across processes and sessions (no ``PYTHONHASHSEED``
  dependence).

The fingerprint is a pure function of the AST, and both engines
evaluate the *same* AST from the shared parser, so engine parity is
structural: identical query text ⇒ identical node tree ⇒ identical
fingerprint.  This canonical key — paired with a target memory epoch —
is exactly what ROADMAP item 5's result cache will be keyed on.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

from repro.core import nodes as N


class Fingerprint(NamedTuple):
    """A statement fingerprint: stable hash plus canonical text."""

    hash: str       #: 16 hex chars of SHA-256 over ``text``.
    text: str       #: The canonical (normalized) AST rendering.


def bound_names(node: N.Node) -> dict:
    """Names bound *by this query*, mapped to ``$N`` placeholders.

    Binding order is preorder position — deterministic for a given
    AST — so the placeholder assignment never depends on evaluation.
    """
    mapping: dict[str, str] = {}
    for n in N.walk(node):
        if isinstance(n, (N.Define, N.IndexAlias)):
            if n.name not in mapping:
                mapping[n.name] = f"${len(mapping) + 1}"
    return mapping


def canonical(node: N.Node) -> str:
    """The normalized rendering the fingerprint hashes."""
    return _render(node, bound_names(node))


def _render(root: N.Node, aliases: dict) -> str:
    """``(op extra kid...)``, rendered iteratively: a flat chain such
    as ``1 + 1 + ... + 1`` is as deep as it is long."""
    parts = []
    pending: list = [root]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        parts.append("(" + item.op)
        extra = _extra(item, aliases)
        if extra is not None:
            parts.append(" " + extra)
        pending.append(")")
        for kid in reversed(item.kids):
            pending.append(kid)
            pending.append(" ")
    return "".join(parts)


def _extra(node: N.Node, aliases: dict):
    """The node-specific payload, normalized; None when there is none."""
    if isinstance(node, (N.Constant, N.StringLiteral)):
        return "?"
    if isinstance(node, N.Name):
        return aliases.get(node.name, node.name)
    if isinstance(node, (N.Define, N.IndexAlias)):
        return aliases[node.name]
    if isinstance(node, N.To):
        # Open endpoints change arity silently; keep them distinct.
        if node.lo is None:
            return "prefix"
        if node.hi is None:
            return "unbounded"
        return None
    if isinstance(node, N.Declaration):
        return node.text
    if isinstance(node, N.Cast):
        return node.type_text
    if isinstance(node, N.SizeOf):
        return node.type_text
    return None


def fingerprint(node: N.Node) -> Fingerprint:
    """Canonicalize and hash one parsed query."""
    text = canonical(node)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    return Fingerprint(digest, text)
