"""Render a traced query as an annotated per-node profile tree.

The ``explain`` / ``trace <expr>`` REPL commands drive a query with a
:class:`~repro.obs.trace.QueryTracer` attached and hand the AST plus
the tracer here.  Output is one line per AST node, in tree shape,
annotating each with its pulls, yields, inclusive time (and share of
the root's time), and attributed target reads — so for the paper's
``x[..100] >? 5`` the cost of the ``to`` node is visibly separate from
the filter's::

    ifgt                      pulls=101  yields=3    time=1.52ms  100.0%  reads=100
    ├─ index                  pulls=101  yields=100  time=1.31ms   86.2%  reads=100
    │  ├─ name "x"            pulls=2    yields=1    time=0.01ms    0.7%
    │  └─ to prefix           pulls=101  yields=100  time=0.12ms    7.9%
    │     └─ constant 100     pulls=2    yields=1    time=0.00ms    0.1%
    └─ constant 5             pulls=200  yields=100  time=0.08ms    5.3%
"""

from __future__ import annotations

from repro.core import nodes as N
from repro.obs.trace import QueryTracer


def render_profile(root: N.Node, tracer: QueryTracer,
                   min_label_width: int = 24) -> list[str]:
    """The annotated tree, one line per AST node."""
    total_ns = max(tracer.total_ns(), 1)
    span_of = tracer.span_for
    rows: list[tuple[str, object]] = []
    # Preorder, iteratively: a flat chain such as ``1 + 1 + ... + 1``
    # is as deep as it is long.
    pending = [(root, "", "")]
    while pending:
        node, prefix, child_prefix = pending.pop()
        span = span_of(node)
        rows.append((prefix + span.label, span))
        kids = node.kids
        for position in range(len(kids) - 1, -1, -1):
            last = position == len(kids) - 1
            connector = "└─ " if last else "├─ "
            descend = "   " if last else "│  "
            pending.append((kids[position], child_prefix + connector,
                            child_prefix + descend))
    width = max(min_label_width, max(len(head) for head, _ in rows))
    lines = []
    for head, span in rows:
        ms = span.time_ns / 1e6
        share = 100.0 * span.time_ns / total_ns
        text = (f"{head:<{width}} "
                f"pulls={span.pulls:<6} yields={span.yields:<6} "
                f"time={ms:.2f}ms {share:5.1f}%")
        if span.reads:
            text += f"  reads={span.reads}"
        if span.writes:
            text += f" writes={span.writes}"
        if span.calls:
            text += f" calls={span.calls}"
        lines.append(text)
    return lines


def profile_footer(produced: int, wall_ms: float, traffic: dict,
                   engine: str = "generator") -> str:
    """The one-line summary printed under the tree."""
    return (f"-- {produced} values in {wall_ms:.1f}ms; "
            f"{traffic.get('reads', 0)} reads, "
            f"{traffic.get('writes', 0)} writes, "
            f"{traffic.get('calls', 0)} calls ({engine} engine)")
