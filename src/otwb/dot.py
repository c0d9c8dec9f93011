"""Graphviz DOT rendering of state-space snapshots.

Nodes show the sorted oids plus the materialized list; out-edges keep
their order (the first edge is drawn leftmost). A 2D drawing, of a
jupiter space, shows the owner's own (local) edges solid and the others'
(global) edges dashed; an n-ary one numbers each vertex's edges.
"""

from __future__ import annotations

from typing import List

from .css_space import CssSnapshot, Oid, materialize
from .ot_core import to_text


def _node_name(oids: List[Oid]) -> str:
    return "v_" + "_".join(f"c{o.cid}s{o.seq}" for o in oids)


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def _node_label(oids: List[Oid], text: str) -> str:
    ids = "{" + ",".join(o.token() for o in oids) + "}"
    return f"{ids}\\n'{text}'"


def css_to_dot(snapshot: CssSnapshot, title: str, two_d: bool) -> str:
    states = materialize(snapshot)
    lines: List[str] = ["digraph cscw {" if two_d else "digraph css {"]
    if title:
        lines.append(f"  label={_quote(title)};")
    lines.append("  rankdir=TB;")
    lines.append('  node [shape=box, fontname="monospace"];')
    keys = snapshot.order
    oids = {key: snapshot.index.decode(key) for key in keys}
    for key in keys:
        attrs = f"label={_quote(_node_label(oids[key], to_text(states[key])))}, ordering=out"
        if key == snapshot.cur:
            attrs += ", style=bold"
        lines.append(f"  {_node_name(oids[key])} [{attrs}];")
    for key in keys:
        for rank, e in enumerate(snapshot.vertices[key]):
            if two_d:
                attr = "style=solid" if e.oid.cid == snapshot.rid else "style=dashed"
            else:
                attr = f"taillabel={_quote(str(rank))}"
            lines.append(
                f"  {_node_name(oids[key])} -> {_node_name(snapshot.index.decode(key | e.bit))} "
                f"[label={_quote(e.label())}, {attr}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
