"""Generic syntax-tree node used by the Java parser."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass(slots=True)
class Node:
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)
    children: list["Node"] = field(default_factory=list)

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of this node and all descendants."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = [self.kind]
        if "name" in self.fields:
            bits.append(str(self.fields["name"]))
        if self.children:
            bits.append(f"[{len(self.children)}]")
        return f"<{' '.join(bits)}>"
