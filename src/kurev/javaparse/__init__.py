"""Self-contained Java lexer and best-effort event-emitting parser."""

from .parser import parse_java

__all__ = ["parse_java"]
