"""Knowledge-unit detection over Java source.

The parser emits *events* (declaration uses, statement kinds, expression
kinds, type references, annotations and invocations) as it reads each
construct; no syntax tree is built. Catalog patterns are pure predicates
over events; a capability counts each distinct node matched by any of
its patterns once, and a KU count is the sum of its capability counts.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .catalog import (
    KU_COUNT,
    CapabilityCatalog,
    CapabilityId,
    load_catalog,
)
from .javaparse.parser import parse_java
from .util import sha256_bytes, sha256_text

__all__ = [
    "parse_java",
    "detect_capabilities",
    "detect_kus",
    "iter_events",
    "ku_vector_from_hits",
    "detection_key",
]

# The pattern table of a node kind that no enabled pattern names.
_NO_PATTERNS: tuple = ((), {}, {})


@dataclass
class _Imports:
    explicit: dict[str, str]  # simple -> qualified

    def consistent(self, name: str | None, qualified: str | None, prefix: str) -> bool:
        """Whether a use of ``name`` could resolve under ``prefix``.

        Fully-qualified uses are checked directly; simple names defer to
        an explicit import when one exists, and otherwise count (the
        binding may come from java.lang, the same package, or a wildcard).
        """
        if qualified and "." in qualified:
            head = qualified.split(".", 1)[0]
            if head and head[0].islower():
                return qualified == prefix or qualified.startswith(prefix + ".")
        if name:
            imported = self.explicit.get(name)
            if imported is not None:
                return imported == f"{prefix}.{name}" or imported.startswith(prefix + ".")
        return True


def iter_events(source: str) -> Iterator[tuple[str, list[str], str | None, str | None]]:
    """(category, sorted keywords, name, qualified) of each event the
    parser emits for ``source``, ``error`` events included; the view of
    the front end that tests compare.

    Raises :class:`ParseError` for binary content.
    """
    events, _ = parse_java(source)
    for category, _, keywords, name, qualified in events:
        yield category, sorted(keywords), name, qualified


def _matched_nodes(source: str, catalog: CapabilityCatalog) -> dict[int, set[int]]:
    """Ids of the nodes each enabled rule matched, keyed by the rule's
    position in ``catalog.enabled_rules()``; rules that matched no node
    are absent.

    Raises :class:`ParseError` for binary content.
    """
    events, imports = parse_java(source)
    consistent = _Imports(imports).consistent
    tables = catalog.patterns_by_kind
    matched: defaultdict[int, set[int]] = defaultdict(set)
    for category, node_id, keywords, name, qualified in events:
        # the patterns that could match: by kind alone, by name, by keyword
        found, by_name, by_keyword = tables.get(category, _NO_PATTERNS)
        if name is not None:
            found += by_name.get(name, ())
        for word in keywords:
            found += by_keyword.get(word, ())
        for position, required, prefix in found:
            if required <= keywords and (
                prefix is None or consistent(name, qualified, prefix)
            ):
                matched[position].add(node_id)
    return matched


def detect_capabilities(
    source: str, catalog: CapabilityCatalog | None = None
) -> dict[CapabilityId, int]:
    """Count capability evidence in one Java source file.

    Returns a mapping from every enabled capability to the number of
    distinct syntax nodes exhibiting it (zero entries included). Raises
    :class:`ParseError` for binary content.
    """
    if catalog is None:
        catalog = load_catalog()
    matched = _matched_nodes(source, catalog)
    return {
        rule.id: len(matched.get(position, ()))
        for position, rule in enumerate(catalog.enabled_rules())
    }


def ku_vector_from_hits(hits: dict[CapabilityId, int]) -> list[int]:
    """Aggregate capability counts into the 28-slot KU vector."""
    vector = [0] * KU_COUNT
    for cap, count in hits.items():
        vector[cap.ku.index - 1] += count
    return vector


def detect_kus(source: str, catalog: CapabilityCatalog | None = None) -> list[int]:
    """KU vector (28 non-negative counts) for one Java source file.

    Equals ``ku_vector_from_hits(detect_capabilities(source, catalog))``.
    """
    if catalog is None:
        catalog = load_catalog()
    vector = [0] * KU_COUNT
    slots = catalog.ku_slots
    for position, nodes in _matched_nodes(source, catalog).items():
        vector[slots[position]] += len(nodes)
    return vector


def detection_key(catalog: CapabilityCatalog) -> str:
    """Digest of ``catalog`` and of the code :func:`detect_kus` runs.

    The KU cache and the mine stage's signature key on it, so a vector
    computed by other rules or by other detection code is never reused.
    """
    return sha256_text(f"{catalog.digest}:{_code_digest()}")


@functools.cache
def _code_digest() -> str:
    """Digest of the source of ``catalog.py``, this module and
    ``javaparse/``, read once per process."""
    package = Path(__file__).parent
    files = [package / "catalog.py", Path(__file__),
             *sorted((package / "javaparse").glob("*.py"))]
    return sha256_text(" ".join(
        f"{path.relative_to(package).as_posix()}:{sha256_bytes(path.read_bytes())}"
        for path in files
    ))
