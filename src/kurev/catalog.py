"""Catalog of Java knowledge units (KUs) and their detectable capabilities.

Each of the 28 KUs maps to one or more capability rules; each rule carries
declarative syntax patterns that the detector evaluates against a parsed
compilation unit. The built-in catalog ships as package data so the rules
can be reviewed and overridden without code changes.
"""

from __future__ import annotations

import functools
import importlib.resources
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import CatalogError
from .util import sha256_text, whole_number

KU_COUNT = 28

KU_NAMES = (
    "Data Type",
    "Operator and Decision",
    "Array",
    "Loop",
    "Method and Encapsulation",
    "Inheritance",
    "Advanced Class Design",
    "Generics and Collection",
    "Functional Interface",
    "Stream API",
    "Exception",
    "Date Time API",
    "IO",
    "NIO",
    "String Processing",
    "Concurrency",
    "Database",
    "Localization",
    "Java Persistence",
    "Enterprise Java Bean",
    "Java Message Service API",
    "SOAP Web Service",
    "Servlet",
    "Java REST API",
    "Websocket",
    "Java Server Faces",
    "Contexts and Dependency Injection",
    "Batch Processing",
)

NODE_KINDS = frozenset(
    ["declaration", "statement", "expression", "type", "annotation", "invocation"]
)


@dataclass(frozen=True, order=True)
class KuId:
    """One of the 28 knowledge units, identified by 1-based index."""

    index: int

    def __post_init__(self):
        if not 1 <= self.index <= KU_COUNT:
            raise ValueError(f"KU index must be in 1..{KU_COUNT}, got {self.index}")

    @property
    def label(self) -> str:
        return f"K{self.index}"


ALL_KUS = tuple(KuId(i) for i in range(1, KU_COUNT + 1))


@dataclass(frozen=True, order=True)
class CapabilityId:
    ku: KuId
    cap_index: int

    def __post_init__(self):
        if self.cap_index < 1:
            raise ValueError(f"capability index must be >= 1, got {self.cap_index}")

    @property
    def label(self) -> str:
        return f"[{self.ku.label},C{self.cap_index}]"


@dataclass(frozen=True)
class AstPattern:
    """Pure predicate over a syntax node.

    ``node_kind`` selects the node category; ``keyword`` refines it to a
    specific construct or modifier combination; ``name`` matches the
    relevant identifier; ``import_prefix`` requires imports, when present,
    to be consistent with the given package prefix.
    """

    node_kind: str
    name: str | None = None
    keyword: str | None = None
    import_prefix: str | None = None

    def __post_init__(self):
        if self.node_kind not in NODE_KINDS:
            raise CatalogError(f"unknown node_kind {self.node_kind!r}")

    def to_dict(self) -> dict:
        out: dict = {"node_kind": self.node_kind}
        if self.keyword is not None:
            out["keyword"] = self.keyword
        if self.name is not None:
            out["name"] = self.name
        if self.import_prefix is not None:
            out["import_prefix"] = self.import_prefix
        return out


@dataclass(frozen=True)
class CapabilityRule:
    id: CapabilityId
    description: str
    patterns: tuple[AstPattern, ...]
    enabled: bool = True

    def to_dict(self) -> dict:
        return {
            "ku": self.id.ku.index,
            "capability": self.id.cap_index,
            "description": self.description,
            "enabled": self.enabled,
            "patterns": [p.to_dict() for p in self.patterns],
        }


# (rule position, keywords, import prefix): one enabled pattern, ready to
# match. The position indexes ``enabled_rules()``.
PatternEntry = tuple[int, frozenset[str], str | None]


@dataclass(frozen=True)
class CapabilityCatalog:
    """Immutable, validated rule set ordered by (ku, capability)."""

    rules: tuple[CapabilityRule, ...] = field(default_factory=tuple)

    def enabled_rules(self) -> tuple[CapabilityRule, ...]:
        return tuple(r for r in self.rules if r.enabled)

    @functools.cached_property
    def digest(self) -> str:
        """sha256 of :func:`serialize_catalog`, computed once per catalog.

        Stage signatures and the KU cache key on it, so a changed rule
        invalidates both.
        """
        return sha256_text(serialize_catalog(self))

    @functools.cached_property
    def patterns_by_kind(self) -> dict[str, tuple[tuple[PatternEntry, ...], dict, dict]]:
        """Enabled patterns per node kind, in catalog order: those with
        neither name nor keyword, those by name, and the other ones by
        their least keyword, so that only an event holding that keyword
        looks them up.

        Each entry is (rule position in :meth:`enabled_rules`, keywords,
        import prefix); ``keyword`` is split into a set of words here and
        nowhere else.
        """
        table: dict[str, tuple[list, dict, dict]] = {}
        for position, rule in enumerate(self.enabled_rules()):
            for p in rule.patterns:
                keywords = frozenset((p.keyword or "").split())
                entry = (position, keywords, p.import_prefix)
                bare, by_name, by_keyword = table.setdefault(p.node_kind, ([], {}, {}))
                if p.name is not None:
                    by_name.setdefault(p.name, []).append(entry)
                elif keywords:
                    by_keyword.setdefault(min(keywords), []).append(entry)
                else:
                    bare.append(entry)
        return {
            kind: (tuple(bare), {k: tuple(v) for k, v in by_name.items()},
                   {k: tuple(v) for k, v in by_keyword.items()})
            for kind, (bare, by_name, by_keyword) in table.items()
        }

    @functools.cached_property
    def ku_slots(self) -> tuple[int, ...]:
        """0-based KU index of each enabled rule, by rule position."""
        return tuple(rule.id.ku.index - 1 for rule in self.enabled_rules())

    def validate(self) -> None:
        seen: set[CapabilityId] = set()
        for rule in self.rules:
            if rule.id in seen:
                raise CatalogError(f"duplicate rule {rule.id.label}")
            seen.add(rule.id)
            if rule.enabled and not rule.patterns:
                raise CatalogError(f"enabled rule {rule.id.label} has no patterns")
        for ku in ALL_KUS:
            if not any(r.enabled for r in self.rules if r.id.ku == ku):
                raise CatalogError(f"KU {ku.label} has no enabled rule")


def _parse_rule(entry: dict, position: int) -> CapabilityRule:
    where = f"rule #{position}"
    try:
        ku = KuId(whole_number(entry["ku"], "ku"))
        cap = CapabilityId(ku, whole_number(entry["capability"], "capability"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CatalogError(f"{where}: bad ku/capability ({exc})") from exc
    where = f"rule {cap.label}"
    raw_patterns = entry.get("patterns", [])
    if not isinstance(raw_patterns, list):
        raise CatalogError(f"{where}: patterns must be a list")
    patterns = []
    for raw in raw_patterns:
        if not isinstance(raw, dict) or "node_kind" not in raw:
            raise CatalogError(f"{where}: pattern missing node_kind")
        extra = set(raw) - {"node_kind", "name", "keyword", "import_prefix"}
        if extra:
            raise CatalogError(f"{where}: unknown pattern keys {sorted(extra)}")
        for key in ("name", "keyword", "import_prefix"):
            if raw.get(key) is not None and not isinstance(raw[key], str):
                raise CatalogError(f"{where}: pattern {key} must be a string")
        patterns.append(
            AstPattern(
                node_kind=str(raw["node_kind"]),
                name=raw.get("name"),
                keyword=raw.get("keyword"),
                import_prefix=raw.get("import_prefix"),
            )
        )
    enabled = entry.get("enabled", True)
    if not isinstance(enabled, bool):
        raise CatalogError(f"{where}: enabled must be true or false")
    return CapabilityRule(
        id=cap,
        description=str(entry.get("description", "")),
        patterns=tuple(patterns),
        enabled=enabled,
    )


def load_catalog_text(text: str) -> CapabilityCatalog:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise CatalogError(f"catalog is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict) or "rules" not in doc:
        raise CatalogError("catalog must be a mapping with a 'rules' list")
    entries = doc["rules"]
    if not isinstance(entries, list):
        raise CatalogError("'rules' must be a list")
    rules = [_parse_rule(e, i) for i, e in enumerate(entries, start=1)]
    rules.sort(key=lambda r: r.id)
    catalog = CapabilityCatalog(tuple(rules))
    catalog.validate()
    return catalog


def load_catalog(path: str | Path | None = None) -> CapabilityCatalog:
    """Load a catalog file, or the built-in default when ``path`` is None.

    The built-in default is parsed once per process and shared (catalogs
    are immutable); a file is read again on every call.
    """
    if path is None:
        return _builtin_catalog()
    return load_catalog_text(Path(path).read_text(encoding="utf-8"))


@functools.cache
def _builtin_catalog() -> CapabilityCatalog:
    return load_catalog_text(
        importlib.resources.files("kurev.data")
        .joinpath("ku_catalog.yaml")
        .read_text(encoding="utf-8")
    )


def serialize_catalog(catalog: CapabilityCatalog) -> str:
    doc = {"rules": [r.to_dict() for r in catalog.rules]}
    return yaml.safe_dump(doc, sort_keys=False)
