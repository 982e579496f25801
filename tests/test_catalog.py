"""Catalog loading, validation, and round-trip behaviour."""

import pytest
import yaml

from kurev.catalog import (
    ALL_KUS,
    KU_COUNT,
    CapabilityId,
    KuId,
    load_catalog,
    load_catalog_text,
    serialize_catalog,
)
from kurev.errors import CatalogError
from kurev.util import sha256_text


def test_builtin_catalog_covers_all_kus():
    catalog = load_catalog()
    covered = {r.id.ku for r in catalog.enabled_rules()}
    assert covered == set(ALL_KUS)


def test_builtin_catalog_ordered_and_unique():
    catalog = load_catalog()
    ids = [r.id for r in catalog.rules]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))


def test_ku_id_bounds():
    with pytest.raises(ValueError):
        KuId(0)
    with pytest.raises(ValueError):
        KuId(KU_COUNT + 1)
    assert KuId(8).label == "K8"
    assert CapabilityId(KuId(8), 2).label == "[K8,C2]"


def test_load_is_deterministic(tmp_path):
    text = serialize_catalog(load_catalog())
    f = tmp_path / "cat.yaml"
    f.write_text(text)
    assert load_catalog(f) == load_catalog(f)


def test_builtin_catalog_is_loaded_once_and_a_file_on_every_call(tmp_path):
    builtin = load_catalog()
    assert load_catalog() is builtin
    assert builtin.digest == sha256_text(serialize_catalog(builtin))
    f = tmp_path / "cat.yaml"
    f.write_text(serialize_catalog(builtin))
    first = load_catalog(f)
    assert first == builtin and first is not load_catalog(f)
    doc = yaml.safe_load(f.read_text())
    doc["rules"][0]["description"] = "edited"
    f.write_text(yaml.safe_dump(doc, sort_keys=False))
    edited = load_catalog(f)
    assert edited.rules[0].description == "edited"
    assert edited.digest == sha256_text(serialize_catalog(edited)) != builtin.digest


def test_serialize_round_trip():
    catalog = load_catalog()
    assert load_catalog_text(serialize_catalog(catalog)) == catalog


def test_disabling_every_rule_of_a_ku_rejected():
    catalog = load_catalog()
    doc_rules = []
    for r in catalog.rules:
        d = r.to_dict()
        if d["ku"] == 28:
            d["enabled"] = False
        doc_rules.append(d)
    import yaml

    text = yaml.safe_dump({"rules": doc_rules})
    with pytest.raises(CatalogError, match="K28"):
        load_catalog_text(text)


def test_custom_catalog_single_rule_per_ku():
    # one try-statement pattern standing in for K11, everything else kept
    catalog = load_catalog()
    doc_rules = [r.to_dict() for r in catalog.rules if r.id.ku.index != 11]
    doc_rules.append(
        {
            "ku": 11,
            "capability": 1,
            "description": "try statements",
            "patterns": [{"node_kind": "statement", "keyword": "try"}],
        }
    )
    import yaml

    loaded = load_catalog_text(yaml.safe_dump({"rules": doc_rules}))
    k11 = [r for r in loaded.rules if r.id.ku.index == 11]
    assert len(k11) == 1 and len(k11[0].patterns) == 1


def test_malformed_rule_names_offender():
    with pytest.raises(CatalogError, match="rule #1"):
        load_catalog_text("rules:\n  - {capability: 1}\n")


def test_rule_ids_must_be_whole_numbers():
    catalog = load_catalog()
    doc_rules = [r.to_dict() for r in catalog.rules]
    for key, value in (("capability", 97.6), ("ku", True),
                       ("capability", float("inf")), ("ku", 1.5)):
        bad = [dict(doc_rules[0], **{key: value})] + doc_rules[1:]
        with pytest.raises(CatalogError, match="rule #1: bad ku/capability"):
            load_catalog_text(yaml.safe_dump({"rules": bad}))
    # integer strings still load
    doc_rules[0].update(ku="1", capability="1")
    assert load_catalog_text(yaml.safe_dump({"rules": doc_rules})).rules == catalog.rules


def test_unknown_pattern_key_rejected():
    text = """
rules:
  - ku: 1
    capability: 1
    description: x
    patterns:
      - {node_kind: statement, bogus: 1}
"""
    with pytest.raises(CatalogError, match="bogus"):
        load_catalog_text(text)


@pytest.mark.parametrize(
    "pattern",
    [
        "{node_kind: statement, name: 1}",
        "{node_kind: statement, keyword: 5}",
        "{node_kind: statement, import_prefix: [java.io]}",
    ],
)
def test_non_string_pattern_field_rejected(pattern):
    text = f"rules:\n  - {{ku: 1, capability: 1, patterns: [{pattern}]}}\n"
    with pytest.raises(CatalogError, match=r"\[K1,C1\].*must be a string"):
        load_catalog_text(text)


def test_enabled_must_be_a_yaml_bool():
    catalog = load_catalog()
    doc_rules = [r.to_dict() for r in catalog.rules]
    # a rule whose KU keeps another enabled rule, so False alone loads
    kus = [d["ku"] for d in doc_rules]
    i = next(i for i in range(1, len(kus)) if kus[i - 1] == kus[i])
    doc_rules[i]["enabled"] = "false"
    with pytest.raises(CatalogError, match="enabled must be true or false"):
        load_catalog_text(yaml.safe_dump({"rules": doc_rules}))
    doc_rules[i]["enabled"] = False
    loaded = load_catalog_text(yaml.safe_dump({"rules": doc_rules}))
    assert loaded.rules[i].enabled is False


def test_not_yaml_rejected():
    with pytest.raises(CatalogError):
        load_catalog_text("{rules: [")
    with pytest.raises(CatalogError):
        load_catalog_text("- just\n- a list\n")
