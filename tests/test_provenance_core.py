"""Provenance model, graph, and record schemas."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    CycleDetected,
    ProvenanceError,
    RecordValidationError,
    UnknownEntity,
)
from repro.provenance import ProvenanceGraph, RelationKind, make_record
from repro.provenance.model import (
    NodeKind, ProvNode, Relation, check_relation_signature,
)
from repro.persist.codec import encode_record
from repro.provenance.records import (
    DOMAIN_SCHEMAS,
    record_digest,
    validate_record,
)

_FIELD_NAMES = st.text(min_size=1, max_size=8)
_FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.binary(max_size=8), st.lists(st.integers(), max_size=3))
_RECORDS = st.dictionaries(_FIELD_NAMES, _FIELD_VALUES, min_size=1,
                           max_size=6)


@pytest.fixture
def graph():
    g = ProvenanceGraph()
    g.add_agent("alice")
    g.add_entity("raw")
    g.add_activity("clean-run")
    g.add_entity("clean")
    g.relate("clean-run", RelationKind.USED, "raw")
    g.relate("clean", RelationKind.WAS_GENERATED_BY, "clean-run")
    g.relate("clean", RelationKind.WAS_DERIVED_FROM, "raw")
    g.relate("clean", RelationKind.WAS_ATTRIBUTED_TO, "alice")
    return g


class TestModelTyping:
    def test_signature_enforced(self):
        with pytest.raises(ProvenanceError):
            check_relation_signature(
                RelationKind.USED, NodeKind.ENTITY, NodeKind.ACTIVITY
            )

    def test_wrong_edge_types_rejected(self, graph):
        with pytest.raises(ProvenanceError):
            graph.relate("alice", RelationKind.USED, "raw")

    def test_unknown_node_rejected(self, graph):
        with pytest.raises(UnknownEntity):
            graph.relate("ghost", RelationKind.USED, "raw")

    def test_node_immutability(self, graph):
        with pytest.raises(ProvenanceError):
            graph.add_entity("raw", note="different content now")

    def test_idempotent_identical_add(self, graph):
        graph.add_entity("raw")     # same content — fine
        assert graph.node_count == 4

    def test_node_and_relation_digests_are_content_determined(self):
        a = ProvNode("n", NodeKind.ENTITY, {"size": 3}, created_at=1)
        assert a.digest() == ProvNode("n", NodeKind.ENTITY, {"size": 3},
                                      created_at=1).digest()
        assert a.digest() != ProvNode("n", NodeKind.ENTITY, {"size": 4},
                                      created_at=1).digest()
        assert (a.attr("size"), a.attr("missing", "d")) == (3, "d")
        rel = Relation("b", "a", RelationKind.WAS_DERIVED_FROM)
        assert rel.digest() == Relation(
            "b", "a", RelationKind.WAS_DERIVED_FROM).digest()
        assert rel.digest() != Relation(
            "a", "b", RelationKind.WAS_DERIVED_FROM).digest()


class TestAcyclicity:
    def test_direct_cycle_blocked(self, graph):
        with pytest.raises(CycleDetected):
            graph.relate("raw", RelationKind.WAS_DERIVED_FROM, "clean")

    def test_self_loop_blocked(self, graph):
        with pytest.raises(CycleDetected):
            graph.relate("raw", RelationKind.WAS_DERIVED_FROM, "raw")

    def test_long_cycle_blocked(self):
        g = ProvenanceGraph()
        for name in "abcd":
            g.add_entity(name)
        g.relate("b", RelationKind.WAS_DERIVED_FROM, "a")
        g.relate("c", RelationKind.WAS_DERIVED_FROM, "b")
        g.relate("d", RelationKind.WAS_DERIVED_FROM, "c")
        with pytest.raises(CycleDetected):
            g.relate("a", RelationKind.WAS_DERIVED_FROM, "d")


class TestTraversals:
    def test_lineage(self, graph):
        assert set(graph.lineage("clean")) == {"clean-run", "raw"}

    def test_impact(self, graph):
        assert set(graph.impact("raw")) == {"clean-run", "clean"}

    def test_lineage_excludes_agents(self, graph):
        assert "alice" not in graph.lineage("clean")

    def test_derivation_chain(self):
        g = ProvenanceGraph()
        for name in ("v1", "v2", "v3"):
            g.add_entity(name)
        g.relate("v2", RelationKind.WAS_DERIVED_FROM, "v1")
        g.relate("v3", RelationKind.WAS_DERIVED_FROM, "v2")
        assert g.derivation_chain("v3") == ["v3", "v2", "v1"]

    def test_derivation_chain_needs_entity(self, graph):
        with pytest.raises(ProvenanceError):
            graph.derivation_chain("clean-run")

    def test_generating_activity(self, graph):
        assert graph.generating_activity("clean") == "clean-run"
        assert graph.generating_activity("raw") is None

    def test_topological_order_respects_dependencies(self, graph):
        order = graph.topological_order()
        assert order.index("raw") < order.index("clean-run")
        assert order.index("clean-run") < order.index("clean")

    def test_subgraph_induced(self, graph):
        sub = graph.subgraph(["raw", "clean"])
        assert sub.node_count == 2
        assert sub.edge_count == 1    # only the derivation edge survives

    def test_lineage_subgraph(self, graph):
        sub = graph.lineage_subgraph("clean")
        assert set(n.node_id for n in sub.nodes()) == \
            {"clean", "clean-run", "raw"}

    def test_digest_changes_with_content(self, graph):
        d1 = graph.digest()
        graph.add_entity("new-thing")
        assert graph.digest() != d1

    def test_node_and_edge_accessors(self, graph):
        assert graph.node("raw").kind == NodeKind.ENTITY
        assert [(r.kind, r.target) for r in graph.out_edges("clean-run")] \
            == [(RelationKind.USED, "raw")]
        assert {r.source for r in graph.in_edges("raw")} == \
            {"clean-run", "clean"}
        assert len(list(graph.edges())) == graph.edge_count == 4
        assert [r.source for r in graph.edges(RelationKind.USED)] == \
            ["clean-run"]
        for lookup in (graph.node, graph.out_edges, graph.in_edges):
            with pytest.raises(UnknownEntity):
                lookup("ghost")

    def test_attributed_agents(self, graph):
        assert graph.attributed_agents("clean") == ["alice"]
        assert graph.attributed_agents("raw") == []
        with pytest.raises(UnknownEntity):
            graph.attributed_agents("ghost")


class TestGraphProperties:
    @settings(max_examples=25)
    @given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)),
                    max_size=40))
    def test_never_cyclic(self, edges):
        g = ProvenanceGraph()
        for i in range(15):
            g.add_entity(f"e{i}")
        for src, dst in edges:
            if src == dst:
                continue
            try:
                g.relate(f"e{src}", RelationKind.WAS_DERIVED_FROM, f"e{dst}")
            except CycleDetected:
                continue
        # Topological order exists iff acyclic — must never raise.
        order = g.topological_order()
        assert len(order) == 15

    @settings(max_examples=25)
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    max_size=25))
    def test_lineage_impact_duality(self, edges):
        g = ProvenanceGraph()
        for i in range(10):
            g.add_entity(f"e{i}")
        for src, dst in edges:
            if src == dst:
                continue
            try:
                g.relate(f"e{src}", RelationKind.WAS_DERIVED_FROM, f"e{dst}")
            except CycleDetected:
                continue
        for i in range(10):
            node = f"e{i}"
            for ancestor in g.lineage(node):
                assert node in g.impact(ancestor)


class TestRecordSchemas:
    def test_all_five_domains_registered(self):
        assert set(DOMAIN_SCHEMAS) == {
            "supply_chain", "digital_forensics", "scientific",
            "healthcare", "machine_learning",
        }

    def test_valid_record_builds(self):
        record = make_record(
            "digital_forensics", "r1", subject="ev", actor="det",
            operation="collect", timestamp=1, case_number="C1",
            stage="collection", case_start=0, file_types=["image"],
        )
        validate_record(record)

    def test_missing_required_field(self):
        with pytest.raises(RecordValidationError):
            make_record("scientific", "r1", subject="s", actor="a",
                        operation="o", timestamp=1, task_id="t")

    def test_bad_field_type(self):
        with pytest.raises(RecordValidationError):
            make_record(
                "scientific", "r1", subject="s", actor="a", operation="o",
                timestamp=1, task_id="t", workflow_id="w",
                execution_time="not-an-int", user_id="u",
                input_data=[], output_data=["x"],
            )

    def test_unknown_field_rejected(self):
        with pytest.raises(RecordValidationError):
            make_record(
                "healthcare", "r1", subject="s", actor="a", operation="o",
                timestamp=1, patient_pseudonym="p", ehr_id="e",
                provider_id="pr", record_types=["t"], surprise_field=1,
            )

    def test_required_fields_are_what_the_rule_demands(self):
        base = dict(record_id="r1", subject="s", actor="a", operation="o",
                    timestamp=1, task_id="t", workflow_id="w",
                    execution_time=5, user_id="u", input_data=[],
                    output_data=["x"])
        schema = DOMAIN_SCHEMAS["scientific"]
        required = schema.required_fields()
        assert required and set(required) <= set(schema.fields)
        assert len(schema.paper_labels()) == len(schema.fields)
        validate_record(dict(base, domain="scientific"))
        for name in required:
            record = {k: v for k, v in base.items() if k != name}
            with pytest.raises(RecordValidationError):
                validate_record(dict(record, domain="scientific"))

    def test_unknown_domain_rejected(self):
        with pytest.raises(RecordValidationError):
            make_record("astrology", "r1", subject="s", actor="a",
                        operation="o", timestamp=1)

    def test_ml_asset_type_enum(self):
        with pytest.raises(RecordValidationError):
            make_record(
                "machine_learning", "r1", subject="s", actor="a",
                operation="o", timestamp=1, asset_id="x",
                asset_type="spreadsheet", parent_assets=[],
                contributor_id="c",
            )

    @settings(max_examples=60)
    @given(record=_RECORDS, key=_FIELD_NAMES, value=_FIELD_VALUES,
           pick=st.integers(min_value=0))
    def test_digest_covers_every_field(self, record, key, value, pick):
        digest = record_digest(record)
        assert record_digest(record, encode_record(record)) == digest
        field = sorted(record)[pick % len(record)]
        edits = [{k: v for k, v in record.items() if k != field}]
        if key not in record:
            edits.append(dict(record, **{key: value}))
        if (type(value), value) != (type(record[field]), record[field]):
            edits.append(dict(record, **{field: value}))
        for edited in edits:
            assert record_digest(edited) != digest
            assert record_digest(edited, encode_record(edited)) != digest

    def test_digest_sensitive_to_content(self):
        base = dict(record_id="r", domain="x", subject="s", actor="a",
                    operation="o", timestamp=1)
        changed = dict(base, operation="p")
        assert record_digest(base) != record_digest(changed)
