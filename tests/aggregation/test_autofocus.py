import pytest
from hypothesis import given, settings, strategies as st

from repro.aggregation.autofocus import MultiAutoFocus
from repro.aggregation.hierarchy import PortNode, PrefixNode
from repro.errors import AggregationError
from repro.nfv.packet import ip_from_str


def port_items(pairs):
    return [((port,), weight) for port, weight in pairs]


class PortOnly(MultiAutoFocus):
    pass


def make_port_autofocus(threshold_fraction=0.1):
    return MultiAutoFocus(
        to_leaf_nodes=lambda item: (PortNode.leaf(item[0]),),
        threshold_fraction=threshold_fraction,
    )


class TestMultiAutoFocus:
    def test_empty(self):
        assert make_port_autofocus().run([]) == []

    def test_single_hot_leaf(self):
        clusters = make_port_autofocus().run(port_items([(80, 90.0), (81, 1.0)]))
        tops = [str(c.nodes[0]) for c in clusters]
        assert tops[0] == "80"

    def test_diffuse_weight_reported_at_range(self):
        items = port_items([(2_000 + i, 5.0) for i in range(40)])
        clusters = make_port_autofocus(threshold_fraction=0.2).run(items)
        assert [str(c.nodes[0]) for c in clusters] == ["1024-65535"]

    def test_residuals_not_double_counted(self):
        items = port_items([(80, 50.0), (443, 50.0)])
        clusters = make_port_autofocus(threshold_fraction=0.3).run(items)
        names = [str(c.nodes[0]) for c in clusters]
        assert "80" in names and "443" in names
        # The 0-1023 range is fully explained by its two children.
        assert "0-1023" not in names

    def test_residual_at_least_threshold(self):
        items = port_items([(p, float(p % 7 + 1)) for p in range(1_000, 1_200)])
        autofocus = make_port_autofocus(threshold_fraction=0.05)
        total = sum(w for _, w in items)
        for cluster in autofocus.run(items):
            assert cluster.residual >= total * 0.05 - 1e-9

    def test_absolute_threshold_override(self):
        items = port_items([(80, 10.0), (81, 10.0)])
        clusters = make_port_autofocus().run(items, threshold=15.0)
        # Neither leaf passes 15; the well-known band (20) does.
        assert [str(c.nodes[0]) for c in clusters] == ["0-1023"]

    def test_bad_threshold(self):
        with pytest.raises(AggregationError):
            make_port_autofocus().run(port_items([(1, 1.0)]), threshold=0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 65_535), st.floats(0.1, 100.0)),
            min_size=1,
            max_size=60,
        )
    )
    def test_property_weights_and_coverage(self, pairs):
        items = port_items(pairs)
        total = sum(w for _, w in items)
        clusters = make_port_autofocus(threshold_fraction=0.05).run(items)
        for cluster in clusters:
            assert 0 < cluster.residual <= cluster.weight <= total + 1e-6
        # Residuals are disjoint by construction: they sum to <= total.
        assert sum(c.residual for c in clusters) <= total + 1e-6


class TestTwoDimensional:
    def test_cross_product_cluster_found(self):
        def to_nodes(item):
            ip, port = item
            return (PrefixNode.leaf(ip), PortNode.leaf(port))

        autofocus = MultiAutoFocus(to_leaf_nodes=to_nodes, threshold_fraction=0.3)
        ip_a = ip_from_str("10.0.0.1")
        items = [((ip_a, 80), 60.0)] + [
            ((ip_from_str(f"99.0.{i}.1"), 1_024 + i), 1.0) for i in range(40)
        ]
        clusters = autofocus.run(items)
        assert str(clusters[0]) == "10.0.0.1/32 80"
