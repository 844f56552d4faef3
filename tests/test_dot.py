"""DOT export."""

from repro.graphs.examples import figure3_graph
from repro.sdf.dot import to_dot
from repro.sdf.graph import SDFGraph


class TestDot:
    def test_basic_structure(self, simple_ring):
        dot = to_dot(simple_ring)
        assert dot.startswith('digraph "ring"')
        assert '"X" -> "Y"' in dot
        assert dot.rstrip().endswith("}")

    def test_execution_times_in_labels(self, simple_ring):
        dot = to_dot(simple_ring)
        assert "X\\n2" in dot

    def test_token_dots(self, simple_ring):
        assert "•" in to_dot(simple_ring)

    def test_many_tokens_abbreviated(self):
        g = SDFGraph()
        g.add_actor("a")
        g.add_edge("a", "a", tokens=50)
        assert "50•" in to_dot(g)

    def test_rates_only_when_multirate(self, simple_ring):
        assert "1/1" not in to_dot(simple_ring)
        dot = to_dot(figure3_graph())
        assert "2/1" in dot

    def test_quotes_escaped(self):
        g = SDFGraph('has"quote')
        g.add_actor("a")
        dot = to_dot(g)
        assert 'digraph "has\\"quote"' in dot
