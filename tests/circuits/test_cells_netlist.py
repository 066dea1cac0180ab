"""Tests for the cell library and the netlist data model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.cells import CellError, cell_type
from repro.circuits.netlist import Netlist, NetlistError


class TestCellLibrary:
    def test_library_contents(self):
        for expected in ("AND", "OR", "NOT", "MUX", "INC", "ADD", "EQ", "CONST"):
            assert cell_type(expected).name == expected

    def test_unknown_cell(self):
        with pytest.raises(CellError):
            cell_type("FLUX_CAPACITOR")

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=50, deadline=None)
    def test_arithmetic_cells_modulo(self, a, b):
        w = 8
        assert cell_type("ADD").evaluate(w, [a, b], {}) == (a + b) % 256
        assert cell_type("SUB").evaluate(w, [a, b], {}) == (a - b) % 256
        assert cell_type("MUL").evaluate(w, [a, b], {}) == (a * b) % 256
        assert cell_type("INC").evaluate(w, [a], {}) == (a + 1) % 256

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=50, deadline=None)
    def test_bitwise_and_comparator_cells(self, a, b):
        w = 8
        assert cell_type("AND").evaluate(w, [a, b], {}) == (a & b)
        assert cell_type("XOR").evaluate(w, [a, b], {}) == (a ^ b)
        assert cell_type("NOT").evaluate(w, [a], {}) == (~a) & 255
        assert cell_type("EQ").evaluate(1, [a, b], {}) == int(a == b)
        assert cell_type("GE").evaluate(1, [a, b], {}) == int(a >= b)

    def test_mux_and_const(self):
        assert cell_type("MUX").evaluate(8, [1, 10, 20], {}) == 10
        assert cell_type("MUX").evaluate(8, [0, 10, 20], {}) == 20
        assert cell_type("CONST").evaluate(8, [], {"value": 300, "width": 8}) == 300 % 256

    def test_reductions(self):
        assert cell_type("REDOR").evaluate(1, [0], {}) == 0
        assert cell_type("REDOR").evaluate(1, [6], {}) == 1
        assert cell_type("REDXOR").evaluate(1, [0b1011], {}) == 1
        assert cell_type("REDAND").evaluate(1, [0b1111], {"_in_widths": (4,)}) == 1
        assert cell_type("REDAND").evaluate(1, [0b0111], {"_in_widths": (4,)}) == 0

    def test_width_rules(self):
        assert cell_type("ADD").output_width([8, 8], {}) == 8
        assert cell_type("EQ").output_width([8, 8], {}) == 1
        assert cell_type("MUX").output_width([1, 8, 8], {}) == 8
        with pytest.raises(CellError):
            cell_type("ADD").output_width([8, 4], {})


class TestNetlistModel:
    def _simple(self):
        nl = Netlist("simple")
        nl.add_input("a", 4)
        nl.add_input("b", 4)
        nl.add_cell("add", "ADD", ["a", "b"], "sum")
        nl.add_register("R", "sum", "q", init=3, width=4)
        nl.add_cell("buf", "BUF", ["q"], "y")
        nl.add_output("y", 4)
        return nl

    def test_construction_and_stats(self):
        nl = self._simple()
        nl.validate()
        stats = nl.stats()
        assert stats["cells"] == 2
        assert stats["registers"] == 1
        assert nl.num_flipflops() == 4
        assert nl.num_gates() == 2

    def test_duplicate_names_rejected(self):
        nl = self._simple()
        with pytest.raises(NetlistError):
            nl.add_cell("add", "ADD", ["a", "b"], "other")
        with pytest.raises(NetlistError):
            nl.add_register("add", "sum", "zzz", width=4)

    def test_width_conflicts_rejected(self):
        nl = self._simple()
        with pytest.raises(NetlistError):
            nl.add_net("sum", 8)

    def test_unknown_input_net_rejected(self):
        nl = Netlist()
        nl.add_input("a", 2)
        with pytest.raises(NetlistError):
            nl.add_cell("g", "NOT", ["missing"], "out")

    def test_arity_check(self):
        nl = Netlist()
        nl.add_input("a", 2)
        with pytest.raises(NetlistError):
            nl.add_cell("g", "AND", ["a"], "out")

    def test_init_must_fit_width(self):
        nl = Netlist()
        nl.add_input("a", 2)
        with pytest.raises(NetlistError):
            nl.add_register("R", "a", "q", init=9, width=2)

    def test_drivers_and_readers(self):
        nl = self._simple()
        drivers = nl.drivers()
        assert drivers["sum"].name == "add"
        assert "a" not in drivers
        assert drivers["q"].name == "R"
        readers = nl.readers_of("q")
        assert [getattr(r, "name", None) for r in readers] == ["buf"]

    def test_multiple_drivers_detected(self):
        nl = self._simple()
        nl.add_cell("dup", "BUF", ["a"], "y2")
        nl.cells["dup2"] = nl.cells["dup"]
        # two cell entries driving the same net
        from dataclasses import replace

        nl.cells["dup2"] = replace(nl.cells["dup"], name="dup2")
        with pytest.raises(NetlistError):
            nl.drivers()

    def test_topological_order(self):
        nl = self._simple()
        order = [c.name for c in nl.topological_cells()]
        assert order.index("add") < len(order)
        assert set(order) == {"add", "buf"}

    def test_combinational_cycle_detected(self):
        nl = Netlist()
        nl.add_input("a", 1)
        nl.add_net("x", 1)
        nl.add_net("z", 1)
        nl.add_cell("g1", "AND", ["a", "z"], "x")
        nl.add_cell("g2", "BUF", ["x"], "z")
        with pytest.raises(NetlistError):
            nl.topological_cells()

    def test_copy_is_independent(self):
        nl = self._simple()
        other = nl.copy("copy")
        other.add_input("c", 4)
        assert "c" not in nl.nets
        assert other.name == "copy"

    def test_fresh_names(self):
        nl = self._simple()
        assert nl.fresh_net_name("sum") != "sum"
        assert nl.fresh_instance_name("add") != "add"
        assert nl.fresh_net_name("brand_new") == "brand_new"

    def test_mux_select_width_checked(self):
        nl = Netlist()
        nl.add_input("sel", 2)
        nl.add_input("a", 4)
        nl.add_input("b", 4)
        nl.add_cell("m", "MUX", ["sel", "a", "b"], "y")
        with pytest.raises(NetlistError):
            nl.validate()
