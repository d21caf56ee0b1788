import io

import pytest

from fmpart.hypergraph import Partition
from fmpart.netlist_io import (
    NetlistDocument,
    NetlistFormatError,
    parse_hgr,
    parse_ibm_net,
    read_partition,
    write_partition,
)

IBM_NET = """0
4
2
3
0
a0 s
a1 l
a2 s
a0 l
"""

IBM_NETD = """0
4
2
3
0
a0 s O
a1 l I
a2 s O
a0 l I
"""

FIVE_CELL_HGR = "3 5\n4 5\n3 5\n1 2 5\n"


class TestParseIbm:
    def test_basic_net(self):
        doc = parse_ibm_net(IBM_NET, dialect="net")
        assert doc.declared_pin_count == 4
        assert len(doc.nets) == 2
        assert doc.cell_count == 3
        assert doc.pad_offset == 0
        assert doc.cell_names == ["a0", "a1", "a2"]
        assert doc.nets == [(0, 1), (2, 0)]
        assert doc.duplicate_pins == 0

    def test_netd_directions_ignored(self):
        plain = parse_ibm_net(IBM_NET, dialect="net")
        directed = parse_ibm_net(IBM_NETD, dialect="netD")
        assert directed.nets == plain.nets
        assert directed.cell_names == plain.cell_names

    def test_bytes_accepted(self):
        assert parse_ibm_net(IBM_NET.encode(), dialect="net").nets == [(0, 1), (2, 0)]

    def test_crlf_and_extra_whitespace(self):
        messy = IBM_NET.replace("\n", "\r\n").replace("a1 l", "a1\t  l")
        assert parse_ibm_net(messy, dialect="net").nets == [(0, 1), (2, 0)]

    def test_net_count_mismatch(self):
        bad = IBM_NET.replace("\n2\n", "\n3\n", 1)
        with pytest.raises(NetlistFormatError, match="nets"):
            parse_ibm_net(bad, dialect="net")

    def test_module_count_mismatch(self):
        # a declared module on no net would otherwise vanish from the document
        text = "0\n4\n2\n5\n0\na0 s\na1 l\na2 s\na3 l\n"
        with pytest.raises(NetlistFormatError, match=r"5 modules.* 4 cells"):
            parse_ibm_net(text, dialect="net")

    def test_pin_count_mismatch(self):
        bad = IBM_NET.replace("\n4\n", "\n5\n", 1)
        with pytest.raises(NetlistFormatError, match="pin"):
            parse_ibm_net(bad, dialect="net")

    def test_malformed_pin_line(self):
        with pytest.raises(NetlistFormatError, match="fields"):
            parse_ibm_net(IBM_NET.replace("a1 l", "a1"), dialect="net")

    def test_unknown_marker(self):
        with pytest.raises(NetlistFormatError, match="marker"):
            parse_ibm_net(IBM_NET.replace("a1 l", "a1 x"), dialect="net")

    def test_unknown_direction_in_netd(self):
        with pytest.raises(NetlistFormatError, match="direction"):
            parse_ibm_net(IBM_NETD.replace("a1 l I", "a1 l Q"), dialect="netD")

    def test_first_line_must_open_a_net(self):
        with pytest.raises(NetlistFormatError, match="'s'"):
            parse_ibm_net(IBM_NET.replace("a0 s\n", "a0 l\n", 1), dialect="net")

    def test_duplicate_pins_deduplicated_with_counter(self):
        text = "0\n4\n2\n2\n0\na0 s\na1 l\na1 l\na0 s\n"
        doc = parse_ibm_net(text, dialect="net")
        # header check uses the raw line count; the net itself is deduplicated
        assert doc.declared_pin_count == 4
        assert doc.nets == [(0, 1), (0,)]
        assert doc.duplicate_pins == 1
        doc.to_hypergraph()  # dedup leaves nets buildable

    def test_pads_are_ordinary_cells(self):
        text = "0\n3\n1\n3\n1\na0 s\np1 l\na1 l\n"
        doc = parse_ibm_net(text, dialect="net")
        assert doc.cell_names == ["a0", "p1", "a1"]
        assert doc.pad_offset == 1

    def test_deterministic(self):
        a = parse_ibm_net(IBM_NET, dialect="net")
        b = parse_ibm_net(IBM_NET, dialect="net")
        assert a == b


class TestParseHgr:
    def test_five_cell_fixture(self):
        doc = parse_hgr(FIVE_CELL_HGR)
        assert doc.cell_count == 5
        assert doc.nets == [(3, 4), (2, 4), (0, 1, 4)]
        assert doc.cell_names == ["1", "2", "3", "4", "5"]
        h = doc.to_hypergraph()
        assert h.max_cell_degree == 3

    def test_isolated_cells_only(self):
        doc = parse_hgr("0 3\n")
        assert doc.cell_count == 3
        assert doc.nets == []

    def test_id_out_of_range(self):
        with pytest.raises(NetlistFormatError, match="out of range"):
            parse_hgr("1 2\n1 3\n")

    def test_non_integer_token(self):
        with pytest.raises(NetlistFormatError, match="non-integer"):
            parse_hgr("1 3\n1 x\n")

    def test_net_count_mismatch(self):
        with pytest.raises(NetlistFormatError, match="nets"):
            parse_hgr("2 3\n1 2\n")

    def test_empty_input(self):
        with pytest.raises(NetlistFormatError):
            parse_hgr("")


class TestPartitionIo:
    def _doc(self):
        return NetlistDocument(
            nets=[(3, 4), (2, 4), (0, 1, 4)],
            cell_names=["c1", "c2", "c3", "c4", "c5"],
        )

    def test_write_fixture_bytes(self):
        doc = self._doc()
        p = Partition.from_sides(doc.to_hypergraph(), [1, 1, 0, 0, 0])
        out = io.BytesIO()
        write_partition(doc, p, out)
        assert out.getvalue() == b"c1 1\nc2 1\nc3 0\nc4 0\nc5 0\n"

    def test_empty_document_writes_nothing(self):
        doc = NetlistDocument([], [])
        p = Partition.from_sides(doc.to_hypergraph(), [])
        out = io.BytesIO()
        write_partition(doc, p, out)
        assert out.getvalue() == b""

    def test_round_trip(self):
        doc = self._doc()
        p = Partition.from_sides(doc.to_hypergraph(), [1, 0, 1, 0, 1])
        out = io.BytesIO()
        write_partition(doc, p, out)
        assert read_partition(doc, out.getvalue()) == [1, 0, 1, 0, 1]

    def test_write_is_deterministic(self):
        doc = self._doc()
        p = Partition.from_sides(doc.to_hypergraph(), [0, 1, 0, 1, 0])
        a, b = io.BytesIO(), io.BytesIO()
        write_partition(doc, p, a)
        write_partition(doc, p, b)
        assert a.getvalue() == b.getvalue()

    def test_size_mismatch_rejected(self):
        doc = self._doc()
        other = Partition.from_sides(parse_hgr("0 2\n").to_hypergraph(), [0, 1])
        with pytest.raises(ValueError):
            write_partition(doc, other, io.BytesIO())

    def test_read_rejects_unknown_and_missing_cells(self):
        doc = self._doc()
        with pytest.raises(NetlistFormatError, match="unknown"):
            read_partition(doc, "zz 0\n")
        with pytest.raises(NetlistFormatError, match="missing"):
            read_partition(doc, "c1 0\n")
        with pytest.raises(NetlistFormatError, match="expected"):
            read_partition(doc, "c1 2\n")

    def test_hgr_document_round_trip(self):
        doc = parse_hgr(FIVE_CELL_HGR)
        p = Partition.from_sides(doc.to_hypergraph(), [1, 1, 0, 0, 0])
        out = io.BytesIO()
        write_partition(doc, p, out)
        assert out.getvalue() == b"1 1\n2 1\n3 0\n4 0\n5 0\n"
        assert read_partition(doc, out.getvalue()) == [1, 1, 0, 0, 0]
