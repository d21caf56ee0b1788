"""Parser fuzzing: any input gives a valid document or a NetlistFormatError.

Inputs are well-formed .hgr and IBM .net/.netD files, written with LF, CRLF
or CR line endings and stray whitespace, then mangled: lines replaced,
dropped, repeated or inserted, single fields changed (off by one, zero,
negative, the wrong marker), and bytes spliced in, which are often not
UTF-8. Nets range from empty to thousands of pins. Declared counts stay at
most 10,001, because parse_hgr allocates one name per declared cell, so a
header of a few bytes can ask for gigabytes.

The profile is derandomized, so every run draws the same examples.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmpart.netlist_io import NetlistDocument, NetlistFormatError, parse_hgr, parse_ibm_net

settings.register_profile("parser-fuzz", derandomize=True, max_examples=100, deadline=None, database=None)
FUZZ = settings.get_profile("parser-fuzz")

EOLS = ("\n", "\r\n", "\r")
MAX_COUNT = 10_000
BIG_NET = 3_000


def check_document(doc: NetlistDocument) -> None:
    """Everything a caller of a parser relies on."""
    n = doc.cell_count
    assert len(set(doc.cell_names)) == n
    for net in doc.nets:
        assert len(set(net)) == len(net)
        assert all(0 <= c < n for c in net)
    h = doc.to_hypergraph()
    assert h.cell_count == n and h.net_count == len(doc.nets)
    assert doc.declared_pin_count == h.pin_count + doc.duplicate_pins


def parses_or_rejects(parse, data) -> None:
    try:
        doc = parse(data)
    except NetlistFormatError:
        return
    check_document(doc)


@st.composite
def nets_of(draw, cells, empty=True):
    """Pin lists over `cells`, repeats allowed: ordinary ones, sometimes one of
    thousands of pins, and, if `empty`, nets with no pins."""
    if not cells:
        return [[] for _ in range(draw(st.integers(0, 3)))] if empty else []
    nets = draw(st.lists(st.lists(st.sampled_from(cells), min_size=0 if empty else 1, max_size=8), max_size=12))
    if draw(st.booleans()):
        size = draw(st.integers(BIG_NET // 2, BIG_NET))
        start = draw(st.integers(0, len(cells) - 1))
        nets.insert(draw(st.integers(0, len(nets))), [cells[(start + i) % len(cells)] for i in range(size)])
    return nets


@st.composite
def hgr_lines(draw, empty=True):
    """Lines of an .hgr file whose header matches its body, with its nets
    (1-based ids) and cell count. An empty net is a blank line, which the
    format cannot hold, so `empty` makes the file malformed."""
    n = draw(st.one_of(st.integers(0, 40), st.integers(BIG_NET // 2, BIG_NET)))
    nets = draw(nets_of(list(range(1, n + 1)), empty))
    pad = st.sampled_from(("", " ", "\t", "  "))
    lines = [f"{len(nets)} {n}"]
    for net in nets:
        lines.append(draw(pad) + " ".join(map(str, net)) + draw(pad))
    return lines, nets, n


@st.composite
def ibm_lines(draw):
    """Dialect, lines and nets (cell names) of a .net or .netD file whose
    header matches its pin lines."""
    dialect = draw(st.sampled_from(("net", "netD")))
    pool = [f"a{i}" for i in range(draw(st.integers(1, 30)))] + ["p1", "p2"]
    nets = draw(nets_of(pool, empty=False))
    directions = draw(st.lists(st.sampled_from("IOB"), min_size=1, max_size=5))
    pins = []
    for net in nets:
        for k, name in enumerate(net):
            fields = [name, "l" if k else "s"]
            if dialect == "netD":
                fields.append(directions[len(pins) % len(directions)])
            pins.append(" ".join(fields))
    modules = len({name for net in nets for name in net})
    header = [draw(st.sampled_from(("0", "ibm01 netD"))), str(len(pins)), str(len(nets)), str(modules)]
    return dialect, header + [str(draw(st.integers(0, 5)))] + pins, nets


def deduplicated(nets, ids):
    return [tuple(dict.fromkeys(ids(c) for c in net)) for net in nets]


# no digits: a spliced digit could turn a declared count into a huge one
SPLICE_BYTES = st.lists(st.sampled_from([0, 9, 10, 11, 12, 13, 0x1C, 0x20, *range(0x80, 0x100)]), min_size=1, max_size=4)
tokens = st.one_of(
    st.integers(-3, MAX_COUNT).map(str),
    st.sampled_from(("s", "l", "I", "O", "B", "x", "1.5", "0x10", "+2", "1_0", "\u0663", "\ufeff", "\x0c")),
)
junk_line = st.lists(tokens, max_size=4).map(" ".join)


def near(field: str):
    """Values a field could wrongly hold: off by one, zero, negative or,
    for a marker, the other marker."""
    if field.lstrip("-").isdecimal():
        v = int(field)
        return st.sampled_from((str(v - 1), str(v + 1), "0", "-1"))
    return st.sampled_from(({"s": "l", "l": "s"}.get(field, "x"), "x", ""))


@st.composite
def field_edit(draw, lines):
    """`lines` with one field replaced, dropped or inserted, half the time
    among the first ten fields: the header and the first body line."""
    at = [(i, j) for i, line in enumerate(lines) for j in range(len(line.split()))]
    if not at:
        return lines
    i, j = at[draw(st.one_of(st.integers(0, min(len(at), 10) - 1), st.integers(0, len(at) - 1)))]
    fields = lines[i].split()
    op = draw(st.sampled_from(("replace", "drop", "insert")))
    if op == "drop":
        del fields[j]
    elif op == "insert":
        fields.insert(j, draw(tokens))
    else:
        fields[j] = draw(st.one_of(near(fields[j]), tokens))
    return lines[:i] + [" ".join(fields)] + lines[i + 1 :]


@st.composite
def mangled(draw, lines, recount):
    """`lines` joined by one line ending, after one to three edits and an
    optional splice of raw bytes. An edit replaces, drops, repeats or
    inserts a line, or is a field_edit. `recount(lines)` rewrites the
    header's line count to match the body; it is applied to half the
    cases, so that edited body lines get past the count check."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("replace", "delete", "repeat", "insert", "field")))
        i = draw(st.integers(0, len(lines)))
        if op == "field":
            lines = draw(field_edit(lines))
        elif op == "insert":
            lines.insert(i, draw(junk_line))
        elif i < len(lines):
            if op == "replace":
                lines[i] = draw(junk_line)
            elif op == "delete":
                del lines[i]
            else:
                lines.insert(i, lines[i])
    if draw(st.booleans()):
        lines = recount(lines)
    eol = draw(st.sampled_from(EOLS))
    data = (eol.join(lines) + draw(st.sampled_from(("", eol)))).encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bytes(draw(SPLICE_BYTES)) + data[at:]
    return data


def body_lines(lines, start):
    return sum(1 for ln in lines[start:] if ln.strip())


@FUZZ
@given(hgr_lines(empty=False), st.sampled_from(EOLS))
def test_well_formed_hgr_reads_back(case, eol):
    lines, nets, n = case
    doc = parse_hgr(eol.join(lines).encode("utf-8"))
    check_document(doc)
    assert doc.cell_count == n
    assert len(doc.nets) == len(nets)
    assert doc.declared_pin_count == sum(map(len, nets))
    assert doc.nets == deduplicated(nets, lambda c: c - 1)


@FUZZ
@given(ibm_lines(), st.sampled_from(EOLS))
def test_well_formed_ibm_reads_back(case, eol):
    dialect, lines, nets = case
    doc = parse_ibm_net(eol.join(lines).encode("utf-8"), dialect=dialect)
    check_document(doc)
    assert doc.declared_pin_count == int(lines[1])
    assert len(doc.nets) == int(lines[2])
    assert doc.cell_count == int(lines[3])
    assert doc.nets == deduplicated(nets, doc.cell_names.index)


@FUZZ
@given(st.data())
def test_mangled_hgr_parses_or_raises_format_error(data):
    lines, _nets, n = data.draw(hgr_lines())
    recount = lambda ls: [f"{body_lines(ls, 1)} {n}"] + ls[1:]
    parses_or_rejects(parse_hgr, data.draw(mangled(lines, recount)))


@FUZZ
@given(st.data())
def test_mangled_ibm_parses_or_raises_format_error(data):
    dialect, lines, _nets = data.draw(ibm_lines())
    recount = lambda ls: ls[:1] + [str(body_lines(ls, 5))] + ls[2:]
    parses_or_rejects(lambda b: parse_ibm_net(b, dialect=dialect), data.draw(mangled(lines, recount)))


@FUZZ
@given(hgr_lines(empty=False).flatmap(lambda case: field_edit(case[0])))
@example(["0 -1"])
@example(["1 2", "0 1"])
def test_one_bad_hgr_field_parses_or_raises_format_error(lines):
    parses_or_rejects(parse_hgr, "\n".join(lines).encode("utf-8"))


@FUZZ
@given(ibm_lines().flatmap(lambda case: st.tuples(st.just(case[0]), field_edit(case[1]))))
def test_one_bad_ibm_field_parses_or_raises_format_error(case):
    dialect, lines = case
    parses_or_rejects(lambda b: parse_ibm_net(b, dialect=dialect), "\n".join(lines).encode("utf-8"))


@FUZZ
@given(st.binary(max_size=64), st.sampled_from(("hgr", "net", "netD")))
def test_arbitrary_bytes_parse_or_raise_format_error(data, fmt):
    parse = parse_hgr if fmt == "hgr" else lambda b: parse_ibm_net(b, dialect=fmt)
    parses_or_rejects(parse, data)


@pytest.mark.parametrize("data", [b"\xff\xfe3 5\n", "3 5\r\n4 5\r\n3 5\r\n1 2 5\r\n".encode() + b"\x80"])
def test_non_utf8_bytes_are_a_format_error(data):
    with pytest.raises(NetlistFormatError, match="undecodable"):
        parse_hgr(data)
