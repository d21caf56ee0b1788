"""Netlist readers and partition writer.

Two input formats: the IBM circuit benchmark pin-list format (.net and
.netD dialects) and a small line-based hypergraph fixture format (.hgr).
Partitions are written as one "<name> <0|1>" line per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .hypergraph import Hypergraph, Partition, build


class NetlistFormatError(ValueError):
    """Malformed or internally inconsistent netlist input."""


@dataclass
class NetlistDocument:
    """Parsed netlist: deduplicated nets, cell names by id, the IBM pad
    offset, and how many repeated pins the nets dropped."""

    nets: list[tuple[int, ...]]
    cell_names: list[str]
    pad_offset: int = 0
    duplicate_pins: int = 0

    @property
    def cell_count(self) -> int:
        return len(self.cell_names)

    @property
    def declared_pin_count(self) -> int:
        """Pins as the input listed them, repeats included."""
        return sum(map(len, self.nets)) + self.duplicate_pins

    def to_hypergraph(self) -> Hypergraph:
        return build(self.nets, self.cell_count)


def _text(data: Union[bytes, str]) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise NetlistFormatError(f"undecodable input: {exc}") from None
    return data


def _int_token(tok: str, what: str) -> int:
    try:
        value = int(tok)
    except ValueError:
        raise NetlistFormatError(f"{what}: non-integer token {tok!r}") from None
    return value


def parse_ibm_net(data: Union[bytes, str], dialect: str = "net") -> NetlistDocument:
    """Parse the IBM pin-list netlist format.

    Layout: line 1 is ignored, lines 2-5 declare pin, net and module counts
    plus the pad offset, then one line per pin. An 's' marker opens a new
    net and 'l' continues the current one; the netD dialect appends an
    I/O/B direction token, validated and otherwise ignored. Header counts
    are checked against the raw pin lines, before per-net deduplication;
    the module count against the distinct cell names they carry.
    Cell ids are assigned in order of first appearance.
    """
    if dialect not in ("net", "netD"):
        raise ValueError(f"unknown dialect {dialect!r}")
    lines = [ln for ln in _text(data).splitlines() if ln.strip()]
    if len(lines) < 5:
        raise NetlistFormatError("missing five-line header")
    header = []
    for idx in range(1, 5):
        toks = lines[idx].split()
        if len(toks) != 1:
            raise NetlistFormatError(f"header line {idx + 1}: expected a single integer")
        value = _int_token(toks[0], f"header line {idx + 1}")
        if value < 0:
            raise NetlistFormatError(f"header line {idx + 1}: negative count")
        header.append(value)
    pin_count, net_count, module_count, pad_offset = header

    want = 3 if dialect == "netD" else 2
    pin_lines = lines[5:]
    if len(pin_lines) != pin_count:
        raise NetlistFormatError(
            f"header declares {pin_count} pins but {len(pin_lines)} pin lines follow"
        )
    names: list[str] = []
    ids: dict[str, int] = {}
    nets: list[tuple[int, ...]] = []
    # the net being read: its distinct pins in order; closed into a tuple
    # when the next 's' line opens a net, so no pin list is held twice
    current: dict[int, None] = {}
    duplicates = 0
    for k, raw in enumerate(pin_lines):
        toks = raw.split()
        if len(toks) != want:
            raise NetlistFormatError(f"pin line {k + 1}: expected {want} fields, got {len(toks)}")
        name, marker = toks[0], toks[1]
        if marker not in ("s", "l"):
            raise NetlistFormatError(f"pin line {k + 1}: marker must be 's' or 'l', got {marker!r}")
        if want == 3 and toks[2] not in ("I", "O", "B"):
            raise NetlistFormatError(
                f"pin line {k + 1}: direction must be I, O or B, got {toks[2]!r}"
            )
        cid = ids.get(name)
        if cid is None:
            cid = len(names)
            ids[name] = cid
            names.append(name)
        if marker == "s":
            if current:
                nets.append(tuple(current))
            current = {cid: None}
        else:
            if not current:
                raise NetlistFormatError("first pin line must carry the 's' marker")
            if cid in current:
                duplicates += 1
            else:
                current[cid] = None
    if current:
        nets.append(tuple(current))
    if len(nets) != net_count:
        raise NetlistFormatError(
            f"header declares {net_count} nets but {len(nets)} 's' lines follow"
        )
    if len(names) != module_count:
        raise NetlistFormatError(
            f"header declares {module_count} modules but the pin lines name {len(names)} cells"
        )
    return NetlistDocument(nets, names, pad_offset, duplicates)


def parse_hgr(data: Union[bytes, str]) -> NetlistDocument:
    """Parse the fixture format: header "<net_count> <cell_count>", then one
    line of 1-based cell ids per net. Names are the 1-based decimal ids."""
    lines = [ln for ln in _text(data).splitlines() if ln.strip()]
    if not lines:
        raise NetlistFormatError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise NetlistFormatError('header must be "<net_count> <cell_count>"')
    net_count = _int_token(head[0], "header")
    cell_count = _int_token(head[1], "header")
    if net_count < 0 or cell_count < 0:
        raise NetlistFormatError("header counts must be nonnegative")
    body = lines[1:]
    if len(body) != net_count:
        raise NetlistFormatError(
            f"header declares {net_count} nets but {len(body)} net lines follow"
        )
    nets: list[tuple[int, ...]] = []
    duplicates = 0
    for k, raw in enumerate(body):
        pins: list[int] = []
        seen: set[int] = set()
        for tok in raw.split():
            try:
                v = int(tok)
            except ValueError:
                # the label is built only here: this loop runs once per pin
                raise NetlistFormatError(f"net line {k + 1}: non-integer token {tok!r}") from None
            if not 1 <= v <= cell_count:
                raise NetlistFormatError(
                    f"net line {k + 1}: cell id {v} out of range 1..{cell_count}"
                )
            if v - 1 in seen:
                duplicates += 1
            else:
                seen.add(v - 1)
                pins.append(v - 1)
        nets.append(tuple(pins))
    return NetlistDocument(nets, [str(i + 1) for i in range(cell_count)], duplicate_pins=duplicates)


def write_partition(doc: NetlistDocument, p: Partition, out) -> None:
    """Write one "<name> <0|1>" line per cell in id order to a byte sink.

    Output bytes are a pure function of the document and side vector.
    """
    if len(p.side) != doc.cell_count:
        raise ValueError("partition size does not match document")
    out.write(
        "".join(f"{name} {p.side[i]}\n" for i, name in enumerate(doc.cell_names)).encode("utf-8")
    )


def read_partition(doc: NetlistDocument, data: Union[bytes, str]) -> list[int]:
    """Read a file produced by write_partition back into a side vector."""
    ids = {name: i for i, name in enumerate(doc.cell_names)}
    side: list = [None] * doc.cell_count
    count = 0
    for k, raw in enumerate(ln for ln in _text(data).splitlines() if ln.strip()):
        toks = raw.split()
        if len(toks) != 2 or toks[1] not in ("0", "1"):
            raise NetlistFormatError(f"partition line {k + 1}: expected '<name> <0|1>'")
        cid = ids.get(toks[0])
        if cid is None:
            raise NetlistFormatError(f"partition line {k + 1}: unknown cell {toks[0]!r}")
        if side[cid] is not None:
            raise NetlistFormatError(f"partition line {k + 1}: duplicate assignment {toks[0]!r}")
        side[cid] = int(toks[1])
        count += 1
    if count != doc.cell_count:
        raise NetlistFormatError("assignment missing for some cells")
    return side
