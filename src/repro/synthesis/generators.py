"""Gate-level generators for the paper's datapath blocks.

The pipeline-depth experiments synthesise AnyCore's execution stage: "a
forward bypass check and two arithmetic logic units (ALUs), one for simple
ALU operations and one for complex multiplication and division.  The
complex ALU consists of two [...] stallable, pipelined multipliers and
dividers" (Section 5.1).  These functions build the two ALUs as generic
gate netlists — :func:`simple_alu` and :func:`complex_alu_slice`, the
complex ALU's per-cycle logic from Wallace multipliers and divider
iteration slices — functionally verified by simulation against integer
arithmetic in the test suite; :func:`repro.synthesis.mapping.technology_map`
lowers them onto the 6-cell library.

All arithmetic is unsigned with little-endian bit order (index 0 = LSB).
"""

from __future__ import annotations

from repro.errors import SynthesisError
from repro.runtime import telemetry
from repro.synthesis.netlist import Netlist

Bits = list[str]


# ---------------------------------------------------------------------------
# Bit-level helpers
# ---------------------------------------------------------------------------

def full_adder(nl: Netlist, a: str, b: str, cin: str) -> tuple[str, str]:
    """(sum, carry-out) of a + b + cin."""
    axb = nl.add_gate("xor2", (a, b))
    s = nl.add_gate("xor2", (axb, cin))
    t1 = nl.add_gate("and2", (a, b))
    t2 = nl.add_gate("and2", (axb, cin))
    cout = nl.add_gate("or2", (t1, t2))
    return s, cout


def half_adder(nl: Netlist, a: str, b: str) -> tuple[str, str]:
    """(sum, carry-out) of a + b."""
    s = nl.add_gate("xor2", (a, b))
    c = nl.add_gate("and2", (a, b))
    return s, c


def full_adder_cin1(nl: Netlist, a: str, b: str) -> tuple[str, str]:
    """(sum, carry-out) of a + b + 1, constant-folded."""
    s = nl.add_gate("xnor2", (a, b))
    c = nl.add_gate("or2", (a, b))
    return s, c


def _require_same_width(*vectors: Bits) -> int:
    widths = {len(v) for v in vectors}
    if len(widths) != 1:
        raise SynthesisError(f"width mismatch: {sorted(widths)}")
    width = widths.pop()
    if width < 1:
        raise SynthesisError("vectors must have at least one bit")
    return width


def add_vectors(nl: Netlist, a: Bits, b: Bits, cin: str | None = None
                ) -> tuple[Bits, str]:
    """Ripple-carry sum of two equal-width vectors; returns (sum, cout)."""
    width = _require_same_width(a, b)
    out: Bits = []
    if cin is None:
        s, carry = half_adder(nl, a[0], b[0])
    else:
        s, carry = full_adder(nl, a[0], b[0], cin)
    out.append(s)
    for i in range(1, width):
        s, carry = full_adder(nl, a[i], b[i], carry)
        out.append(s)
    return out, carry


def subtract_vectors(nl: Netlist, a: Bits, b: Bits) -> tuple[Bits, str]:
    """a - b via a + ~b + 1; returns (difference, not-borrow).

    The carry-out is 1 when a >= b (no borrow).
    """
    width = _require_same_width(a, b)
    nb = [nl.add_gate("inv", (bit,)) for bit in b]
    s, carry = full_adder_cin1(nl, a[0], nb[0])
    out = [s]
    for i in range(1, width):
        s, carry = full_adder(nl, a[i], nb[i], carry)
        out.append(s)
    return out, carry


def mux_vectors(nl: Netlist, sel: str, a: Bits, b: Bits) -> Bits:
    """Bitwise mux: *b* when sel else *a*."""
    _require_same_width(a, b)
    return [nl.add_gate("mux2", (sel, x, y)) for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# Adders
# ---------------------------------------------------------------------------

def ripple_carry_adder(width: int = 16, name: str = "rca") -> Netlist:
    """Plain ripple-carry adder: a + b + cin -> sum, cout."""
    nl = Netlist(f"{name}{width}")
    a = nl.add_inputs("a", width)
    b = nl.add_inputs("b", width)
    cin = nl.add_input("cin")
    s, cout = add_vectors(nl, a, b, cin)
    for i, net in enumerate(s):
        nl.add_output(net)
    nl.add_output(cout)
    return nl


def carry_select_adder(width: int = 16, block: int = 4,
                       name: str = "csa") -> Netlist:
    """Carry-select adder: ripple blocks computed for both carries, muxed.

    Shorter critical path than ripple at ~2x the area — gives the
    technology mapper and pipeliner a second adder architecture to choose
    from, like DesignWare would.
    """
    if block < 2:
        raise SynthesisError("carry-select block must be >= 2 bits")
    nl = Netlist(f"{name}{width}")
    a = nl.add_inputs("a", width)
    b = nl.add_inputs("b", width)
    cin = nl.add_input("cin")

    out, carry = _carry_select_add(nl, a, b, cin, block)
    for net in out:
        nl.add_output(net)
    nl.add_output(carry)
    # Construction state for extend_carry_select_adder: widening a CSA
    # only appends select blocks, so the builder records where it
    # stopped.
    nl._csa_state = {"width": width, "block": block, "prefix": name,
                     "a": a, "b": b, "out": out, "carry": carry}
    return nl


def extend_carry_select_adder(base: Netlist, width: int,
                              name: str | None = None) -> Netlist:
    """Widen a :func:`carry_select_adder` by copy-on-extend.

    Returns a new netlist sharing the base's gates (via
    :meth:`Netlist.extend`) with additional carry-select blocks covering
    bits ``[base_width, width)``.  Gate-for-gate identical to a fresh
    ``carry_select_adder(width, block)`` — auto-generated net and gate
    names depend only on gate count, which the extension continues —
    so downstream mapping and STA reuse the shared prefix.  Only the
    primary-input *insertion order* differs (new ``a``/``b`` bits are
    appended after the base's inputs), which no analysis depends on.

    The base width must be a multiple of its block size (otherwise the
    final partial block of the base would need rebuilding, breaking
    prefix sharing) and ``width`` must strictly exceed it.
    """
    state = getattr(base, "_csa_state", None)
    if state is None:
        raise SynthesisError(
            f"netlist {base.name!r} was not built by carry_select_adder")
    w0 = state["width"]
    block = state["block"]
    if width <= w0:
        raise SynthesisError(
            f"extension width {width} must exceed base width {w0}")
    if w0 % block:
        raise SynthesisError(
            f"base width {w0} is not a multiple of block {block}; "
            f"its last block would need rebuilding")

    nl = base.extend(name=f"{name or state['prefix']}{width}")
    a = list(state["a"]) + [nl.add_input(f"a{i}") for i in range(w0, width)]
    b = list(state["b"]) + [nl.add_input(f"b{i}") for i in range(w0, width)]

    out: Bits = list(state["out"])
    carry = _select_blocks(nl, a, b, w0, state["carry"], block, out)
    nl.set_outputs([*out, carry])
    nl._csa_state = {"width": width, "block": block,
                     "prefix": state["prefix"], "a": a, "b": b,
                     "out": out, "carry": carry}
    return nl


def _add_vectors_cin1(nl: Netlist, a: Bits, b: Bits) -> tuple[Bits, str]:
    s, carry = full_adder_cin1(nl, a[0], b[0])
    out = [s]
    for i in range(1, len(a)):
        s, carry = full_adder(nl, a[i], b[i], carry)
        out.append(s)
    return out, carry


def _select_blocks(nl: Netlist, a: Bits, b: Bits, lo: int, carry: str,
                   block: int, out: Bits) -> str:
    """Carry-select blocks over bits ``[lo, len(a))``, appended to *out*.

    Each block is computed for both carries and muxed by the incoming
    one; returns the carry out of the last block.
    """
    width = len(a)
    while lo < width:
        hi = min(lo + block, width)
        a_blk, b_blk = a[lo:hi], b[lo:hi]
        s0, c0 = add_vectors(nl, a_blk, b_blk, cin=None)
        s1, c1 = _add_vectors_cin1(nl, a_blk, b_blk)
        out.extend(mux_vectors(nl, carry, s0, s1))
        carry = nl.add_gate("mux2", (carry, c0, c1))
        lo = hi
    return carry


def _carry_select_add(nl: Netlist, a: Bits, b: Bits, cin: str,
                      block: int = 4) -> tuple[Bits, str]:
    """Carry-select addition of two vectors with a carry-in net: a
    ripple first block, then select blocks."""
    width = _require_same_width(a, b)
    hi = min(block, width)
    out, carry = add_vectors(nl, a[:hi], b[:hi], cin)
    return out, _select_blocks(nl, a, b, hi, carry, block, out)


# ---------------------------------------------------------------------------
# ALUs
# ---------------------------------------------------------------------------

def simple_alu(width: int = 16, name: str = "alu",
               select_block: int = 4) -> Netlist:
    """Add/sub/and/xor ALU with a 2-bit op select.

    op = 00 add, 01 sub, 10 and, 11 xor.  Outputs: width result bits plus
    a carry/borrow flag.  The adder is carry-select (real execution pipes
    use fast adders; a ripple ALU would skew the pipeline-region balance).
    """
    nl = Netlist(f"{name}{width}")
    a = nl.add_inputs("a", width)
    b = nl.add_inputs("b", width)
    op0 = nl.add_input("op0")
    op1 = nl.add_input("op1")

    # Shared adder: b conditionally inverted by op0 (sub), cin = op0.
    bx = [nl.add_gate("xor2", (bit, op0)) for bit in b]
    s, carry = _carry_select_add(nl, a, bx, cin=op0, block=select_block)

    and_bits = [nl.add_gate("and2", (a[i], b[i])) for i in range(width)]
    xor_bits = [nl.add_gate("xor2", (a[i], b[i])) for i in range(width)]

    logic_bits = mux_vectors(nl, op0, and_bits, xor_bits)
    result = mux_vectors(nl, op1, s, logic_bits)

    for net in result:
        nl.add_output(net)
    nl.add_output(carry)
    return nl


def _inline(nl: Netlist, sub: Netlist, bindings: dict[str, list[str]],
            prefix: str) -> list[str]:
    """Copy *sub* into *nl*, binding its input vectors; returns its outputs.

    ``bindings`` maps input prefixes to net lists in the parent; every
    sub-input must be bound.
    """
    bound = {f"{key}{i}": parent_net
             for key, nets in bindings.items()
             for i, parent_net in enumerate(nets)}
    net_map: dict[str, str] = {}
    for net in sub.primary_inputs:
        if net not in bound:
            raise SynthesisError(
                f"unbound input {net!r} when inlining {sub.name!r}")
        net_map[net] = bound[net]

    for gate in sub.topological_order():
        new_inputs = tuple(net_map[n] for n in gate.inputs)
        out = nl.add_gate(gate.cell, new_inputs,
                          output=f"{prefix}.{gate.output}",
                          name=f"{prefix}.{gate.name}")
        net_map[gate.output] = out
    return [net_map[n] for n in sub.primary_outputs]


# ---------------------------------------------------------------------------
# Wallace-tree multiplier (the DesignWare-class, retiming-friendly one)
# ---------------------------------------------------------------------------

MaybeNet = str | bool
MaybeCarry = str | bool


def _add_bit(nl: Netlist, x: str, y: str | None, cin: MaybeCarry
             ) -> tuple[str, MaybeCarry]:
    """One adder bit with constant folding on the carry / missing addend."""
    if y is None:
        if cin is False:
            return x, False
        if cin is True:
            s = nl.add_gate("inv", (x,))
            return s, x
        return half_adder(nl, x, cin)
    if cin is False:
        return half_adder(nl, x, y)
    if cin is True:
        return full_adder_cin1(nl, x, y)
    return full_adder(nl, x, y, cin)


def _mux_carry(nl: Netlist, sel: str, c0: MaybeCarry, c1: MaybeCarry
               ) -> MaybeCarry:
    if c0 == c1:
        return c0
    if c0 is False and c1 is True:
        return sel
    if c0 is True and c1 is False:
        return nl.add_gate("inv", (sel,))
    if isinstance(c0, bool):
        # c0 constant, c1 a net.
        if c0 is False:
            return nl.add_gate("and2", (sel, c1))
        return nl.add_gate("or2", (nl.add_gate("inv", (sel,)), c1))
    if isinstance(c1, bool):
        if c1 is False:
            return nl.add_gate("and2", (nl.add_gate("inv", (sel,)), c0))
        return nl.add_gate("or2", (sel, c0))
    return nl.add_gate("mux2", (sel, c0, c1))


def wallace_multiplier(width: int = 16, block: int = 4,
                       name: str = "wmul") -> Netlist:
    """Carry-save-tree multiplier with a carry-select final adder.

    Logarithmic reduction depth (~log1.5 of the operand width) plus a
    sqrt-ish final adder gives a ~25-35 FO4 critical path at 16 bits —
    the DesignWare-class multiplier the paper's "pipelined multipliers"
    retime.  Used by the ALU-depth experiments.
    """
    nl = Netlist(f"{name}{width}")
    a = nl.add_inputs("a", width)
    b = nl.add_inputs("b", width)

    columns: list[list[str]] = [[] for _ in range(2 * width)]
    for i in range(width):
        for j in range(width):
            columns[i + j].append(nl.add_gate("and2", (a[i], b[j])))

    # Carry-save reduction to height <= 2.  A carry out of the MSB column
    # is structurally generated but can never assert for an unsigned WxW
    # product (it would exceed 2^(2W)); it is dropped.
    while any(len(col) > 2 for col in columns):
        nxt: list[list[str]] = [[] for _ in range(2 * width + 1)]
        for c, col in enumerate(columns):
            i = 0
            while len(col) - i >= 3:
                s, carry = full_adder(nl, col[i], col[i + 1], col[i + 2])
                nxt[c].append(s)
                nxt[c + 1].append(carry)
                i += 3
            if len(col) - i == 2:
                s, carry = half_adder(nl, col[i], col[i + 1])
                nxt[c].append(s)
                nxt[c + 1].append(carry)
                i += 2
            nxt[c].extend(col[i:])
        columns = nxt[:2 * width]

    # Pad any empty top column with a constant-0 net so every final-adder
    # bit has a first operand.
    const0: str | None = None
    for col in columns:
        if not col:
            if const0 is None:
                na = nl.add_gate("inv", (a[0],))
                const0 = nl.add_gate("and2", (a[0], na))
            col.append(const0)

    # Final two-row addition with carry-select blocks.
    product: list[str] = []
    carry: MaybeCarry = False
    lo = 0
    while lo < 2 * width:
        hi = min(lo + block, 2 * width)
        xs = [columns[k][0] for k in range(lo, hi)]
        ys = [columns[k][1] if len(columns[k]) >= 2 else None
              for k in range(lo, hi)]
        if isinstance(carry, bool) and lo == 0:
            # First block: ripple directly with the constant carry.
            c: MaybeCarry = carry
            for x, y in zip(xs, ys):
                s, c = _add_bit(nl, x, y, c)
                product.append(s)
            carry = c
        else:
            # Speculative block for carry-in 0 and 1, then select.
            s0: list[str] = []
            s1: list[str] = []
            c0: MaybeCarry = False
            c1: MaybeCarry = True
            for x, y in zip(xs, ys):
                b0, c0 = _add_bit(nl, x, y, c0)
                b1, c1 = _add_bit(nl, x, y, c1)
                s0.append(b0)
                s1.append(b1)
            if isinstance(carry, bool):
                chosen = s1 if carry else s0
                product.extend(chosen)
                carry = c1 if carry else c0
            else:
                for b0, b1 in zip(s0, s1):
                    if b0 == b1:
                        product.append(b0)
                    else:
                        product.append(nl.add_gate("mux2", (carry, b0, b1)))
                carry = _mux_carry(nl, carry, c0, c1)
        lo = hi

    if len(product) != 2 * width:
        raise SynthesisError(
            f"wallace multiplier produced {len(product)} bits")
    for net in product:
        nl.add_output(net)
    return nl


def divider_iteration(width: int = 16, name: str = "div_step") -> Netlist:
    """One iteration of a stallable restoring divider.

    The paper's complex ALU uses DesignWare *stallable* dividers, which
    iterate one subtract-and-restore step per cycle rather than unrolling
    the whole array; this netlist is that per-cycle slice (shift-in,
    ripple subtract, quotient bit, restore mux).
    """
    nl = Netlist(f"{name}{width}")
    rem = nl.add_inputs("r", width)       # current partial remainder
    b = nl.add_inputs("b", width)         # divisor
    diff, no_borrow = subtract_vectors(nl, rem, b)
    restored = mux_vectors(nl, no_borrow, rem, diff)
    nl.add_output(no_borrow)              # quotient bit
    for net in restored:
        nl.add_output(net)
    return nl


def complex_alu_slice(width: int = 16, name: str = "complex_slice"
                      ) -> Netlist:
    """Per-cycle combinational logic of the complex ALU (Figure 12 block).

    Two Wallace multipliers and the iteration slices of two stallable
    dividers, output-muxed — the single-cycle critical path the ALU-depth
    experiment repeatedly cuts.
    """
    nl = Netlist(name)
    a = nl.add_inputs("a", width)
    b = nl.add_inputs("b", width)
    c = nl.add_inputs("c", width)
    d = nl.add_inputs("d", width)
    sel_div = nl.add_input("sel_div")
    sel_unit = nl.add_input("sel_unit")

    # Each unit is built once and inlined twice: _inline only reads the
    # sub-netlist, so both copies get the same gates in the same order.
    mul = wallace_multiplier(width)
    div = divider_iteration(width)
    mul0 = _inline(nl, mul, {"a": a, "b": b}, "mul0")
    mul1 = _inline(nl, mul, {"a": c, "b": d}, "mul1")
    div0 = _inline(nl, div, {"r": a, "b": b}, "div0")
    div1 = _inline(nl, div, {"r": c, "b": d}, "div1")

    mul_out = mux_vectors(nl, sel_unit, mul0[:width], mul1[:width])
    div_out = mux_vectors(nl, sel_unit, div0[1:width + 1], div1[1:width + 1])
    result = mux_vectors(nl, sel_div, mul_out, div_out)
    for net in result:
        nl.add_output(net)
    # High product half (multiplies only) — keeps the upper Wallace tree
    # live, as a real design's full-width result port would.
    for net in mux_vectors(nl, sel_unit, mul0[width:], mul1[width:]):
        nl.add_output(net)
    return nl


@telemetry.timed("solver.netlist")
def complex_alu_slice_counts(width: int = 16) -> dict[str, int]:
    """Generic cell multiset of ``complex_alu_slice(width)``, composed.

    The slice is two copies of one multiplier and one divider slice plus
    four ``width``-bit output muxes, so its counts follow from its parts
    without inlining them.  Area needs only these counts; the built
    slice is the oracle (tests and the ``complex-counts-vs-built``
    validation check tie the two).
    """
    counts: dict[str, int] = {}
    for part in (wallace_multiplier(width), divider_iteration(width)):
        for cell, n in part.cell_counts().items():
            counts[cell] = counts.get(cell, 0) + 2 * n
    counts["mux2"] = counts.get("mux2", 0) + 4 * width
    return counts
