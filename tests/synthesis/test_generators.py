"""Datapath-generator correctness: netlists versus integer arithmetic.

Property-based: random operand pairs across several widths for every
arithmetic block the experiments synthesise.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.synthesis.generators import (
    carry_select_adder,
    complex_alu_slice,
    divider_iteration,
    ripple_carry_adder,
    simple_alu,
    wallace_multiplier,
)

W = 8
MASK = (1 << W) - 1


def bits(val, w):
    return {f"{{}}{i}": (val >> i) & 1 for i in range(w)}


def vec(prefix, val, w):
    return {f"{prefix}{i}": bool((val >> i) & 1) for i in range(w)}


def from_bits(outs):
    return sum(int(b) << i for i, b in enumerate(outs))


@pytest.fixture(scope="module")
def netlists():
    return {
        "rca": ripple_carry_adder(W),
        "csa": carry_select_adder(W),
        "wmul": wallace_multiplier(W),
        # One guard bit: the shifted partial remainder is below 2 * b.
        "div": divider_iteration(W + 1),
        "alu": simple_alu(W),
        "divstep": divider_iteration(W),
    }


@given(a=st.integers(0, MASK), b=st.integers(0, MASK), cin=st.booleans())
@settings(max_examples=60, deadline=None)
def test_adders_add(netlists, a, b, cin):
    for name in ("rca", "csa"):
        nl = netlists[name]
        out = nl.simulate(vec("a", a, W) | vec("b", b, W) | {"cin": cin})
        got = from_bits([out[n] for n in nl.primary_outputs])
        assert got == a + b + int(cin), name


@given(a=st.integers(0, MASK), b=st.integers(0, MASK))
@settings(max_examples=60, deadline=None)
def test_multipliers_multiply(netlists, a, b):
    nl = netlists["wmul"]
    out = nl.simulate(vec("a", a, W) | vec("b", b, W))
    got = from_bits([out[n] for n in nl.primary_outputs])
    assert got == a * b


@given(a=st.integers(0, MASK), b=st.integers(1, MASK))
@settings(max_examples=60, deadline=None)
def test_divider_divides(netlists, a, b):
    """W cycles of the stallable divider's slice, dividend MSB first."""
    nl = netlists["div"]
    rem = quotient = 0
    for i in reversed(range(W)):
        rem = (rem << 1) | ((a >> i) & 1)
        out = nl.simulate(vec("r", rem, W + 1) | vec("b", b, W + 1))
        outs = [out[n] for n in nl.primary_outputs]
        quotient = (quotient << 1) | int(outs[0])
        rem = from_bits(outs[1:])
    assert quotient == a // b
    assert rem == a % b


@given(r=st.integers(0, MASK), b=st.integers(1, MASK))
@settings(max_examples=60, deadline=None)
def test_divider_iteration_step(netlists, r, b):
    nl = netlists["divstep"]
    out = nl.simulate(vec("r", r, W) | vec("b", b, W))
    outs = [out[n] for n in nl.primary_outputs]
    q, rem = outs[0], from_bits(outs[1:])
    if r >= b:
        assert q and rem == r - b
    else:
        assert not q and rem == r


@given(a=st.integers(0, MASK), b=st.integers(0, MASK),
       op=st.sampled_from(["add", "sub", "and", "xor"]))
@settings(max_examples=80, deadline=None)
def test_alu_operations(netlists, a, b, op):
    nl = netlists["alu"]
    opcode = {"add": (0, 0), "sub": (0, 1), "and": (1, 0), "xor": (1, 1)}
    op1, op0 = opcode[op]
    out = nl.simulate(vec("a", a, W) | vec("b", b, W)
                      | {"op0": bool(op0), "op1": bool(op1)})
    outs = [out[n] for n in nl.primary_outputs]
    result = from_bits(outs[:W])
    carry = int(outs[W])
    if op == "add":
        assert result | (carry << W) == a + b
    elif op == "sub":
        assert result == (a - b) & MASK
        assert carry == (1 if a >= b else 0)
    elif op == "and":
        assert result == (a & b)
    else:
        assert result == (a ^ b)


class TestCompositeBlocks:
    def test_complex_slice_structure(self):
        nl = complex_alu_slice(8)
        assert len(nl.primary_outputs) == 16   # result + high product
        assert len(nl) > 500

    def test_complex_slice_multiplies(self):
        nl = complex_alu_slice(8)
        vals = (vec("a", 11, 8) | vec("b", 13, 8) | vec("c", 0, 8)
                | vec("d", 0, 8) | {"sel_div": False, "sel_unit": False})
        out = nl.simulate(vals)
        outs = [out[n] for n in nl.primary_outputs]
        assert from_bits(outs) == 11 * 13

    def test_complex_slice_divider_path(self):
        nl = complex_alu_slice(8)
        vals = (vec("a", 200, 8) | vec("b", 60, 8) | vec("c", 0, 8)
                | vec("d", 0, 8) | {"sel_div": True, "sel_unit": False})
        out = nl.simulate(vals)
        outs = [out[n] for n in nl.primary_outputs]
        assert from_bits(outs[:8]) == 200 - 60  # restoring step remainder

    @pytest.mark.parametrize("build,width,digest", [
        (complex_alu_slice, 8, "e16d8c28b9e93ee7b652720fbce0ac5c"),
        (complex_alu_slice, 16, "c2265753e5df189c73d65db375e16647"),
    ])
    def test_composite_fingerprint_pinned(self, build, width, digest):
        """Sub-blocks built once and inlined twice give the same netlist
        (gates, order, names) as building each copy separately."""
        assert build(width).fingerprint() == digest


# Every gate, name and order of the carry-select adder and of the ALU
# built on it: the adder, its carry-select addition and its copy-on-extend
# widening share one select-block loop, which must not move these.
CSA_DIGESTS = {
    (4, 2): "00064fb2a500edd48e08a24f70e21cd0",
    (4, 4): "ac38398c3ab2217041ecd1a076e5557b",
    (6, 2): "9c5005c97334a6e767fd721a3bdb6049",
    (6, 4): "56ed91079217d3abdf893c1914eb7b86",
    (8, 2): "474046c8c4fa7462e42ee20213ebb5ae",
    (8, 4): "c487479e5d6dd70deeb913e6e5ed6000",
    (16, 2): "f9d4e988c7a25b3443d128c54537e397",
    (16, 4): "82b18e931aeb5f2d7617c98b7608fe11",
    (32, 2): "a2eab789fca20f18f02725f68000208c",
    (32, 4): "0f3e186e343b7d39d05d91270dd5427c",
}


@pytest.mark.parametrize("width,block", sorted(CSA_DIGESTS))
def test_carry_select_fingerprint_pinned(width, block):
    assert carry_select_adder(width, block).fingerprint() == \
        CSA_DIGESTS[width, block]


@pytest.mark.parametrize("width,digest", [
    (8, "005311096d47c2199d4815f04c08daa4"),
    (16, "11d02ed554bec2ff28551c948e94a270"),
])
def test_simple_alu_fingerprint_pinned(width, digest):
    assert simple_alu(width).fingerprint() == digest
