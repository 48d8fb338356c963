"""Unit tests for the instruction vocabulary."""

import pytest

from repro.litmus.events import (
    EventKind,
    FenceKind,
    Instruction,
    Order,
    Scope,
    fence,
    read,
    write,
)


class TestOrder:
    def test_acquire_classification(self):
        assert Order.ACQ.is_acquire
        assert Order.ACQ_REL.is_acquire
        assert Order.SC.is_acquire
        assert Order.CON.is_acquire
        assert not Order.RLX.is_acquire
        assert not Order.REL.is_acquire

    def test_release_classification(self):
        assert Order.REL.is_release
        assert Order.ACQ_REL.is_release
        assert Order.SC.is_release
        assert not Order.ACQ.is_release
        assert not Order.PLAIN.is_release

    def test_atomicity(self):
        assert not Order.PLAIN.is_atomic
        assert Order.RLX.is_atomic
        assert Order.SC.is_atomic

    def test_strength_ordering(self):
        assert Order.PLAIN < Order.RLX < Order.ACQ < Order.SC


class TestInstructionConstruction:
    def test_read(self):
        r = read(0)
        assert r.is_read and not r.is_write and not r.is_fence
        assert r.address == 0
        assert r.order is Order.PLAIN

    def test_write_with_value(self):
        w = write(1, 7, Order.REL)
        assert w.is_write
        assert w.value == 7
        assert w.order is Order.REL

    def test_fence(self):
        f = fence(FenceKind.SYNC)
        assert f.is_fence
        assert f.address is None

    def test_fence_requires_kind(self):
        with pytest.raises(ValueError):
            Instruction(EventKind.FENCE)

    def test_fence_rejects_address(self):
        with pytest.raises(ValueError):
            Instruction(EventKind.FENCE, address=0, fence=FenceKind.SYNC)

    def test_access_requires_address(self):
        with pytest.raises(ValueError):
            Instruction(EventKind.READ)

    def test_access_rejects_fence_kind(self):
        with pytest.raises(ValueError):
            Instruction(EventKind.WRITE, address=0, fence=FenceKind.SYNC)

    def test_read_rejects_value(self):
        with pytest.raises(ValueError):
            Instruction(EventKind.READ, address=0, value=1)


@pytest.mark.parametrize(
    "kind, is_read, is_write",
    [
        (EventKind.READ, True, False),
        (EventKind.WRITE, False, True),
        (EventKind.FENCE, False, False),
        (EventKind.PTWALK, True, False),
        (EventKind.REMAP, False, True),
        (EventKind.DIRTY, False, True),
    ],
)
def test_read_and_write_kinds(kind, is_read, is_write):
    if kind is EventKind.FENCE:
        inst = Instruction(kind, fence=FenceKind.SYNC)
    else:
        inst = Instruction(kind, address=0)
    assert inst.is_read is is_read
    assert inst.is_write is is_write
    assert inst.is_fence is (kind is EventKind.FENCE)


class TestInstructionTransforms:
    def test_with_order(self):
        r = read(0).with_order(Order.ACQ)
        assert r.order is Order.ACQ
        assert r.address == 0

    def test_with_order_preserves_scope(self):
        r = read(0, scope=Scope.DEVICE).with_order(Order.ACQ)
        assert r.scope is Scope.DEVICE

    def test_with_fence(self):
        f = fence(FenceKind.SYNC).with_fence(FenceKind.LWSYNC)
        assert f.fence is FenceKind.LWSYNC

    def test_with_fence_on_access_raises(self):
        with pytest.raises(ValueError):
            read(0).with_fence(FenceKind.SYNC)

    def test_with_scope(self):
        w = write(0).with_scope(Scope.WORKGROUP)
        assert w.scope is Scope.WORKGROUP
        assert w.with_scope(None).scope is None


class TestMnemonics:
    def test_plain_read(self):
        assert read(0).mnemonic() == "Ld [a0]"

    def test_ordered_write(self):
        assert write(0, 1, Order.REL).mnemonic() == "St.rel [a0], 1"

    def test_named_addresses(self):
        assert read(5).mnemonic({5: "x"}) == "Ld [x]"

    def test_fence_mnemonic(self):
        assert fence(FenceKind.LWSYNC).mnemonic() == "Fence.lwsync"

    def test_scoped_mnemonic(self):
        text = read(0, Order.ACQ, Scope.WORKGROUP).mnemonic()
        assert "workgroup" in text

    def test_unvalued_write(self):
        assert "?" in write(0).mnemonic()
