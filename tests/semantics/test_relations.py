"""Unit tests for the relational view of executions."""

from repro.difftest.mutate import _EmptyFrView
from repro.litmus.events import DepKind, FenceKind, fence, read, write
from repro.litmus.execution import Execution
from repro.litmus.memo import derived
from repro.litmus.test import Dep, LitmusTest
from repro.models.power import power_hb, power_ppo, power_prop
from repro.semantics.relations import RelationView, StaticRelations


def view_of(test, rf=(), co=(), sc=()):
    return RelationView(Execution(test, tuple(rf), tuple(co), tuple(sc)))


def mp():
    return LitmusTest(((write(0, 1), write(1, 1)), (read(1), read(0))))


class TestStaticRelations:
    def test_po_within_threads_only(self):
        v = view_of(mp(), rf=((2, None), (3, None)), co=((0,), (1,)))
        assert set(v.po.pairs()) == {(0, 1), (2, 3)}

    def test_po_imm(self):
        t = LitmusTest(((write(0, 1), write(0, 2), write(0, 3)),))
        v = view_of(t, co=((0, 1, 2),))
        assert set(v.po_imm.pairs()) == {(0, 1), (1, 2)}

    def test_loc_same_address(self):
        v = view_of(mp(), rf=((2, None), (3, None)), co=((0,), (1,)))
        assert (0, 3) in v.loc
        assert (3, 0) in v.loc
        assert (0, 2) not in v.loc

    def test_po_loc(self):
        t = LitmusTest(((write(0, 1), read(0), read(1)),))
        v = view_of(t, rf=((1, 0), (2, None)), co=((0,),))
        assert set(v.po_loc.pairs()) == {(0, 1)}

    def test_int_ext_partition(self):
        v = view_of(mp(), rf=((2, None), (3, None)), co=((0,), (1,)))
        assert (0, 1) in v.int_
        assert (1, 0) in v.int_
        assert (0, 2) in v.ext
        assert (0, 0) not in v.int_
        assert (0, 0) not in v.ext

    def test_dep_selection(self):
        t = LitmusTest(
            ((read(0), write(1, 1), read(2)),),
            deps=frozenset(
                {Dep(0, 1, DepKind.DATA), Dep(0, 2, DepKind.CTRLISYNC)}
            ),
        )
        v = view_of(t, rf=((0, None), (2, None)), co=((), (1,), ()))
        assert set(v.data_dep.pairs()) == {(0, 1)}
        assert set(v.ctrlisync_dep.pairs()) == {(0, 2)}
        assert (0, 2) in v.ctrl_dep  # ctrlisync is a ctrl dep
        assert len(v.all_deps) == 2

    def test_static_shared_between_views(self):
        t = mp()
        a = RelationView(Execution(t, ((2, None), (3, None)), ((0,), (1,))))
        b = RelationView(Execution(t, ((2, 1), (3, 0)), ((0,), (1,))))
        assert a.static is b.static
        assert StaticRelations.of(t) is a.static

    def test_fence_rel(self):
        t = LitmusTest(
            ((write(0, 1), fence(FenceKind.SYNC), read(1)),)
        )
        v = view_of(t, rf=((2, None),), co=((0,), ()))
        assert set(v.fence_rel(FenceKind.SYNC).pairs()) == {(0, 2)}
        assert v.fence_rel(FenceKind.LWSYNC).is_empty()

    def test_class_products(self):
        v = view_of(mp(), rf=((2, None), (3, None)), co=((0,), (1,)))
        assert (0, 2) in v.W_R
        assert (2, 0) in v.R_W
        assert (0, 1) in v.W_W
        assert (2, 3) in v.R_R


class TestDynamicRelations:
    def test_rf_direction(self):
        v = view_of(mp(), rf=((2, 1), (3, 0)), co=((0,), (1,)))
        assert (1, 2) in v.rf  # write -> read
        assert (2, 1) not in v.rf

    def test_rfi_rfe_split(self):
        t = LitmusTest(((write(0, 1), read(0)), (read(0),)))
        v = view_of(t, rf=((1, 0), (2, 0)), co=((0,),))
        assert (0, 1) in v.rfi
        assert (0, 2) in v.rfe

    def test_co_transitive(self):
        t = LitmusTest(((write(0, 1), write(0, 2), write(0, 3)),))
        v = view_of(t, co=((0, 1, 2),))
        assert (0, 2) in v.co
        assert v.co.is_transitive()

    def test_fr_from_source(self):
        t = LitmusTest(((read(0),), (write(0, 1),), (write(0, 2),)))
        v = view_of(t, rf=((0, 1),), co=((1, 2),))
        assert set(v.fr.pairs()) == {(0, 2)}

    def test_fr_initial_read(self):
        t = LitmusTest(((read(0),), (write(0, 1),), (write(0, 2),)))
        v = view_of(t, rf=((0, None),), co=((1, 2),))
        assert set(v.fr.pairs()) == {(0, 1), (0, 2)}

    def test_com_union(self):
        v = view_of(mp(), rf=((2, 1), (3, None)), co=((0,), (1,)))
        assert (1, 2) in v.com  # rf
        assert (3, 0) in v.com  # fr

    def test_sc_rel(self):
        t = LitmusTest(
            (
                (write(0, 1), fence(FenceKind.FENCE_SC)),
                (write(1, 1), fence(FenceKind.FENCE_SC)),
            )
        )
        v = view_of(t, co=((0,), (2,)), sc=(3, 1))
        assert set(v.sc.pairs()) == {(3, 1)}

    def test_coe_coi(self):
        t = LitmusTest(((write(0, 1), write(0, 2)), (write(0, 3),)))
        v = view_of(t, co=((0, 1, 2),))
        assert (0, 1) in v.coi
        assert (1, 2) in v.coe


class TestDerivedMemo:
    def execution(self):
        return Execution(mp(), ((2, 1), (3, None)), ((0,), (1,)))

    def test_view_relation_computed_once_per_view(self):
        v = RelationView(self.execution())
        assert v.fr is v.fr
        assert v.__dict__["fr"] is v.fr
        assert RelationView(self.execution()).fr is not v.fr

    def test_derived_function_computed_once_per_view(self):
        calls = []

        @derived
        def counted(view):
            calls.append(view)
            return view.rf | view.co

        a = RelationView(self.execution())
        b = RelationView(self.execution())
        assert counted(a) is counted(a)
        assert calls == [a]
        assert counted(b) == counted(a)
        assert calls == [a, b]

    def test_power_relations_memoized_per_view(self):
        v = RelationView(self.execution())
        assert power_ppo(v) is power_ppo(v)
        assert power_hb(v) is power_hb(v)
        assert power_prop(v) is power_prop(v)

    def test_each_view_has_its_own_value(self):
        @derived
        def fr_and_rf(view):
            return view.fr | view.rf

        execution = self.execution()
        for order in ("base first", "mutant first"):
            base = RelationView(execution)
            mutant = _EmptyFrView(execution)
            pair = (base, mutant) if order == "base first" else (mutant, base)
            for view in pair:
                fr_and_rf(view)
            assert fr_and_rf(mutant) == mutant.rf, order
            assert fr_and_rf(base) == base.fr | base.rf, order
            assert fr_and_rf(base) != base.rf, order
