"""The Power memory model of Alglave et al. 2014 ("herding cats").

This is the formulation the paper uses for its Power case study (its
Fig. 15): four axioms over derived relations, with preserved program
order (``ppo``) computed as the least fixed point of the four
mutually-recursive ``ii/ic/ci/cc`` relations.

The fence relation follows the ``cat`` file: ``sync`` orders everything
across it, ``lwsync`` orders everything except write-to-read pairs.
``ctrl+isync`` is modelled as its own dependency kind
(:attr:`~repro.litmus.events.DepKind.CTRLISYNC`), which is how the
published litmus tests (e.g. ``MP+sync+ctrlisync``) name it anyway.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.litmus.events import DepKind, FenceKind
from repro.litmus.memo import derived
from repro.models.base import Axiom, MemoryModel, Vocabulary
from repro.semantics.rel import Rel
from repro.semantics.relations import RelationView

__all__ = ["Power", "power_ppo", "power_fences", "power_prop", "power_hb"]


class Power(MemoryModel):
    """Power (Alglave et al. 2014; Power.org 2013)."""

    name = "power"
    full_name = "IBM Power (herding-cats formulation)"

    #: Fence strengths this model understands; ARMv7 overrides this.
    _fence_kinds: tuple[FenceKind, ...] = (FenceKind.SYNC, FenceKind.LWSYNC)
    _fence_demotions: dict[FenceKind, tuple[FenceKind, ...]] = {
        FenceKind.SYNC: (FenceKind.LWSYNC,),
    }

    @property
    def vocabulary(self) -> Vocabulary:
        return Vocabulary(
            fence_kinds=self._fence_kinds,
            dep_kinds=(
                DepKind.ADDR,
                DepKind.DATA,
                DepKind.CTRL,
                DepKind.CTRLISYNC,
            ),
            allows_rmw=True,
            fence_demotions=self._fence_demotions,
        )

    def axioms(self) -> Mapping[str, Axiom]:
        # The paper's Fig. 15 lists the four herding-cats axioms; the
        # published cat file additionally states RMW atomicity, which the
        # paper's Table 2 relies on (DRMW applies to Power), so we include
        # it as a fifth named axiom.
        return {
            "sc_per_loc": _sc_per_loc,
            "no_thin_air": _no_thin_air,
            "observation": _observation,
            "propagation": _propagation,
            "rmw_atomicity": _rmw_atomicity,
        }


# -- derived relations (herding cats, Section 6) --------------------------------
#
# Several axioms share these (``hb`` feeds ``no_thin_air``, ``observation``
# and, through ``prop``, ``propagation``), so each is computed once per
# execution and memoized on its view.


@derived
def power_ppo(v: RelationView) -> Rel:
    """Preserved program order: the ii/ic/ci/cc least fixed point."""
    dp = v.addr_dep | v.data_dep
    rdw = v.po_loc & v.fre.join(v.rfe)
    detour = v.po_loc & v.coe.join(v.rfe)

    ii0 = dp | rdw | v.rfi
    ci0 = v.ctrlisync_dep | detour
    ic0 = Rel.empty(v.n)
    cc0 = dp | v.po_loc | v.ctrl_dep | v.addr_dep.join(v.po)

    ii, ic, ci, cc = ii0, ic0, ci0, cc0
    while True:
        nii = ii0 | ci | ic.join(ci) | ii.join(ii)
        nic = ic0 | ii | cc | ic.join(cc) | ii.join(ic)
        nci = ci0 | ci.join(ii) | cc.join(ci)
        ncc = cc0 | ci | ci.join(ic) | cc.join(cc)
        if (nii, nic, nci, ncc) == (ii, ic, ci, cc):
            break
        ii, ic, ci, cc = nii, nic, nci, ncc

    return (v.R_R & ii) | (v.R_W & ic)


@derived
def power_fences(v: RelationView) -> Rel:
    """``sync`` orders everything; ``lwsync`` everything but W -> R."""
    sync = v.fence_rel(FenceKind.SYNC)
    lwsync = v.fence_rel(FenceKind.LWSYNC) - v.W_R
    return sync | lwsync


@derived
def power_hb(v: RelationView) -> Rel:
    return power_ppo(v) | power_fences(v) | v.rfe


@derived
def power_prop(v: RelationView) -> Rel:
    ffence = v.fence_rel(FenceKind.SYNC)
    fences = power_fences(v)
    hb_star = power_hb(v).star()
    prop_base = (fences | v.rfe.join(fences)).join(hb_star)
    chain = (
        v.com.star()
        .join(prop_base.star())
        .join(ffence)
        .join(hb_star)
    )
    return (prop_base & v.W_W) | chain


# -- axioms (paper Fig. 15) ----------------------------------------------------------


def _sc_per_loc(v: RelationView) -> bool:
    return (v.rf | v.co | v.fr | v.po_loc).is_acyclic()


def _no_thin_air(v: RelationView) -> bool:
    return power_hb(v).is_acyclic()


def _observation(v: RelationView) -> bool:
    rel = v.fre.join(power_prop(v)).join(power_hb(v).star())
    return rel.is_irreflexive()


def _propagation(v: RelationView) -> bool:
    return (v.co | power_prop(v)).is_acyclic()


def _rmw_atomicity(v: RelationView) -> bool:
    return (v.fre.join(v.coe) & v.rmw).is_empty()
