"""Synthetic µop stream generator.

Turns an :class:`~repro.workloads.profile.AppProfile` into an endless,
deterministic stream of :class:`Uop` records for one hardware thread.
Each thread gets a disjoint address space (the paper's bin-hopping
virtual-to-physical mapping assigns threads non-overlapping physical
pages, which disjoint bases model directly).

Dependences are expressed as backwards distances in the dynamic
instruction stream; the core resolves them against its recent-history
ring.  Pointer-chasing loads (``ptr_chase``) depend on the *previous
load*, which serializes their cache misses -- the key behaviour that
makes mcf latency-bound rather than bandwidth-bound.
"""

from __future__ import annotations

# Typing only: streams draw from an injected seed-derived RNG (see
# repro.common.rng.child_rng); no module-level randomness exists here.
import random  # repro: allow(DET001) typing only; RNGs are injected
from typing import Iterator

from repro.common.errors import ConfigError
from repro.common.types import OpClass
from repro.workloads.profile import AppProfile, Region

#: Maximum backwards dependence distance the core tracks.
MAX_DEP_DISTANCE = 64

#: Bytes of address space reserved per thread (16 GiB keeps regions of
#: different threads in different DRAM rows and cache tags).
THREAD_ADDRESS_STRIDE = 1 << 34

#: Gap between consecutive regions of one thread, in bytes.
_REGION_GAP = 1 << 24

_LINE = 64

#: Static branch sites synthesized per thread.
_BRANCH_SITES = 256

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH


class _BranchSite:
    """One static branch: either outcome-biased or loop-patterned.

    Biased sites draw Bernoulli outcomes (hard for any predictor when
    the bias is weak); loop sites repeat "taken k-1 times, then not
    taken", which a local-history predictor learns perfectly.  The
    mix is tuned so a hybrid predictor lands near the profile's
    ``mispredict_rate``.
    """

    __slots__ = ("pc", "kind", "p_taken", "period", "position")

    def __init__(self, pc: int, kind: str, p_taken: float, period: int):
        self.pc = pc
        self.kind = kind
        self.p_taken = p_taken
        self.period = period
        self.position = 0

    def next_outcome(self, rng: random.Random) -> bool:
        if self.kind == "loop":
            self.position = (self.position + 1) % self.period
            return self.position != 0
        return rng.random() < self.p_taken


def _make_branch_sites(
    profile: AppProfile, thread_id: int, rng: random.Random
) -> list["_BranchSite"]:
    """Synthesize the thread's static branches from the profile.

    70% of sites are Bernoulli with a bias chosen so that an
    always-predict-majority predictor mispredicts at about the
    profile's rate; 30% are loop-pattern sites a local predictor
    captures almost perfectly.
    """
    bernoulli_rate = min(0.5, profile.mispredict_rate / 0.7)
    base_pc = (thread_id + 1) << 20
    sites = []
    for i in range(_BRANCH_SITES):
        pc = base_pc + i * 4
        if i % 10 < 3:
            sites.append(_BranchSite(pc, "loop", 0.0, 4 + (i % 13)))
        else:
            sites.append(
                _BranchSite(pc, "bernoulli", 1.0 - bernoulli_rate, 0)
            )
    rng.shuffle(sites)
    return sites


class Uop:
    """One dynamic micro-operation.

    ``mispredict`` is the pre-drawn outcome used by the core's default
    stochastic branch model; ``pc``/``taken`` carry the static branch
    site and its actual direction for the optional hybrid predictor
    (:mod:`repro.cpu.branch`).

    A Uop is immutable once built, and that is load-bearing: the
    generator hands out one shared object for every equal compute µop
    (see ``_COMPUTE_UOPS``), across threads, streams and runs, and the
    core's stream memo (:mod:`repro.engine.fast`) replays those same
    objects in every repeat run.  Writing a field of a generated Uop
    would change other threads' and later runs' instructions.  The
    memo builds the loads, stores and branches it replays itself,
    storing all seven slots without calling ``__init__``.
    """

    __slots__ = ("opc", "addr", "dep1", "dep2", "mispredict", "pc", "taken")

    def __init__(
        self,
        opc: OpClass,
        addr: int = 0,
        dep1: int = 0,
        dep2: int = 0,
        mispredict: bool = False,
        pc: int = 0,
        taken: bool = False,
    ) -> None:
        self.opc = opc
        self.addr = addr
        self.dep1 = dep1
        self.dep2 = dep2
        self.mispredict = mispredict
        self.pc = pc
        self.taken = taken

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f" addr={self.addr:#x}" if self.opc.is_memory else ""
        return f"Uop({self.opc.name}{extra} dep1={self.dep1} dep2={self.dep2})"


#: Distinct values of one dependence distance (0 = no dependence).
_DEP_VALUES = MAX_DEP_DISTANCE + 1

#: One shared Uop per distinct compute µop, keyed by
#: ``(op class * 65 + dep1) * 65 + dep2`` (at most 4 x 65 x 65 entries),
#: filled lazily by :meth:`SyntheticStream.next_uop` for every stream in
#: the process.  A compute µop carries nothing but those three fields,
#: so equal ones need not be separate objects; loads, stores and
#: branches carry addresses and branch sites that rarely repeat, and
#: are built fresh.
_COMPUTE_UOPS: dict[int, Uop] = {}


class _RegionState:
    """Runtime state of one footprint region (scaled, with stream pointers)."""

    __slots__ = (
        "region",
        "base",
        "size",
        "pointers",
        "repeat_left",
        "current",
        "burst_left",
        "rand_line",
        "rand_repeat_left",
    )

    def __init__(self, region: Region, base: int, scale: int, rng: random.Random):
        self.region = region
        self.base = base
        self.size = max(region.size_lines // scale, 16)
        if region.kind == "stream":
            self.pointers = [rng.randrange(self.size) for _ in range(region.streams)]
            self.repeat_left = [0] * region.streams
            self.current = [0] * region.streams
        else:
            self.pointers = []
            self.repeat_left = []
            self.current = []
        # random-region walk state: a random jump, then `burst`
        # sequential lines with `repeats` accesses each.
        self.burst_left = 0
        self.rand_line = 0
        self.rand_repeat_left = 0

    def next_address(self, rng: random.Random) -> int:
        """Next byte address drawn from this region."""
        region = self.region
        if region.kind == "random":
            if self.rand_repeat_left > 0:
                self.rand_repeat_left -= 1
            elif self.burst_left > 0:
                self.burst_left -= 1
                self.rand_line = (self.rand_line + 1) % self.size
                self.rand_repeat_left = region.repeats - 1
            else:
                self.rand_line = rng.randrange(self.size)
                self.burst_left = region.burst - 1
                self.rand_repeat_left = region.repeats - 1
            return self.base + self.rand_line * _LINE
        idx = rng.randrange(len(self.pointers)) if len(self.pointers) > 1 else 0
        if self.repeat_left[idx] > 0:
            self.repeat_left[idx] -= 1
        else:
            self.pointers[idx] = (
                self.pointers[idx] + self.region.stride
            ) % self.size
            self.current[idx] = self.pointers[idx]
            self.repeat_left[idx] = self.region.repeats - 1
        return self.base + self.current[idx] * _LINE


class SyntheticStream:
    """Endless deterministic µop stream for one (application, thread).

    Parameters
    ----------
    profile:
        The application model.
    rng:
        Source of all randomness; pass a child RNG derived from the
        experiment seed for reproducibility.
    thread_id:
        Selects the thread's disjoint address-space base.
    scale:
        Footprint divisor, matched with the cache-size scale of
        :class:`~repro.cache.hierarchy.HierarchyParams`.
    """

    def __init__(
        self,
        profile: AppProfile,
        rng: random.Random,
        thread_id: int = 0,
        scale: int = 1,
    ) -> None:
        if scale < 1:
            raise ConfigError(f"scale must be >= 1, got {scale}")
        self.profile = profile
        self.thread_id = thread_id
        self.scale = scale
        self._rng = rng
        self._random = rng.random
        self._regions: list[_RegionState] = []
        base = (thread_id + 1) * THREAD_ADDRESS_STRIDE
        for index, region in enumerate(profile.regions):
            # Stagger region bases by a per-(thread, region) offset so
            # different threads' regions do not alias to the same cache
            # sets (bases and gaps are powers of two otherwise, which
            # would pile every thread onto the same set indices).
            skew = ((thread_id * 2654435761 + index * 40503) % 4096) * _LINE
            state = _RegionState(region, base + skew, scale, rng)
            self._regions.append(state)
            base += skew + state.size * _LINE + _REGION_GAP
        total = profile.total_region_weight
        self._cum_weights: list[float] = []
        acc = 0.0
        for region in profile.regions:
            acc += region.weight / total
            self._cum_weights.append(acc)
        self._cum_weights[-1] = 1.0  # guard against float drift
        self._since_last_load = MAX_DEP_DISTANCE
        self._dep_span = max(1, int(2 * profile.dep_mean))
        self._visit_region: _RegionState | None = None
        self._visit_left = 0
        self._visit_span = max(1, int(2 * profile.cluster))
        self._branch_sites = _make_branch_sites(profile, thread_id, rng)
        self.generated = 0

    # ------------------------------------------------------------------

    def footprint(self) -> list[tuple[int, int, Region]]:
        """The thread's memory layout: (base line address, lines, region).

        Used by :func:`repro.cache.prewarm.prewarm` to install
        steady-state cache contents before measurement, so short runs
        don't spend their whole budget on cold-start misses.
        """
        return [
            (state.base // _LINE, state.size, state.region)
            for state in self._regions
        ]

    def _pick_region(self, r: float) -> _RegionState:
        for i, cum in enumerate(self._cum_weights):
            if r <= cum:
                return self._regions[i]
        return self._regions[-1]

    def next_uop(self) -> Uop:
        """Generate the next dynamic instruction.

        The hot path of generation, so the region visit and every
        dependence distance are computed inline; the RNG draws, and
        their order, are exactly what ``tests/workloads/
        test_stream_golden.py`` pins.  A dependence distance is ``1 +
        int(random() * span)``, capped at :data:`MAX_DEP_DISTANCE`.
        """
        rng = self._rng
        random = self._random
        p = self.profile
        self.generated += 1
        since = self._since_last_load + 1
        self._since_last_load = since
        r = random()
        if r < p.mem_frac:
            is_store = random() < p.store_frac
            # Phased (clustered) region visits: a region is chosen with
            # probability proportional to its weight and then stays
            # current for a random number of accesses with mean
            # ``profile.cluster``, so misses to slow regions arrive in
            # clusters rather than uniformly.
            region = self._visit_region
            if self._visit_left <= 0 or region is None:
                region = self._visit_region = self._pick_region(random())
                self._visit_left = 1 + int(random() * self._visit_span)
            self._visit_left -= 1
            addr = region.next_address(rng)
            if not is_store:
                if (
                    p.ptr_chase
                    and since <= MAX_DEP_DISTANCE
                    and random() < p.ptr_chase
                ):
                    dep1 = since
                elif random() < p.dep_prob:
                    dep1 = 1 + int(random() * self._dep_span)
                    if dep1 > MAX_DEP_DISTANCE:
                        dep1 = MAX_DEP_DISTANCE
                else:
                    dep1 = 0
                self._since_last_load = 0
                return Uop(_LOAD, addr, dep1)
            dep1 = dep2 = 0
            if random() < p.dep_prob:
                dep1 = 1 + int(random() * self._dep_span)
                if dep1 > MAX_DEP_DISTANCE:
                    dep1 = MAX_DEP_DISTANCE
            if random() < p.dep2_prob:
                dep2 = 1 + int(random() * self._dep_span)
                if dep2 > MAX_DEP_DISTANCE:
                    dep2 = MAX_DEP_DISTANCE
            return Uop(_STORE, addr, dep1, dep2)
        if r < p.mem_frac + p.branch_frac:
            dep1 = 0
            if random() < p.dep_prob:
                dep1 = 1 + int(random() * self._dep_span)
                if dep1 > MAX_DEP_DISTANCE:
                    dep1 = MAX_DEP_DISTANCE
            # favour low-index (hot) branch sites quadratically
            sites = self._branch_sites
            site = sites[int(len(sites) * random() * random())]
            return Uop(
                _BRANCH,
                0,
                dep1,
                0,
                random() < p.mispredict_rate,
                site.pc,
                site.next_outcome(rng),
            )
        # Compute op classes are OpClass values 0-3; the int (not the
        # enum, whose hashing runs Python code) keys the shared table.
        if random() < p.fp_frac:
            opc = 3 if random() < p.mult_frac else 2  # FP_MULT / FP_ALU
        else:
            opc = 1 if random() < p.mult_frac else 0  # INT_MULT / INT_ALU
        dep1 = dep2 = 0
        if random() < p.dep_prob:
            dep1 = 1 + int(random() * self._dep_span)
            if dep1 > MAX_DEP_DISTANCE:
                dep1 = MAX_DEP_DISTANCE
        if random() < p.dep2_prob:
            dep2 = 1 + int(random() * self._dep_span)
            if dep2 > MAX_DEP_DISTANCE:
                dep2 = MAX_DEP_DISTANCE
        key = (opc * _DEP_VALUES + dep1) * _DEP_VALUES + dep2
        uop = _COMPUTE_UOPS.get(key)
        if uop is None:
            uop = _COMPUTE_UOPS[key] = Uop(OpClass(opc), dep1=dep1, dep2=dep2)
        return uop

    def __iter__(self) -> Iterator[Uop]:
        while True:
            yield self.next_uop()
