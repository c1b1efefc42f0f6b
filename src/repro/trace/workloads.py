"""The 60-workload suite (Table III of the paper).

Each named workload is a seeded :class:`~repro.trace.builder.WorkloadProfile`
built from a per-category kernel recipe plus per-workload jitter and,
for the applications the paper singles out, hand-set traits:

* *mcf*, *gcc* (§VI-A1): dominated by cache misses whose dependent
  chains are unpredictable — high potential coverage, little Skylake
  gain; *gcc* becomes sensitive on Skylake-2X.
* *namd*, *gobmk*, *sphinx3*, *cassandra* (§VI-A1): low coverage but
  significant gain — one dominant critical, predictable chain among
  many unpredictable loads.
* SPEC17 members: branch-mispredict-bound (§VI-A), so value prediction
  has little to work with.
* Server members: store→load forwarding and code-footprint heavy.

Table III lists 53 distinct application names across the four
categories while the text reports 60 workloads (several applications
contribute more than one trace); we reach 60 the same way, by adding a
second input ("-2") trace for seven of the large applications.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List

from repro.trace.builder import KernelSpec, WorkloadProfile
from repro.trace.kernels import (
    BranchyKernel,
    ChaseKernel,
    ContextValueKernel,
    DeepChainKernel,
    HotLoadsKernel,
    ICacheKernel,
    IndexedMissKernel,
    SpillKernel,
    StoreForwardKernel,
    StreamKernel,
)

FSPEC06 = "FSPEC06"
ISPEC06 = "ISPEC06"
SERVER = "Server"
SPEC17 = "SPEC17"

CATEGORIES = (FSPEC06, ISPEC06, SERVER, SPEC17)

_FSPEC06_APPS = [
    "bwaves", "gamess", "milc", "zeusmp", "soplex", "povray", "calculix",
    "gemsfdtd", "tonto", "wrf", "sphinx3", "gromacs", "cactusADM",
    "leslie3d", "namd", "dealII",
]
_ISPEC06_APPS = [
    "perlbench", "bzip2", "gcc", "mcf", "h264ref", "gobmk", "hmmer",
    "sjeng", "libquantum", "omnetpp", "astar", "xalancbmk",
]
_SPEC17_APPS = [
    "nab17", "cam417", "pop217", "roms17", "leela17", "cactubssn17",
    "xz17", "gcc17", "mcf17", "xalanc17", "exchange217", "omnetpp17",
    "perlbench17", "bwaves17", "lbm17", "fotonik3d17",
]
_SERVER_APPS = [
    "lammps", "hplinpack", "tpce", "spark", "cassandra", "specjbb",
    "specjenterprise", "hadoop", "specpower",
]
#: Second-input traces bringing the suite to the paper's 60 workloads.
_SECOND_INPUTS = [
    ("gcc-2", ISPEC06), ("mcf-2", ISPEC06), ("omnetpp-2", ISPEC06),
    ("bwaves-2", FSPEC06), ("wrf-2", FSPEC06),
    ("hadoop-2", SERVER), ("xz17-2", SPEC17),
]


def _jit(rng: random.Random, value: float, spread: float = 0.2) -> float:
    """Multiplicative jitter in [1-spread, 1+spread]."""
    return value * (1.0 + rng.uniform(-spread, spread))


# ----------------------------------------------------------------------
# Category recipes.  Weights are relative; the builder normalises by
# weighted choice.  Memory-region offsets are arena-relative (the
# builder relocates every ``*_base`` parameter).
# ----------------------------------------------------------------------
def _fspec06_recipe(rng: random.Random) -> List[KernelSpec]:
    """Register-dependence-dominated FP codes: predictable chain heads
    feeding delinquent loads, long FP chains, big streams."""
    return [
        KernelSpec(IndexedMissKernel, _jit(rng, 0.04),
                   meta_base=0, hops=2, data_base=1 << 23,
                   footprint=int(_jit(rng, 32 << 20)),
                   alu_depth=2, pad=rng.randint(36, 48)),
        KernelSpec(IndexedMissKernel, _jit(rng, 0.05),
                   meta_base=0, hops=6, serial=True, data_base=1 << 23,
                   footprint=1 << 20, alu_depth=2,
                   pad=rng.randint(16, 24)),
        KernelSpec(DeepChainKernel, _jit(rng, 0.16),
                   coef_base=0, coef_slots=8,
                   chain_len=rng.randint(8, 14)),
        KernelSpec(StreamKernel, _jit(rng, 0.26),
                   array_base=0, footprint=int(_jit(rng, 12 << 20)),
                   unroll=4),
        KernelSpec(HotLoadsKernel, _jit(rng, 0.12), globals_base=0,
                   count=24),
        KernelSpec(ContextValueKernel, _jit(rng, 0.08),
                   table_base=0, data_base=1 << 22, critical=False,
                   period=rng.choice([3, 5, 7])),
        KernelSpec(BranchyKernel, _jit(rng, 0.14), data_base=0,
                   mode="patterned", branches=2),
        KernelSpec(SpillKernel, _jit(rng, 0.08),
                   spill_base=0, dep_base=1 << 21, pairs=32,
                   critical_every=8, region_kb=384),
    ]


def _ispec06_recipe(rng: random.Random) -> List[KernelSpec]:
    """Mixed register + memory dependences: the category where both of
    FVP's components contribute equally (Figure 13)."""
    return [
        KernelSpec(IndexedMissKernel, _jit(rng, 0.26),
                   meta_base=0, hops=3, data_base=1 << 23,
                   footprint=int(_jit(rng, 32 << 20)),
                   alu_depth=rng.randint(2, 4),
                   pad=rng.randint(18, 26)),
        KernelSpec(IndexedMissKernel, _jit(rng, 0.05),
                   meta_base=0, hops=5, serial=True, data_base=1 << 23,
                   footprint=1 << 20, alu_depth=2,
                   pad=rng.randint(10, 16)),
        KernelSpec(StoreForwardKernel, _jit(rng, 0.12),
                   src_base=0, queue_base=1 << 20, data_base=1 << 23,
                   carried=True, hops=4,
                   addr_depth=rng.randint(3, 5),
                   produce_depth=2, pad=rng.randint(10, 16)),
        KernelSpec(SpillKernel, _jit(rng, 0.14),
                   spill_base=0, dep_base=1 << 21, pairs=160,
                   critical_every=4, region_kb=256),
        KernelSpec(ChaseKernel, _jit(rng, 0.06),
                   region_base=0, nodes=2048, spacing=4096 + 64,
                   shuffle_period=None),
        KernelSpec(ContextValueKernel, _jit(rng, 0.08),
                   table_base=0, data_base=1 << 22, critical=True,
                   period=rng.choice([3, 5])),
        KernelSpec(HotLoadsKernel, _jit(rng, 0.12), globals_base=0,
                   count=24),
        KernelSpec(BranchyKernel, _jit(rng, 0.14), data_base=0,
                   mode="biased", bias=0.88, branches=2),
        KernelSpec(StreamKernel, _jit(rng, 0.14),
                   array_base=0, footprint=8 << 20, unroll=4),
    ]


def _server_recipe(rng: random.Random) -> List[KernelSpec]:
    """Memory-dependence-dominated: store→load chains and spill/fill
    traffic, large code footprints (Figure 13's Server split)."""
    return [
        KernelSpec(StoreForwardKernel, _jit(rng, 0.13),
                   src_base=0, queue_base=1 << 20, data_base=1 << 23,
                   carried=True, hops=4,
                   addr_depth=rng.randint(3, 5),
                   produce_depth=2, pad=rng.randint(8, 12)),
        KernelSpec(SpillKernel, _jit(rng, 0.20),
                   spill_base=0, dep_base=1 << 21, pairs=256,
                   critical_every=4, region_kb=256),
        KernelSpec(ICacheKernel, _jit(rng, 0.12), data_base=0,
                   blocks=rng.choice([1536, 2048, 3072])),
        KernelSpec(HotLoadsKernel, _jit(rng, 0.14), globals_base=0,
                   count=24),
        KernelSpec(BranchyKernel, _jit(rng, 0.10), data_base=0,
                   mode="biased", bias=0.92, branches=2),
        KernelSpec(IndexedMissKernel, _jit(rng, 0.04),
                   meta_base=0, hops=1, data_base=1 << 23,
                   footprint=int(_jit(rng, 32 << 20)),
                   alu_depth=2, pad=rng.randint(28, 36)),
        KernelSpec(StreamKernel, _jit(rng, 0.11),
                   array_base=0, footprint=8 << 20, unroll=4),
        KernelSpec(StoreForwardKernel, _jit(rng, 0.12),
                   src_base=0, queue_base=1 << 20, data_base=1 << 23,
                   footprint=int(_jit(rng, 24 << 20)),
                   addr_depth=rng.randint(5, 8),
                   pad=rng.randint(10, 16)),
    ]


def _spec17_recipe(rng: random.Random) -> List[KernelSpec]:
    """Bad-speculation-bound (§VI-A): the critical path runs through
    mispredicting branches value prediction cannot touch."""
    return [
        KernelSpec(BranchyKernel, _jit(rng, 0.34), data_base=0,
                   mode="random", branches=rng.randint(2, 3)),
        KernelSpec(StreamKernel, _jit(rng, 0.20),
                   array_base=0, footprint=int(_jit(rng, 12 << 20)),
                   unroll=4),
        KernelSpec(IndexedMissKernel, _jit(rng, 0.03),
                   meta_base=0, hops=2, data_base=1 << 23,
                   footprint=int(_jit(rng, 24 << 20)),
                   alu_depth=2, pad=rng.randint(24, 32)),
        KernelSpec(HotLoadsKernel, _jit(rng, 0.12), globals_base=0,
                   count=24),
        KernelSpec(SpillKernel, _jit(rng, 0.10),
                   spill_base=0, dep_base=1 << 21, pairs=48,
                   critical_every=8, region_kb=384),
        KernelSpec(DeepChainKernel, _jit(rng, 0.08),
                   coef_base=0, coef_slots=8, chain_len=rng.randint(6, 10)),
        KernelSpec(StoreForwardKernel, _jit(rng, 0.04),
                   src_base=0, queue_base=1 << 20, data_base=1 << 23,
                   carried=True, hops=1, addr_depth=3, produce_depth=2,
                   pad=rng.randint(14, 20)),
    ]


_RECIPES = {
    FSPEC06: _fspec06_recipe,
    ISPEC06: _ispec06_recipe,
    SERVER: _server_recipe,
    SPEC17: _spec17_recipe,
}


# ----------------------------------------------------------------------
# Hand-set traits for the applications the paper discusses by name.
# Each trait function rewrites the recipe list.
# ----------------------------------------------------------------------
def _trait_memory_bound(specs: List[KernelSpec],
                        rng: random.Random) -> List[KernelSpec]:
    """mcf/gcc-like: unpredictable dependent misses dominate; value
    prediction finds coverage but no Skylake speedup."""
    out = [
        KernelSpec(ChaseKernel, 0.30, region_base=0,
                   nodes=65536, spacing=4096 + 64, shuffle_period=None),
        KernelSpec(StreamKernel, 0.16, array_base=0,
                   footprint=96 << 20, stride=3200, unroll=4),
        KernelSpec(HotLoadsKernel, 0.26, globals_base=0, count=16),
        KernelSpec(BranchyKernel, 0.12, data_base=0, mode="biased",
                   bias=0.85),
        KernelSpec(IndexedMissKernel, 0.16, meta_base=0, hops=2,
                   data_base=1 << 23, footprint=96 << 20, alu_depth=2,
                   pad=4),
    ]
    del specs, rng
    return out


def _trait_low_coverage_high_gain(specs: List[KernelSpec],
                                  rng: random.Random) -> List[KernelSpec]:
    """namd/gobmk/sphinx3/cassandra-like: one dominant critical
    predictable chain among a sea of unpredictable loads."""
    out = [
        KernelSpec(IndexedMissKernel, 0.16, meta_base=0,
                   hops=4, data_base=1 << 23,
                   footprint=48 << 20, alu_depth=4, pad=26),
        KernelSpec(IndexedMissKernel, 0.06, meta_base=0, hops=6,
                   serial=True, data_base=1 << 23, footprint=1 << 20,
                   alu_depth=2, pad=18),
        KernelSpec(StreamKernel, 0.42, array_base=0,
                   footprint=10 << 20, unroll=4),
        KernelSpec(BranchyKernel, 0.16, data_base=0, mode="patterned"),
        KernelSpec(DeepChainKernel, 0.18, coef_base=0, coef_slots=8,
                   chain_len=10),
    ]
    del specs, rng
    return out


def _trait_stream_heavy(specs: List[KernelSpec],
                        rng: random.Random) -> List[KernelSpec]:
    """libquantum/lbm-like: bandwidth-bound streaming."""
    out = [
        KernelSpec(StreamKernel, 0.55, array_base=0,
                   footprint=64 << 20, unroll=4),
        KernelSpec(IndexedMissKernel, 0.15, meta_base=0, hops=2,
                   data_base=1 << 23, footprint=32 << 20, alu_depth=3,
                   pad=16),
        KernelSpec(HotLoadsKernel, 0.15, globals_base=0, count=12),
        KernelSpec(BranchyKernel, 0.15, data_base=0, mode="patterned"),
    ]
    del specs, rng
    return out


def _trait_fp_dense(specs: List[KernelSpec],
                    rng: random.Random) -> List[KernelSpec]:
    """hplinpack/lammps-like: FP chains + streams with a predictable
    critical metadata chain."""
    out = [
        KernelSpec(DeepChainKernel, 0.24, coef_base=0, coef_slots=8,
                   chain_len=12),
        KernelSpec(StreamKernel, 0.24, array_base=0, footprint=24 << 20,
                   unroll=4),
        KernelSpec(IndexedMissKernel, 0.12, meta_base=0, hops=3,
                   data_base=1 << 23, footprint=48 << 20, alu_depth=4,
                   pad=28),
        KernelSpec(IndexedMissKernel, 0.03, meta_base=0, hops=6,
                   serial=True, data_base=1 << 23, footprint=1 << 20,
                   alu_depth=2, pad=18),
        KernelSpec(StoreForwardKernel, 0.08, src_base=0,
                   queue_base=1 << 20, data_base=1 << 23, carried=True,
                   hops=5, addr_depth=3, produce_depth=2, pad=14),
        KernelSpec(HotLoadsKernel, 0.10, globals_base=0, count=12),
        KernelSpec(BranchyKernel, 0.12, data_base=0, mode="patterned"),
    ]
    del specs, rng
    return out


_TRAITS = {
    "mcf": _trait_memory_bound,
    "mcf-2": _trait_memory_bound,
    "mcf17": _trait_memory_bound,
    "gcc": _trait_memory_bound,
    "gcc-2": _trait_memory_bound,
    "namd": _trait_low_coverage_high_gain,
    "gobmk": _trait_low_coverage_high_gain,
    "sphinx3": _trait_low_coverage_high_gain,
    "cassandra": _trait_low_coverage_high_gain,
    "libquantum": _trait_stream_heavy,
    "lbm17": _trait_stream_heavy,
    "hplinpack": _trait_fp_dense,
    "lammps": _trait_fp_dense,
}


def _stable_seed(name: str, category: str) -> int:
    """Process-independent seed (``hash()`` is randomised per process)."""
    return zlib.crc32(f"{name}/{category}".encode()) & 0x7FFFFFFF


def _make_profile(name: str, category: str) -> WorkloadProfile:
    seed = _stable_seed(name, category)
    rng = random.Random(seed)
    specs = _RECIPES[category](rng)
    trait = _TRAITS.get(name)
    if trait is not None:
        specs = trait(specs, rng)
    return WorkloadProfile(name=name, category=category, seed=seed,
                           specs=specs,
                           description=f"{category} synthetic analogue")


def _build_catalogue() -> Dict[str, WorkloadProfile]:
    catalogue: Dict[str, WorkloadProfile] = {}
    for name in _FSPEC06_APPS:
        catalogue[name] = _make_profile(name, FSPEC06)
    for name in _ISPEC06_APPS:
        catalogue[name] = _make_profile(name, ISPEC06)
    for name in _SPEC17_APPS:
        catalogue[name] = _make_profile(name, SPEC17)
    for name in _SERVER_APPS:
        catalogue[name] = _make_profile(name, SERVER)
    for name, category in _SECOND_INPUTS:
        catalogue[name] = _make_profile(name, category)
    return catalogue


#: name -> profile, in the paper's category order.  60 entries.
CATALOGUE: Dict[str, WorkloadProfile] = _build_catalogue()


def workload_names(category: str = None) -> List[str]:
    """All workload names, optionally restricted to one category."""
    if category is None:
        return list(CATALOGUE)
    if category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r}; "
                         f"expected one of {CATEGORIES}")
    return [name for name, profile in CATALOGUE.items()
            if profile.category == category]


def get_profile(name: str) -> WorkloadProfile:
    """Look up a workload by name."""
    try:
        return CATALOGUE[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; see workload_names()") from None


def reseeded(profile: WorkloadProfile, seed: int) -> WorkloadProfile:
    """``profile`` with its trace-generation seed replaced.

    The kernel mix (specs, weights, parameters) is untouched — only
    the interleaving RNG and the memory-image salt change, so the
    reseeded profile is the same *program* over different data.  This
    backs the ``--seed`` CLI flag for run-to-run variation studies.

    Known defect: the trace depends on the kernel recipe and the seed
    only, not on the workload name, so workloads that share a recipe
    get byte-identical traces under any seed.  60 workloads give 51
    distinct traces; the shared groups are gcc = mcf = mcf17 = gcc-2 =
    mcf-2, namd = sphinx3 = gobmk = cassandra, libquantum = lbm17 and
    lammps = hplinpack.  Folding the name into the seed would fix it
    but changes every seeded trace (and every seeded cached result)."""
    return WorkloadProfile(name=profile.name, category=profile.category,
                           seed=seed, specs=profile.specs,
                           description=profile.description)
