"""Scale-chaos exhibit: correlated failures on a 10^3-10^4-rank fabric.

Reproduces the shape of the paper's scaling figures (Fig 8/9) on the
simulated fabric, but with the failure modes a real machine of that size
exhibits: at 10^3+ ranks the interesting events are not independent bit
flips but *correlated* ones — a leaf switch takes its whole rank group
down at once, an uplink browns out, the fabric splits into islands.

Every scenario here runs on synthetic one-element-per-pair payloads
(views into one (P, P) matrix), so the exchanges carry real data whose
bit-identity can be checked, while the per-rank arithmetic stays tiny
enough to execute 1024- and 4096-rank fabrics on one host.  Four series
per fabric size:

* **flat vs hierarchical** — the two-level (intra-leaf, then
  inter-leaf) all-to-all against the flat pairwise exchange: simulated
  time, wire messages, bitwise equality;
* **degraded uplink** — one leaf's cross-domain links at a fraction of
  spec with packet loss: the exchange completes through retries, slower;
* **switch failure** — one whole fault domain dies mid-exchange; the
  survivors shrink and the shrunken exchange must be bit-identical to a
  fresh fault-free exchange at the surviving rank count; MTTR is the
  simulated time from detection to the shrunken exchange's completion;
* **partition** — a seeded split along domain boundaries; detection
  yields the component census, the majority side (strict quorum of live
  ranks) re-runs bit-identically at its own size, the minority aborts.

Full mode adds the 4096-rank fabric and an end-to-end distributed SOI
run at 1024 ranks with a dead leaf switch (domain-aware recovery with
per-domain MTTR).  ``python -m repro scale-chaos`` writes :func:`build`'s
exhibit to ``benchmarks/results/scale_chaos.txt``; full mode does not fit
in 8 GiB (the 4096-rank partition series alone peaks at 7.4 GiB).
"""

from __future__ import annotations

import math

import numpy as np

from repro.bench.tables import render_table
from repro.cluster.faults import (
    FaultPlan,
    LinkDegradation,
    PartitionDetected,
    PartitionEvent,
    RankFailed,
    RetryPolicy,
)
from repro.cluster.simcluster import SimCluster
from repro.cluster.topology import FatTree

__all__ = [
    "DEFAULT_SIZES",
    "FULL_SIZES",
    "build",
    "degraded_uplink_rows",
    "exchange_rows",
    "fabric_for",
    "partition_rows",
    "soi_domain_recovery",
    "switch_failure_rows",
]

DEFAULT_SIZES = (64, 256, 1024)
FULL_SIZES = (64, 256, 1024, 4096)
DEFAULT_SEED = 2013


def fabric_for(n_ranks: int) -> FatTree:
    """The exhibit's fabric: a fat tree with sqrt(P) ranks per leaf.

    radix = 2*sqrt(P) puts sqrt(P) ranks behind each of sqrt(P) leaf
    switches — the square arrangement that makes the two-level exchange's
    message count (2*(sqrt(P)-1) per rank) minimal for a given P.
    """
    m = math.isqrt(n_ranks)
    if m * m != n_ranks:
        raise ValueError(f"exhibit sizes are perfect squares, got {n_ranks}")
    return FatTree(radix=2 * m)


def _payload_matrix(n_ranks: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n_ranks, n_ranks))
            + 1j * rng.standard_normal((n_ranks, n_ranks)))


def _sendbufs(mat: np.ndarray, ranks) -> list[list[np.ndarray]]:
    """One complex element per (src, dst) pair, as views into *mat*."""
    return [[mat[s, d:d + 1] for d in ranks] for s in ranks]


def _as_matrix(recv) -> np.ndarray:
    """Stack a received [dst][src] table of 1-element payloads."""
    return np.stack([np.concatenate([np.ravel(p) for p in row])
                     for row in recv])


def _contiguous_groups(n_ranks: int, group_size: int) -> list[list[int]]:
    return [list(range(lo, lo + group_size))
            for lo in range(0, n_ranks, group_size)]


# ---------------------------------------------------------------------------
# Series 1: flat vs hierarchical all-to-all (the Fig 8 shape)
# ---------------------------------------------------------------------------

def exchange_rows(sizes=DEFAULT_SIZES, seed: int = DEFAULT_SEED) -> list[dict]:
    rows = []
    for q in sizes:
        top = fabric_for(q)
        mat = _payload_matrix(q, seed)
        bufs = _sendbufs(mat, range(q))

        cl_flat = SimCluster(q, topology=top)
        recv_flat = cl_flat.comm.alltoall(bufs, label="flat all-to-all")
        flat_sim = cl_flat.elapsed
        flat_msgs = cl_flat.comm.message_count

        cl_hier = SimCluster(q, topology=top)
        groups = [list(g) for g in cl_hier.domains.groups]
        recv_hier = cl_hier.comm.alltoall(bufs, groups=groups,
                                          label="two-level all-to-all")
        hier_sim = cl_hier.elapsed
        hier_msgs = cl_hier.comm.message_count

        rows.append({
            "ranks": q,
            "leaf_size": top.radix // 2,
            "groups": len(groups),
            "flat_msgs": flat_msgs,
            "hier_msgs": hier_msgs,
            "flat_sim_s": flat_sim,
            "hier_sim_s": hier_sim,
            "speedup": flat_sim / hier_sim if hier_sim else float("inf"),
            "bitwise_equal": bool(np.array_equal(_as_matrix(recv_flat),
                                                 _as_matrix(recv_hier))),
        })
    return rows


# ---------------------------------------------------------------------------
# Series 2: degraded uplink (brownout, not failure)
# ---------------------------------------------------------------------------

def degraded_uplink_rows(sizes=DEFAULT_SIZES, seed: int = DEFAULT_SEED,
                         bandwidth_factor: float = 0.25,
                         loss_rate: float | None = None) -> list[dict]:
    rows = []
    for q in sizes:
        top = fabric_for(q)
        mat = _payload_matrix(q, seed)
        bufs = _sendbufs(mat, range(q))

        cl = SimCluster(q, topology=top)
        dom = cl.domains
        groups = [list(g) for g in dom.groups]
        victim = dom.n_domains // 2
        inside = set(dom.members(victim))
        # a retry re-flies the whole collective, so the loss rate is
        # normalized to ~0.5 expected losses per boundary-crossing
        # collective (2*(m-1) degraded routes each) at every fabric size
        p_loss = loss_rate if loss_rate is not None \
            else 0.5 / (2 * (top.radix // 2))
        deg = LinkDegradation(bandwidth_factor=bandwidth_factor,
                              loss_rate=p_loss)
        links = {(s, d): deg
                 for s in range(q) for d in range(q)
                 if s != d and (s in inside) != (d in inside)}
        plan = FaultPlan(degraded_links=links, seed=seed)
        cl.comm.install_faults(plan, RetryPolicy(max_retries=8))
        recv = cl.comm.alltoall(bufs, groups=groups, label="degraded")
        degraded_sim = cl.elapsed

        cl0 = SimCluster(q, topology=top)
        cl0.comm.alltoall(bufs, groups=groups, label="clean")
        clean_sim = cl0.elapsed

        rows.append({
            "ranks": q,
            "degraded_links": len(links),
            "clean_sim_s": clean_sim,
            "degraded_sim_s": degraded_sim,
            "slowdown": degraded_sim / clean_sim if clean_sim else 1.0,
            "losses": plan.losses_injected,
            "retries": cl.comm.retry_count,
            "complete": bool(np.array_equal(
                _as_matrix(recv), mat.T)),
        })
    return rows


# ---------------------------------------------------------------------------
# Series 3: one leaf switch dies mid-exchange (correlated domain failure)
# ---------------------------------------------------------------------------

def switch_failure_rows(sizes=DEFAULT_SIZES,
                        seed: int = DEFAULT_SEED) -> list[dict]:
    rows = []
    for q in sizes:
        top = fabric_for(q)
        mat = _payload_matrix(q, seed)
        cl = SimCluster(q, topology=top)
        dom = cl.domains
        groups = [list(g) for g in dom.groups]
        victim = dom.n_domains // 2
        plan = FaultPlan.fail_domain(dom, victim, at_transfer=1, seed=seed)
        cl.comm.install_faults(plan, RetryPolicy(max_retries=1))

        first_dead = None
        try:
            cl.comm.alltoall(_sendbufs(mat, range(q)), groups=groups,
                             label="doomed all-to-all")
        except RankFailed as exc:
            first_dead = exc.rank
        if first_dead is None:
            raise AssertionError("domain failure was not detected")
        for r in dom.members(victim):  # the whole switch went, not one rank
            cl.fail_rank(r)
        detect_sim = cl.elapsed
        cl.comm.clear_faults()

        live = cl.live_ranks
        sub = _sendbufs(mat, live)
        recv = cl.comm.alltoall(sub, ranks=live,
                                groups=dom.equal_groups(live),
                                label="shrunken all-to-all")
        mttr = cl.elapsed - detect_sim

        # the contract: bit-identical to a fresh fault-free exchange at
        # the surviving rank count
        m = top.radix // 2
        cl_ref = SimCluster(len(live), topology=top)
        recv_ref = cl_ref.comm.alltoall(
            _sendbufs(mat[np.ix_(live, live)], range(len(live))),
            groups=_contiguous_groups(len(live), m), label="reference")

        rows.append({
            "ranks": q,
            "victim_domain": victim,
            "dead": len(dom.members(victim)),
            "first_detected": first_dead,
            "detect_sim_s": detect_sim,
            "mttr_sim_s": mttr,
            "survivors": len(live),
            "bitwise_equal": bool(np.array_equal(_as_matrix(recv),
                                                 _as_matrix(recv_ref))),
        })
    return rows


# ---------------------------------------------------------------------------
# Series 4: fabric partition (quorum shrink, minority abort)
# ---------------------------------------------------------------------------

def partition_rows(sizes=DEFAULT_SIZES, seed: int = DEFAULT_SEED,
                   cut_quarter: bool = True) -> list[dict]:
    rows = []
    for q in sizes:
        top = fabric_for(q)
        mat = _payload_matrix(q, seed)
        cl = SimCluster(q, topology=top)
        dom = cl.domains
        groups = [list(g) for g in dom.groups]
        n_cut = max(1, dom.n_domains // 4) if cut_quarter \
            else dom.n_domains // 2
        minority = tuple(r for g in groups[-n_cut:] for r in g)
        majority = tuple(r for g in groups[:-n_cut] for r in g)
        plan = FaultPlan(partition=PartitionEvent(
            at_transfer=1, components=(majority, minority)), seed=seed)
        cl.comm.install_faults(plan, RetryPolicy(max_retries=1))

        detected = None
        try:
            cl.comm.alltoall(_sendbufs(mat, range(q)), groups=groups,
                             label="cut all-to-all")
        except PartitionDetected as exc:
            detected = exc
        if detected is None:
            raise AssertionError("partition was not detected")
        detect_sim = cl.elapsed
        # the collective that tripped may have seen only a subset of the
        # fabric; the plan reconstructs the full component census
        components = plan.partition_components(range(q))
        sizes_by_comp = sorted((len(c) for c in components), reverse=True)
        quorum = 2 * len(majority) > q
        cl.comm.clear_faults()

        # majority side: shrink onto its own component and re-run
        for r in minority:
            cl.fail_rank(r)
        maj = list(majority)
        recv = cl.comm.alltoall(_sendbufs(mat, maj), ranks=maj,
                                groups=dom.equal_groups(maj),
                                label="majority all-to-all")

        m = top.radix // 2
        cl_ref = SimCluster(len(maj), topology=top)
        recv_ref = cl_ref.comm.alltoall(
            _sendbufs(mat[np.ix_(maj, maj)], range(len(maj))),
            groups=_contiguous_groups(len(maj), m), label="reference")

        rows.append({
            "ranks": q,
            "components": len(components),
            "census": "+".join(str(s) for s in sizes_by_comp),
            "quorum": quorum,
            "majority": len(majority),
            "aborted": len(minority),
            "detect_sim_s": detect_sim,
            "bitwise_equal": bool(np.array_equal(_as_matrix(recv),
                                                 _as_matrix(recv_ref))),
        })
    return rows


# ---------------------------------------------------------------------------
# End-to-end: distributed SOI with a dead leaf switch (domain recovery)
# ---------------------------------------------------------------------------

def soi_domain_recovery(n_ranks: int = 1024, seed: int = DEFAULT_SEED
                        ) -> dict:
    """Full SOI pipeline at *n_ranks* with one leaf switch failing
    mid-all-to-all: domain-aware recovery completes bit-identically to
    the fault-free run and reports per-domain MTTR."""
    from repro.core.params import SoiParams
    from repro.core.soi_dist import DistributedSoiFFT

    top = fabric_for(n_ranks)
    # 4 blocks per rank: the smallest chunk that clears the B=4 design's
    # 2-block ghost halo with headroom at every fabric size
    n = max(4 * n_ranks * n_ranks, 1 << 14)
    params = SoiParams(n=n, n_procs=n_ranks, n_mu=2, d_mu=1, b=4)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    cl0 = SimCluster(n_ranks, topology=top)
    soi0 = DistributedSoiFFT(cl0, params)
    y_clean = soi0.assemble(soi0(soi0.scatter(x)))

    cl = SimCluster(n_ranks, topology=top)
    soi = DistributedSoiFFT(cl, params)
    dom = cl.domains
    victim = dom.n_domains // 2
    # at_transfer=2: survive the ghost exchange, die in the all-to-all
    cl.comm.install_faults(
        FaultPlan.fail_domain(dom, victim, at_transfer=2, seed=seed),
        RetryPolicy(max_retries=1))
    y = soi.assemble(soi(soi.scatter(x)))
    rep = soi.last_recovery
    if rep is None:
        raise AssertionError("domain failure did not trigger recovery")

    ref = np.fft.fft(x)
    rel_err = float(np.linalg.norm(y - ref) / np.linalg.norm(ref))
    return {
        "ranks": n_ranks,
        "n": n,
        "victim_domain": victim,
        "dead": list(rep.dead_ranks),
        "domain_kind": rep.domain_kind,
        "mttr_by_domain": {int(k): float(v)
                           for k, v in rep.mttr_by_domain.items()},
        "survivors": len(cl.live_ranks),
        "bitwise_equal": bool(np.array_equal(y, y_clean)),
        "rel_err": rel_err,
    }


# ---------------------------------------------------------------------------
# The exhibit
# ---------------------------------------------------------------------------

def build(quick: bool = False, seed: int = DEFAULT_SEED) -> tuple[str, dict]:
    """The ``scale-chaos`` exhibit: ``(text, {gate: verdict})``, each
    series' gate judged from its own rows."""
    sizes = DEFAULT_SIZES if quick else FULL_SIZES
    exchange = exchange_rows(sizes, seed)
    degraded = degraded_uplink_rows(sizes, seed)
    switch = switch_failure_rows(sizes, seed)
    partition = partition_rows(sizes, seed)
    soi = soi_domain_recovery(64 if quick else 1024, seed)

    def ok(flag: bool) -> str:
        return "ok" if flag else "MISMATCH"

    mttr = ", ".join(f"domain {d}: {t * 1e3:.3f} ms"
                     for d, t in sorted(soi["mttr_by_domain"].items()))
    text = "\n".join([
        "scale-chaos: correlated failures, partitions, and the two-level "
        "exchange",
        f"fabric: two-level fat tree, radix 2*sqrt(P) (sqrt(P) ranks per "
        f"leaf switch); seed {seed}",
        "",
        render_table(
            ["ranks", "leaves", "flat msgs", "hier msgs", "flat sim s",
             "hier sim s", "speedup", "bitwise"],
            [[r["ranks"], r["groups"], r["flat_msgs"], r["hier_msgs"],
              r["flat_sim_s"], r["hier_sim_s"], r["speedup"],
              ok(r["bitwise_equal"])] for r in exchange],
            title="flat vs hierarchical all-to-all (one element per pair; "
                  "Fig 8 shape)"),
        "",
        render_table(
            ["ranks", "deg links", "clean sim s", "degraded sim s",
             "slowdown", "losses", "retries", "complete"],
            [[r["ranks"], r["degraded_links"], r["clean_sim_s"],
              r["degraded_sim_s"], r["slowdown"], r["losses"], r["retries"],
              ok(r["complete"])] for r in degraded],
            title="degraded uplink (one leaf at 25% bandwidth with packet "
                  "loss: retries ride it out)"),
        "",
        render_table(
            ["ranks", "victim", "dead", "detect sim s", "mttr sim s",
             "survivors", "bitwise-vs-fresh"],
            [[r["ranks"], r["victim_domain"], r["dead"], r["detect_sim_s"],
              r["mttr_sim_s"], r["survivors"], ok(r["bitwise_equal"])]
             for r in switch],
            title="one switch down mid-exchange (correlated domain "
                  "failure; shrink to survivors)"),
        "",
        render_table(
            ["ranks", "census", "quorum", "majority", "aborted",
             "detect sim s", "bitwise-vs-fresh"],
            [[r["ranks"], r["census"], "yes" if r["quorum"] else "no",
              r["majority"], r["aborted"], r["detect_sim_s"],
              ok(r["bitwise_equal"])] for r in partition],
            title="fabric partition along domain boundaries (majority "
                  "shrinks, minority aborts)"),
        "",
        f"distributed SOI at {soi['ranks']} ranks (N = {soi['n']}) with a "
        f"dead {soi['domain_kind']}:",
        f"  domain {soi['victim_domain']} lost ({len(soi['dead'])} ranks); "
        f"{soi['survivors']} survivors adopted its rows",
        f"  recovery MTTR per affected domain: {mttr}",
        f"  output vs fault-free run: "
        f"{'bit-identical' if soi['bitwise_equal'] else 'MISMATCH'}; "
        f"rel err vs numpy fft {soi['rel_err']:.3e} "
        f"(miniature mu=2, B=4 design: accuracy floor is the design's, "
        f"not recovery's)",
        "",
    ])
    return text, {
        "exchange_bitwise": all(r["bitwise_equal"] for r in exchange),
        "degraded_complete": all(r["complete"] for r in degraded),
        "switch_bitwise": all(r["bitwise_equal"] for r in switch),
        "partition_bitwise": all(r["bitwise_equal"] for r in partition),
        "soi_recovery_bitwise": soi["bitwise_equal"],
    }
