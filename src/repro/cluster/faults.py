"""Unified fault scheduling for the simulated cluster.

Large installations corrupt payloads, drop messages, and lose whole nodes
(the paper's acknowledgements credit the Stampede/Endeavor teams with
"resolving cluster instability in early installations of new hardware").
This module is the single source of truth for *when* the simulated fabric
misbehaves:

* :class:`FaultPlan` — a deterministic (seeded) schedule of in-flight
  corruption, message timeouts, whole-rank failures, compute noise
  (stragglers/jitter), and — because at 10^3-10^4 ranks failures are
  *correlated* — degraded links (:class:`LinkDegradation`), flapping
  links (:class:`FlappingLink`), whole fault domains dying together
  (:meth:`FaultPlan.fail_domain`), and fabric partitions
  (:class:`PartitionEvent`).
* :class:`RetryPolicy` — how hard the
  :class:`~repro.cluster.communicator.Communicator` fights back: retries
  with exponential backoff, a detection timeout, and the retry budget
  after which an unresponsive rank is declared dead.
* The failure taxonomy: :class:`CorruptionDetected` (checksum mismatch),
  :class:`RetriesExhausted` (transient faults outlasted the budget), and
  :class:`RankFailed` (a rank declared dead — recoverable by the
  algorithm layer's shrink-and-redistribute path).

Time spent recovering — re-flown transfers and backoff waits — is charged
to the :class:`~repro.cluster.trace.Trace` under the ``"retry"`` event
category, so Fig-9-style breakdowns show the cost of resilience.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CollectiveFailure",
    "CorruptionDetected",
    "FaultPlan",
    "FlappingLink",
    "LinkDegradation",
    "PartitionDetected",
    "PartitionEvent",
    "ProcessFault",
    "ProcessFaultPlan",
    "RankFailed",
    "RetriesExhausted",
    "RetryPolicy",
    "SdcEvent",
    "chaos_cluster",
    "checksum",
]


def checksum(a: np.ndarray) -> int:
    """CRC32 of an array's raw bytes (cheap, order-sensitive)."""
    return zlib.crc32(np.ascontiguousarray(a).tobytes())


class CollectiveFailure(RuntimeError):
    """Base class for failures surfaced by the verified collective path."""


class CorruptionDetected(CollectiveFailure):
    """An in-flight payload failed its checksum at the receiver."""


class RetriesExhausted(CollectiveFailure):
    """Transient faults persisted past the retry budget (no dead rank)."""


class RankFailed(CollectiveFailure):
    """A rank stayed unresponsive past the retry budget and was declared
    dead.  Algorithm layers catch this and shrink onto the survivors."""

    def __init__(self, rank: int, message: str):
        super().__init__(message)
        self.rank = rank


class PartitionDetected(CollectiveFailure):
    """The fabric split into disconnected components mid-collective.

    Raised by the verified path when cross-component routes stay dead
    past the retry budget (liveness signal) or when their breakers trip
    (fast path).  Carries the **component census**: ``components`` is
    the full partition of the participating ranks, ``component`` the
    component from whose perspective the error is raised — the majority
    side catches this and shrinks onto its own component
    (quorum-checked); minority components abort with it.
    """

    def __init__(self, message: str,
                 components: tuple[tuple[int, ...], ...] = (),
                 component: tuple[int, ...] = ()):
        super().__init__(message)
        self.components = tuple(tuple(sorted(c)) for c in components)
        self.component = tuple(sorted(component))

    @property
    def census(self) -> dict[int, int]:
        """rank -> component id, for every rank named in the census."""
        return {r: i for i, comp in enumerate(self.components)
                for r in comp}


@dataclass(frozen=True)
class LinkDegradation:
    """One directed link running below spec without being down.

    ``bandwidth_factor`` scales the link's realized bandwidth (0.25 =
    the link runs at a quarter rate, so collectives crossing it take
    4x the modeled wire time); ``loss_rate`` is the per-attempt
    probability that a payload on the link is dropped (surfacing as a
    timeout the verified path retries through).
    """

    bandwidth_factor: float = 1.0
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValueError("bandwidth_factor must be in (0, 1]")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must be a probability")


@dataclass(frozen=True)
class FlappingLink:
    """A directed link driven by a deterministic on/off process.

    The link is *up* for the first ``round(duty * period)`` transfer
    slots of every ``period``-transfer cycle (shifted by ``phase``) and
    down for the rest.  Payloads attempted while it is down time out;
    a retry that lands after the link flaps back up heals the
    collective, so short flaps cost backoff time while long ones
    escalate through the normal taxonomy.
    """

    period: int
    duty: float = 0.5
    phase: int = 0

    def __post_init__(self) -> None:
        if self.period < 2:
            raise ValueError("flap period must span at least 2 transfers")
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty must be in (0, 1) — always-up/down "
                             "links are not flapping")
        if self.phase < 0:
            raise ValueError("phase must be non-negative")

    def up_at(self, transfer: int) -> bool:
        """Is the link up during 1-based transfer slot *transfer*?"""
        up_slots = max(1, min(self.period - 1,
                              int(round(self.duty * self.period))))
        return (transfer + self.phase) % self.period < up_slots


@dataclass(frozen=True)
class PartitionEvent:
    """A seeded fabric split: from transfer ``at_transfer`` onward every
    route crossing component boundaries is dead.

    ``components`` partitions the rank ids into connected islands.
    Ranks not named in any component are isolated (they can reach no
    one).  ``heal_at``, if set, restores full connectivity from that
    transfer onward — a transient partition the retry path can ride
    out when it is shorter than the retry budget.
    """

    at_transfer: int
    components: tuple[tuple[int, ...], ...]
    heal_at: int | None = None

    def __post_init__(self) -> None:
        if self.at_transfer < 1:
            raise ValueError("transfer indices are 1-based")
        if len(self.components) < 2:
            raise ValueError("a partition needs at least two components")
        seen: set[int] = set()
        for comp in self.components:
            if not comp:
                raise ValueError("empty partition component")
            if seen & set(comp):
                raise ValueError("partition components must be disjoint")
            seen |= set(comp)
        if self.heal_at is not None and self.heal_at <= self.at_transfer:
            raise ValueError("heal_at must come after at_transfer")

    def active_at(self, transfer: int) -> bool:
        if transfer < self.at_transfer:
            return False
        return self.heal_at is None or transfer < self.heal_at

    def component_of(self, rank: int) -> int:
        """Component id of *rank*; -1 for ranks outside every component."""
        for i, comp in enumerate(self.components):
            if rank in comp:
                return i
        return -1


@dataclass(frozen=True)
class SdcEvent:
    """One injected silent data corruption (ground truth for coverage).

    Recorded in :attr:`FaultPlan.sdc_log` when :meth:`FaultPlan.apply_sdc`
    fires, so detection-coverage sweeps can compare what the ABFT layer
    *reported* against what was *actually* injected."""

    index: int  # 1-based slot in the SDC schedule
    rank: int  # rank whose stage output was corrupted
    stage: str  # pipeline stage name: "conv" (the front) or "back"
    element: int  # flat index of the corrupted element
    amplitude: float  # perturbation magnitude relative to the array rms


class RetryPolicy:
    """Retry-with-exponential-backoff parameters for collectives.

    ``max_retries = 0`` is detect-only mode: the first observed fault
    raises immediately instead of being retried.
    ``timeout_seconds`` is the detection stall charged whenever an attempt
    contains a timed-out or unresponsive route; ``backoff(k)`` is the wait
    before re-attempt k (0-based), growing geometrically.
    """

    def __init__(self, max_retries: int = 3, backoff_base: float = 50e-6,
                 backoff_factor: float = 2.0,
                 timeout_seconds: float = 1e-3):
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if backoff_base < 0 or backoff_factor < 1.0:
            raise ValueError("need backoff_base >= 0 and backoff_factor >= 1")
        if timeout_seconds < 0:
            raise ValueError("timeout_seconds must be non-negative")
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.timeout_seconds = timeout_seconds

    def backoff(self, attempt: int) -> float:
        """Backoff wait (seconds) before re-attempt *attempt* (0-based)."""
        return self.backoff_base * self.backoff_factor ** attempt


class FaultPlan:
    """A deterministic schedule of faults for one simulated run.

    The plan is indexed by two monotone counters that the communicator's
    verified path advances:

    * the **wire-message index** — 1-based count of non-self payloads
      inspected, in collective order, src-major within each collective,
      retries included (so a transient fault scheduled at index *i* hits
      exactly one attempt and the retry heals it);
    * the **transfer index** — 1-based count of wire transfers (each
      attempt of each collective).  ``rank_failures[r] = t`` makes rank
      *r* unresponsive from transfer *t* onward; after
      :attr:`RetryPolicy.max_retries` the communicator declares it dead.

    ``stragglers``/``jitter`` describe compute-side noise, applied by
    :func:`chaos_cluster` through :class:`~repro.cluster.noise.NoiseModel`
    so communication and compute chaos share one schedule object.

    The schedule is immutable; the ``*_seen``/``*_injected`` attributes
    are runtime counters (call :meth:`reset` to reuse a plan).  Two plans
    built from the same arguments produce bitwise-identical traces on the
    same workload.
    """

    def __init__(self, corrupt_messages=(), timeout_messages=(),
                 rank_failures: dict[int, int] | None = None,
                 stragglers: dict[int, float] | None = None,
                 jitter: float = 0.0, seed: int = 0,
                 sdc_events: dict[int, float] | None = None,
                 degraded_links: dict[tuple[int, int],
                                      LinkDegradation] | None = None,
                 flapping_links: dict[tuple[int, int],
                                      FlappingLink] | None = None,
                 partition: PartitionEvent | None = None):
        self.corrupt_messages = frozenset(int(i) for i in corrupt_messages)
        self.timeout_messages = frozenset(int(i) for i in timeout_messages)
        self.rank_failures = {int(r): int(t)
                              for r, t in (rank_failures or {}).items()}
        self.stragglers = dict(stragglers or {})
        self.jitter = float(jitter)
        self.seed = int(seed)
        self.sdc_events = {int(i): float(a)
                           for i, a in (sdc_events or {}).items()}
        self.degraded_links = {(int(s), int(d)): deg
                               for (s, d), deg in
                               (degraded_links or {}).items()}
        self.flapping_links = {(int(s), int(d)): fl
                               for (s, d), fl in
                               (flapping_links or {}).items()}
        self.partition = partition
        if any(i < 1 for i in self.corrupt_messages | self.timeout_messages):
            raise ValueError("message indices are 1-based")
        if self.corrupt_messages & self.timeout_messages:
            raise ValueError("a message cannot both corrupt and time out")
        if any(t < 1 for t in self.rank_failures.values()):
            raise ValueError("transfer indices are 1-based")
        if self.jitter < 0 or any(s < 0 for s in self.stragglers.values()):
            raise ValueError("noise terms must be non-negative")
        if any(i < 1 for i in self.sdc_events):
            raise ValueError("SDC indices are 1-based")
        if any(a <= 0 for a in self.sdc_events.values()):
            raise ValueError("SDC amplitudes must be positive")
        if any(not isinstance(d, LinkDegradation)
               for d in self.degraded_links.values()):
            raise TypeError("degraded_links values must be LinkDegradation")
        if any(not isinstance(f, FlappingLink)
               for f in self.flapping_links.values()):
            raise TypeError("flapping_links values must be FlappingLink")
        if partition is not None \
                and not isinstance(partition, PartitionEvent):
            raise TypeError("partition must be a PartitionEvent")
        self.reset()

    # -- construction -------------------------------------------------------

    @classmethod
    def random(cls, seed: int, n_ranks: int, *, corrupt_rate: float = 0.0,
               timeout_rate: float = 0.0, n_rank_failures: int = 0,
               horizon_messages: int = 4096, horizon_transfers: int = 64,
               min_survivors: int = 1, jitter: float = 0.0,
               n_stragglers: int = 0, straggler_slowdown: float = 1.0,
               sdc_rate: float = 0.0, sdc_amplitude: float = 1.0,
               horizon_sdc: int = 256) -> "FaultPlan":
        """Draw a seeded schedule: per-message Bernoulli corruption and
        timeout over the first *horizon_messages* wire payloads, plus
        *n_rank_failures* distinct ranks failing at uniform transfer
        indices (capped so at least *min_survivors* ranks remain).
        ``sdc_rate`` adds per-slot Bernoulli silent data corruption over
        the first *horizon_sdc* compute-stage outputs, each perturbing
        one element by ``sdc_amplitude`` times the array rms (the
        compute-side analogue of ``corrupt_rate`` — invisible to wire
        checksums, the ABFT layer's problem to catch)."""
        if not 0 <= corrupt_rate <= 1 or not 0 <= timeout_rate <= 1 \
                or not 0 <= sdc_rate <= 1:
            raise ValueError("rates must be probabilities (in [0, 1])")
        if n_rank_failures < 0 or n_stragglers < 0:
            raise ValueError("fault counts must be non-negative")
        if min_survivors < 0:
            raise ValueError("min_survivors must be non-negative")
        if horizon_messages < 0 or horizon_transfers < 0 or horizon_sdc < 0:
            raise ValueError("horizons must be non-negative")
        if straggler_slowdown < 0:
            raise ValueError("straggler_slowdown must be non-negative")
        rng = np.random.default_rng(seed)
        draws = rng.random(horizon_messages)
        corrupt = {i + 1 for i in range(horizon_messages)
                   if draws[i] < corrupt_rate}
        draws_t = rng.random(horizon_messages)
        timeouts = {i + 1 for i in range(horizon_messages)
                    if draws_t[i] < timeout_rate and (i + 1) not in corrupt}
        n_fail = min(n_rank_failures, max(0, n_ranks - min_survivors))
        failures: dict[int, int] = {}
        if n_fail:
            ranks = rng.choice(n_ranks, size=n_fail, replace=False)
            times = rng.integers(1, max(2, horizon_transfers), size=n_fail)
            failures = {int(r): int(t) for r, t in zip(ranks, times)}
        stragglers: dict[int, float] = {}
        if n_stragglers:
            picks = rng.choice(n_ranks, size=min(n_stragglers, n_ranks),
                               replace=False)
            stragglers = {int(r): float(straggler_slowdown) for r in picks}
        # drawn last so schedules built without SDC keep the exact draw
        # sequence (and traces) of pre-SDC plans with the same arguments
        sdc: dict[int, float] = {}
        if sdc_rate:
            draws_s = rng.random(horizon_sdc)
            sdc = {i + 1: float(sdc_amplitude) for i in range(horizon_sdc)
                   if draws_s[i] < sdc_rate}
        return cls(corrupt_messages=corrupt, timeout_messages=timeouts,
                   rank_failures=failures, stragglers=stragglers,
                   jitter=jitter, seed=seed, sdc_events=sdc)

    @classmethod
    def fail_domain(cls, domains, domain: int, *, at_transfer: int = 1,
                    seed: int = 0, jitter: float = 0.0) -> "FaultPlan":
        """Correlated failure: every rank behind one fault domain dies.

        *domains* is a :class:`~repro.cluster.topology.FaultDomains`
        (derived from the fabric topology); all members of ``domain`` —
        the ranks behind one leaf switch, one torus axis slab — become
        unresponsive at the same collective entry (*at_transfer*), the
        way a switch power loss or an uplink cut actually presents.
        """
        members = domains.members(domain)
        return cls(rank_failures={r: at_transfer for r in members},
                   seed=seed, jitter=jitter)

    @classmethod
    def degrade_links(cls, links, *, bandwidth_factor: float = 1.0,
                      loss_rate: float = 0.0, seed: int = 0) -> "FaultPlan":
        """Uniform degradation over directed *links* ((src, dst) pairs)."""
        deg = LinkDegradation(bandwidth_factor=bandwidth_factor,
                              loss_rate=loss_rate)
        return cls(degraded_links={(s, d): deg for s, d in links},
                   seed=seed)

    # -- runtime interface (driven by the Communicator) ---------------------

    def reset(self) -> None:
        """Zero the runtime counters so the schedule can be replayed."""
        self.messages_seen = 0
        self.transfers_seen = 0
        self.corruptions_injected = 0
        self.timeouts_injected = 0
        self.failed_ranks_declared: list[int] = []
        self.sdc_seen = 0
        self.sdc_injected = 0
        self.sdc_log: list[SdcEvent] = []
        self.losses_injected = 0
        self.flap_timeouts_injected = 0
        self.partition_blocks = 0
        # dedicated stream for per-link loss draws: re-created on reset so
        # a replayed schedule reproduces the same drop sequence
        self._loss_rng = np.random.default_rng((self.seed << 8) ^ 0x10553)

    def begin_transfer(self) -> frozenset[int]:
        """Advance the transfer counter; returns the ranks dead during it."""
        self.transfers_seen += 1
        return frozenset(r for r, t in self.rank_failures.items()
                         if self.transfers_seen >= t)

    # -- correlated link faults (queried per route per attempt) -------------

    def link_fault(self, src: int, dst: int) -> str | None:
        """Fault verdict for one (src, dst) payload of the current transfer.

        Checked in severity order: an active partition blocks every
        cross-component route (``"partitioned"``), a flapping link in
        its off-window times the payload out, and a degraded link drops
        it with its loss rate (a seeded draw).  ``None`` means the link
        carried the payload.
        """
        if self.partition is not None \
                and self.partition.active_at(self.transfers_seen):
            cs = self.partition.component_of(src)
            cd = self.partition.component_of(dst)
            if cs != cd or cs == -1:
                self.partition_blocks += 1
                return "partitioned"
        flap = self.flapping_links.get((src, dst))
        if flap is not None and not flap.up_at(self.transfers_seen):
            self.flap_timeouts_injected += 1
            return "timeout"
        deg = self.degraded_links.get((src, dst))
        if deg is not None and deg.loss_rate > 0.0 \
                and self._loss_rng.random() < deg.loss_rate:
            self.losses_injected += 1
            return "timeout"
        return None

    def link_slowdown(self, links) -> float:
        """Duration multiplier for a collective touching *links*.

        A synchronized collective runs at the pace of its slowest
        member, so the worst degraded link's inverse bandwidth factor
        dictates the attempt duration (1.0 when nothing is degraded).
        """
        if not self.degraded_links:
            return 1.0
        worst = 1.0
        for key in links:
            deg = self.degraded_links.get(key)
            if deg is not None:
                worst = max(worst, 1.0 / deg.bandwidth_factor)
        return worst

    def partition_components(self, ranks) -> tuple[tuple[int, ...], ...]:
        """The census of *ranks* under the (possibly inactive) partition:
        one tuple per component, isolated ranks as singletons."""
        if self.partition is None:
            return (tuple(sorted(ranks)),)
        by_comp: dict[int, list[int]] = {}
        isolated: list[tuple[int, ...]] = []
        for r in sorted(ranks):
            c = self.partition.component_of(r)
            if c < 0:
                isolated.append((r,))
            else:
                by_comp.setdefault(c, []).append(r)
        comps = [tuple(by_comp[c]) for c in sorted(by_comp)]
        return tuple(comps) + tuple(isolated)

    @property
    def has_link_faults(self) -> bool:
        """True if any correlated link behavior is scheduled."""
        return bool(self.degraded_links or self.flapping_links
                    or self.partition is not None)

    def apply(self, payload: np.ndarray) -> tuple[np.ndarray, str | None]:
        """Consume one wire-message slot; returns ``(payload, fault)``.

        ``fault`` is ``None``, ``"timeout"``, or ``"corrupt"`` (in which
        case the returned payload is a tampered copy — a flipped mantissa
        in spirit).  Empty payloads cannot corrupt.
        """
        self.messages_seen += 1
        i = self.messages_seen
        if i in self.timeout_messages:
            self.timeouts_injected += 1
            return payload, "timeout"
        if i in self.corrupt_messages and payload.size:
            bad = payload.copy()
            flat = bad.reshape(-1)
            flat[0] = flat[0] + ((1.0 + 1.0j)
                                 if np.iscomplexobj(bad) else 1.0)
            self.corruptions_injected += 1
            return bad, "corrupt"
        return payload, None

    def apply_sdc(self, data: np.ndarray, *, rank: int = -1,
                  stage: str = "") -> np.ndarray:
        """Consume one compute-output slot; maybe corrupt one element.

        Silent data corruption: the returned array (a tampered copy when
        the schedule fires, *data* itself otherwise) carries a single
        element perturbed by ``amplitude * rms(data)`` at a seeded
        position and phase.  Unlike :meth:`apply`, nothing downstream
        raises — wire checksums verify the corrupted values faithfully,
        so only algorithm-level invariants (:mod:`repro.verify`) can
        notice.  The pipelines call this at every stage-output point
        whether or not verification is enabled; with an empty SDC
        schedule the call is free.
        """
        if not self.sdc_events:
            return data
        self.sdc_seen += 1
        amp = self.sdc_events.get(self.sdc_seen)
        if amp is None or data.size == 0:
            return data
        bad = np.array(data, copy=True)
        flat = bad.reshape(-1)
        rng = np.random.default_rng(
            (self.seed << 20) ^ (self.sdc_seen * 0x9E3779B1))
        k = int(rng.integers(flat.size))
        rms = float(np.sqrt(np.mean(np.abs(flat) ** 2))) or 1.0
        if np.iscomplexobj(bad):
            flat[k] += amp * rms * np.exp(2j * np.pi * rng.random())
        else:
            flat[k] += amp * rms * (1.0 if rng.random() < 0.5 else -1.0)
        self.sdc_injected += 1
        self.sdc_log.append(SdcEvent(index=self.sdc_seen, rank=rank,
                                     stage=stage, element=k,
                                     amplitude=float(amp)))
        return bad

    @property
    def is_clean(self) -> bool:
        """True if the schedule contains no communication faults.

        Compute-side silent corruption is tracked separately (see
        :attr:`has_sdc`): wire checksums neither see nor heal it."""
        return not (self.corrupt_messages or self.timeout_messages
                    or self.rank_failures or self.has_link_faults)

    @property
    def has_sdc(self) -> bool:
        """True if the schedule injects compute-side silent corruption."""
        return bool(self.sdc_events)

    def describe(self) -> str:
        extra = ""
        if self.degraded_links:
            extra += f", degraded_links={len(self.degraded_links)}"
        if self.flapping_links:
            extra += f", flapping_links={len(self.flapping_links)}"
        if self.partition is not None:
            sizes = "+".join(str(len(c))
                             for c in self.partition.components)
            extra += (f", partition={sizes}"
                      f"@t{self.partition.at_transfer}")
        return (f"FaultPlan(seed={self.seed}, "
                f"corrupt={len(self.corrupt_messages)}, "
                f"timeout={len(self.timeout_messages)}, "
                f"rank_failures={dict(sorted(self.rank_failures.items()))}, "
                f"stragglers={len(self.stragglers)}, jitter={self.jitter}, "
                f"sdc={len(self.sdc_events)}{extra})")


@dataclass(frozen=True)
class ProcessFault:
    """One scheduled misbehavior of a real worker process.

    Every fault fires inside the victim worker, at the protocol point
    ``at`` names, so it lands where it is meant to on any host:

    * ``"start"`` — the job has been read whole and unpickled, and the
      program has not run (its progress column still reads -1);
    * an int *k* — the entry of collective *k* (0-based), after the
      progress column reads *k*;
    * ``"result"`` — the program has returned (every ``Checkpoint`` it
      yielded is shipped) and its result slot is not yet written.

    ``kind``:

    * ``"kill"`` — the worker SIGKILLs itself (a crash);
    * ``"stall"`` — the worker SIGSTOPs itself.  *for_s* seconds after
      the parent first sees it stopped, the parent sends SIGCONT; with
      ``for_s=None`` it stays frozen until the heartbeat watchdog
      declares it hung and escalates to SIGKILL;
    * ``"delay"`` — the worker sleeps *for_s* seconds at ``"start"``
      while its heartbeat keeps beating (a starved rank: alive, its
      progress at -1, while its peers block in the first collective).

    ``job`` is the 1-based job sequence number counted from the plan's
    installation; ``rank`` the worker id the fault targets.
    """

    kind: str  # "kill" | "stall" | "delay"
    rank: int
    job: int = 1
    at: int | str = "start"  # "start" | collective index | "result"
    for_s: float | None = None  # stall: SIGCONT delay; delay: the sleep

    def __post_init__(self):
        if self.kind not in ("kill", "stall", "delay"):
            raise ValueError(f"unknown process fault kind {self.kind!r}")
        if self.rank < 0:
            raise ValueError("rank must be a non-negative worker id")
        if self.job < 1:
            raise ValueError("job sequence numbers are 1-based")
        if self.at not in ("start", "result") and not (
                type(self.at) is int and self.at >= 0):
            raise ValueError(f"unknown fault point {self.at!r}: "
                             f"'start', 'result' or a collective index")
        if self.kind == "delay" and self.at != "start":
            raise ValueError("a delay fires only at 'start'")
        if self.kind == "delay" and self.for_s is None:
            raise ValueError("a delay needs its for_s")
        if self.kind == "kill" and self.for_s is not None:
            raise ValueError("a kill has no for_s")
        if self.for_s is not None and self.for_s < 0:
            raise ValueError("for_s must be non-negative")


class ProcessFaultPlan:
    """A deterministic schedule of *process-level* chaos for a real backend.

    The wire-fault :class:`FaultPlan` describes a simulated fabric; this
    plan describes what can actually happen to OS worker processes:
    kill -9, SIGSTOP stalls (with or without a delayed SIGCONT), starved
    ranks, and worker-side silent data corruption (an SDC-only
    :class:`FaultPlan` applied inside the workers).  Each
    :class:`ProcessFault` fires in its victim at a protocol point
    (``at``), never on a parent-side wall-clock timer.  Install it with
    :meth:`repro.cluster.backends.ProcessBackend.inject`; faults fire on
    the *job*-th run() after installation.

    The schedule is immutable; ``injected`` counts fired faults by kind
    at runtime (:meth:`reset` re-arms the plan).
    """

    def __init__(self, faults=(), *, sdc: FaultPlan | None = None,
                 seed: int = 0):
        self.faults = tuple(faults)
        if any(not isinstance(f, ProcessFault) for f in self.faults):
            raise TypeError("faults must be ProcessFault instances")
        if sdc is not None and not sdc.is_clean:
            raise ValueError("the embedded FaultPlan must be SDC-only: "
                             "wire faults belong to the simulator")
        self.sdc = sdc
        self.seed = int(seed)
        self.reset()

    @classmethod
    def random(cls, seed: int, n_ranks: int, *, n_kills: int = 0,
               n_stalls: int = 0, n_delays: int = 0,
               max_collective: int = 2, min_survivors: int = 1,
               stall_for_s: float | None = 0.5,
               delay_s: float = 0.25, jobs: int = 1,
               sdc_rate: float = 0.0,
               sdc_amplitude: float = 1.0) -> "ProcessFaultPlan":
        """Draw a seeded schedule over distinct victim ranks.

        Victims are drawn without replacement so at least
        *min_survivors* ranks never get a kill/stall; each kill/stall
        lands on a uniform job in ``1..jobs`` and a uniform collective
        entry in ``0..max_collective`` (a stall resumes after
        *stall_for_s*), each delay on a uniform rank and job, sleeping
        *delay_s* at ``"start"``.
        """
        rng = np.random.default_rng(seed)
        n_lethal = min(n_kills + n_stalls,
                       max(0, n_ranks - min_survivors))
        n_kills = min(n_kills, n_lethal)
        n_stalls = min(n_stalls, n_lethal - n_kills)
        victims = list(rng.choice(n_ranks, size=n_lethal, replace=False))
        faults = []
        for i in range(n_kills + n_stalls):
            kind = "kill" if i < n_kills else "stall"
            faults.append(ProcessFault(
                kind=kind, rank=int(victims[i]),
                job=int(rng.integers(1, jobs + 1)),
                at=int(rng.integers(0, max_collective + 1)),
                for_s=(stall_for_s if kind == "stall" else None)))
        for _ in range(n_delays):
            faults.append(ProcessFault(
                kind="delay", rank=int(rng.integers(n_ranks)),
                job=int(rng.integers(1, jobs + 1)), for_s=delay_s))
        sdc = None
        if sdc_rate:
            sdc = FaultPlan.random(seed, n_ranks, sdc_rate=sdc_rate,
                                   sdc_amplitude=sdc_amplitude)
        return cls(faults, sdc=sdc, seed=seed)

    # -- runtime interface (driven by ProcessBackend) -----------------------

    def reset(self) -> None:
        """Zero the runtime counters so the schedule can be replayed."""
        self.jobs_seen = 0
        self.injected: dict[str, int] = {}

    def next_job(self) -> tuple[ProcessFault, ...]:
        """Advance the job counter; faults scheduled for this job."""
        self.jobs_seen += 1
        return self.actions_for(self.jobs_seen)

    def actions_for(self, job_seq: int) -> tuple[ProcessFault, ...]:
        """Faults scheduled for the *job_seq*-th job since installation."""
        return tuple(f for f in self.faults if f.job == job_seq)

    def note_injected(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    @property
    def has_sdc(self) -> bool:
        return self.sdc is not None and self.sdc.has_sdc

    def describe(self) -> str:
        by_kind: dict[str, int] = {}
        for f in self.faults:
            by_kind[f.kind] = by_kind.get(f.kind, 0) + 1
        parts = ", ".join(f"{k}={v}" for k, v in sorted(by_kind.items()))
        return (f"ProcessFaultPlan(seed={self.seed}, {parts or 'clean'}, "
                f"sdc={len(self.sdc.sdc_events) if self.sdc else 0})")


def chaos_cluster(cluster, plan: FaultPlan,
                  policy: RetryPolicy | None = None):
    """Arm a cluster with one unified fault schedule.

    Installs the plan (and retry *policy*) on the communicator — every
    collective then runs through the checksummed, retrying path — and, if
    the plan carries compute noise, wraps the cluster's compute charges in
    a seeded :class:`~repro.cluster.noise.NoiseModel`.  Returns the same
    cluster object.
    """
    cluster.comm.install_faults(plan, policy)
    if plan.jitter or plan.stragglers:
        from repro.cluster.noise import NoiseModel, noisy_cluster

        noisy_cluster(cluster, NoiseModel(jitter=plan.jitter,
                                          stragglers=plan.stragglers,
                                          seed=plan.seed))
    return cluster
