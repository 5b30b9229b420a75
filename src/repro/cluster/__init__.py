"""Simulated-cluster substrate: transports, communicator, clocks, schedules."""

from repro.cluster.backends import (
    ExecutionBackend,
    ProcessBackend,
    SimulatedBackend,
    WorkerFailure,
)
from repro.cluster.collectives import (
    alltoall_bruck,
    alltoall_pairwise,
    bruck_time,
    pairwise_time,
    recommend_algorithm,
)
from repro.cluster.communicator import Communicator
from repro.cluster.faults import (
    CollectiveFailure,
    CorruptionDetected,
    FaultPlan,
    FlappingLink,
    LinkDegradation,
    PartitionDetected,
    PartitionEvent,
    ProcessFault,
    ProcessFaultPlan,
    RankFailed,
    RetriesExhausted,
    RetryPolicy,
    chaos_cluster,
    checksum,
)
from repro.cluster.gantt import gantt_from_schedule, gantt_from_trace
from repro.cluster.mpi_compat import LoopbackComm, MpiCommunicator
from repro.cluster.noise import NoiseModel, expected_bsp_slowdown, noisy_cluster
from repro.cluster.replay import OverlapReplay, replay_with_overlap
from repro.cluster.network import FDR_INFINIBAND, STAMPEDE_EFFECTIVE, NetworkSpec
from repro.cluster.pcie import PCIE_GEN2_X16, PcieSpec, pipeline_makespan
from repro.cluster.proxy import ReverseProxy
from repro.cluster.schedule import Schedule, ScheduledTask, Task
from repro.cluster.shm import (
    ShmArena,
    ShmJanitor,
    ShmPool,
    ShmView,
    list_segments,
    unlink_segment,
)
from repro.cluster.simcluster import SimCluster
from repro.cluster.spmd import (
    AllToAll,
    Barrier,
    Bcast,
    Compute,
    RankContext,
    SendRecvRing,
    SpmdError,
    run_spmd,
)
from repro.cluster.topology import (
    FatTree,
    FaultDomains,
    Torus,
    alltoall_contention,
)
from repro.cluster.trace import CATEGORIES, Event, Trace

__all__ = [
    "AllToAll",
    "Barrier",
    "Bcast",
    "CATEGORIES",
    "CollectiveFailure",
    "Communicator",
    "Compute",
    "CorruptionDetected",
    "ExecutionBackend",
    "FaultDomains",
    "FaultPlan",
    "FlappingLink",
    "LinkDegradation",
    "PartitionDetected",
    "PartitionEvent",
    "ProcessBackend",
    "ProcessFault",
    "ProcessFaultPlan",
    "RankFailed",
    "RetriesExhausted",
    "RetryPolicy",
    "ShmJanitor",
    "ShmArena",
    "ShmPool",
    "ShmView",
    "SimulatedBackend",
    "SpmdError",
    "WorkerFailure",
    "chaos_cluster",
    "checksum",
    "RankContext",
    "SendRecvRing",
    "alltoall_bruck",
    "alltoall_pairwise",
    "bruck_time",
    "pairwise_time",
    "recommend_algorithm",
    "run_spmd",
    "list_segments",
    "unlink_segment",
    "Event",
    "FDR_INFINIBAND",
    "FatTree",
    "LoopbackComm",
    "MpiCommunicator",
    "NetworkSpec",
    "NoiseModel",
    "OverlapReplay",
    "expected_bsp_slowdown",
    "gantt_from_schedule",
    "gantt_from_trace",
    "noisy_cluster",
    "replay_with_overlap",
    "PCIE_GEN2_X16",
    "PcieSpec",
    "ReverseProxy",
    "STAMPEDE_EFFECTIVE",
    "Schedule",
    "ScheduledTask",
    "SimCluster",
    "Task",
    "Torus",
    "Trace",
    "alltoall_contention",
    "pipeline_makespan",
]
