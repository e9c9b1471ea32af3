"""Formal specifications of the eight target systems (§3.1, §4.2).

``repro.specs.network`` provides the reusable TCP/UDP network modules and
``ClusterSpec``, the cluster environment every system spec subclasses;
``repro.specs.raft`` the seven Raft-family system specs; and
``repro.specs.zab`` the ZooKeeper/ZAB system spec.
"""

from .network import ClusterSpec, TcpModel, UdpModel, bipartitions
from .raft import (
    DaosRaftSpec,
    PySyncObjSpec,
    RaftConfig,
    RaftOSSpec,
    RaftSpec,
    RedisRaftSpec,
    WRaftSpec,
    XraftKVSpec,
    XraftSpec,
)

__all__ = [
    "ClusterSpec",
    "DaosRaftSpec",
    "PySyncObjSpec",
    "RaftConfig",
    "RaftOSSpec",
    "RaftSpec",
    "RedisRaftSpec",
    "TcpModel",
    "UdpModel",
    "WRaftSpec",
    "XraftKVSpec",
    "XraftSpec",
    "bipartitions",
]
