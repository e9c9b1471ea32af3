"""Table 1: integrated systems and formal specification metrics.

The paper reports, per system, the modeled implementation LoC, the spec
LoC, and the number of variables / actions / safety properties.  Here the
same metrics are measured from this reproduction's modules; the paper's
numbers are printed alongside for comparison.
"""

import inspect
import pathlib

import repro.specs.network
import repro.specs.raft.base
import repro.specs.zab
from repro.specs.raft import (
    DaosRaftSpec,
    PySyncObjSpec,
    RaftConfig,
    RaftOSSpec,
    RedisRaftSpec,
    WRaftSpec,
    XraftKVSpec,
    XraftSpec,
)
from repro.specs.zab import ZabConfig, ZabSpec
from repro.systems import SYSTEMS

from conftest import fmt_row

#: Table 1 as printed in the paper: (impl LoC, spec LoC, #Var, #Act, #Inv)
PAPER = {
    "pysyncobj": (4600, 490, 12, 9, 13),
    "wraft": (3400, 879, 14, 15, 13),
    "redisraft": (5300, 600, 14, 9, 15),
    "daosraft": (3500, 584, 13, 9, 14),
    "raftos": (1300, 610, 12, 9, 13),
    "xraft": (6700, 605, 14, 11, 15),
    "xraft-kv": (7900, 618, 18, 10, 18),
    "zookeeper": (11800, 2037, 39, 20, 15),
}

SPECS = {
    "pysyncobj": PySyncObjSpec,
    "wraft": WRaftSpec,
    "redisraft": RedisRaftSpec,
    "daosraft": DaosRaftSpec,
    "raftos": RaftOSSpec,
    "xraft": XraftSpec,
    "xraft-kv": XraftKVSpec,
    "zookeeper": ZabSpec,
}


def count_loc(module) -> int:
    path = pathlib.Path(inspect.getfile(module))
    return sum(
        1
        for line in path.read_text().splitlines()
        if line.strip() and not line.strip().startswith("#")
    )


def make_spec(name):
    if name == "zookeeper":
        return ZabSpec(ZabConfig())
    return SPECS[name](RaftConfig())


def spec_loc(name) -> int:
    import sys

    spec_cls = SPECS[name]
    # All eight systems share the cluster environment and the Raft
    # variants the Raft base module; attribute each a proportional slice.
    own = count_loc(sys.modules[spec_cls.__module__]) + count_loc(repro.specs.network) // 8
    if name == "zookeeper":
        return own
    return own + count_loc(repro.specs.raft.base) // 7


def impl_loc(name) -> int:
    import sys

    node_cls = SYSTEMS[name]
    own = count_loc(sys.modules[node_cls.__module__])
    if name == "zookeeper":
        return own
    import repro.systems.raft_common

    return own + count_loc(repro.systems.raft_common) // 7


def build_rows():
    widths = (10, 9, 9, 5, 5, 5, 30)
    lines = [
        fmt_row(
            ("system", "impl-LoC", "spec-LoC", "#Var", "#Act", "#Inv", "paper (LoC/Var/Act/Inv)"),
            widths,
        )
    ]
    for name in SPECS:
        spec = make_spec(name)
        info = spec.describe()
        paper = PAPER[name]
        lines.append(
            fmt_row(
                (
                    name,
                    impl_loc(name),
                    spec_loc(name),
                    info["variables"],
                    info["actions"],
                    info["invariants"],
                    f"{paper[1]}/{paper[2]}/{paper[3]}/{paper[4]}",
                ),
                widths,
            )
        )
    return lines


def test_table1_inventory(benchmark, emit):
    lines = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    emit("table1_inventory", lines)
    # Shape check: every system has a non-trivial spec.
    for name in SPECS:
        info = make_spec(name).describe()
        assert info["variables"] >= 10
        assert info["actions"] >= 7
        assert info["invariants"] >= 2
