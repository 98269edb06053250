"""Ablation A4: RDMA WRITE vs RDMA READ throughput (§4.2).

"the bandwidth performance of serving read requests [...] is slightly
better by 7.5% than that of serving write requests [...] the better
performance of RDMA Write (used by read requests) than RDMA Read (used
by write requests)."
"""

from __future__ import annotations

from repro.core.calibration import Calibration
from repro.core.report import ExperimentReport
from repro.exec import SimTask, run_tasks
from repro.hw.nic import Nic, NicKind
from repro.hw.topology import Machine
from repro.kernel.numa import NumaPolicy
from repro.kernel.pages import place_region
from repro.net.link import connect
from repro.rdma.cm import ConnectionManager
from repro.rdma.mr import ProtectionDomain
from repro.rdma.verbs import Opcode
from repro.sim.context import Context
from repro.util.units import GIB, to_gbps

__all__ = ["run", "plan", "assemble", "measure_leg"]

PAPER_RATIO = 1.075


def measure_leg(*, seed: int, cal: Calibration | None, opcode: str) -> float:
    """One bulk-channel throughput measurement (SimTask target)."""
    ctx = Context.create(seed=seed, cal=cal)
    a = Machine(ctx, "a", pcie_sockets=(0,))
    b = Machine(ctx, "b", pcie_sockets=(0,))
    na = Nic(a, a.pcie_slots[0], NicKind.IB_FDR, mtu=65520)
    nb = Nic(b, b.pcie_slots[0], NicKind.IB_FDR, mtu=65520)
    connect(na, nb, delay=72e-6)
    qp_a, qp_b, hs = ConnectionManager(ctx).connect_pair(na, nb, name="ab")
    ctx.sim.run(until=hs)
    pd_a, pd_b = ProtectionDomain(a), ProtectionDomain(b)
    src = pd_a.register(place_region(1 * GIB, NumaPolicy.bind(0), 2))
    dst = pd_b.register(place_region(1 * GIB, NumaPolicy.bind(0), 2))
    flow = qp_a.bulk_channel(src_mr=src, dst_mr=dst, opcode=Opcode[opcode],
                             name="bulk")
    ctx.fluid.start(flow)
    ctx.sim.run(until=ctx.sim.now + 10.0)
    ctx.fluid.settle()
    rate = flow.transferred / 10.0
    ctx.fluid.stop(flow)
    return rate


def plan(quick: bool = True, seed: int = 0, cal: Calibration | None = None
        ) -> list[SimTask]:
    """The two opcode measurements as independent legs."""
    target = "repro.core.experiments.ablation_rdma_ops:measure_leg"
    return [
        SimTask(target, {"opcode": "RDMA_WRITE"}, seed=seed, cal=cal,
                label="A4 RDMA WRITE"),
        SimTask(target, {"opcode": "RDMA_READ"}, seed=seed + 1, cal=cal,
                label="A4 RDMA READ"),
    ]


def assemble(results, quick: bool = True, seed: int = 0,
             cal: Calibration | None = None) -> ExperimentReport:
    """Build the paper-vs-measured report from the two legs' rates."""
    write_rate, read_rate = results
    report = ExperimentReport(
        "ablation-rdma-ops",
        "A4: one-sided RDMA WRITE vs RDMA READ bulk throughput (IB FDR)",
        data_headers=["opcode", "Gbps"],
    )
    report.add_row(["RDMA WRITE", round(to_gbps(write_rate), 2)])
    report.add_row(["RDMA READ", round(to_gbps(read_rate), 2)])
    ratio = write_rate / read_rate
    report.add_check("WRITE/READ throughput ratio", f"{PAPER_RATIO:.3f}x",
                     f"{ratio:.3f}x", ok=1.03 < ratio < 1.12)
    return report


def run(quick: bool = True, seed: int = 0, cal: Calibration | None = None
        ) -> ExperimentReport:
    """Run the experiment; returns the paper-vs-measured report."""
    results = run_tasks(plan(quick=quick, seed=seed, cal=cal))
    return assemble(results, quick=quick, seed=seed, cal=cal)
