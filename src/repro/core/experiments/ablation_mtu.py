"""Ablation A7 (extension): jumbo frames matter more for TCP than RDMA.

Table 1 shows the testbed ran MTU 9000 on the RoCE links.  This ablation
quantifies why: at MTU 1500 the wire loses a few percent of framing
efficiency for *everyone*, but TCP additionally pays ~6x the per-packet
kernel work — so iperf collapses while RFTP merely dips.
"""

from __future__ import annotations

from repro.apps.iperf import run_iperf
from repro.apps.rftp.transfer import RftpConfig, RftpTransfer
from repro.core.calibration import Calibration
from repro.core.report import ExperimentReport
from repro.exec import SimTask, run_tasks
from repro.hw.nic import Nic, NicKind
from repro.hw.topology import Machine
from repro.net.link import connect
from repro.net.topology import LAN_ROCE_DELAY
from repro.sim.context import Context
from repro.util.units import to_gbps

__all__ = ["run", "plan", "assemble", "rftp_leg", "iperf_leg"]


def _pair(ctx: Context, mtu: int):
    a = Machine(ctx, "a", pcie_sockets=(0,))
    b = Machine(ctx, "b", pcie_sockets=(0,))
    na = Nic(a, a.pcie_slots[0], NicKind.ROCE_QDR, mtu=mtu)
    nb = Nic(b, b.pcie_slots[0], NicKind.ROCE_QDR, mtu=mtu)
    connect(na, nb, delay=LAN_ROCE_DELAY)
    return a, b


def rftp_leg(*, seed: int, cal: Calibration | None, mtu: int,
             duration: float) -> float:
    """RFTP goodput over one RoCE link at *mtu* (SimTask target)."""
    ctx = Context.create(seed=seed, cal=cal)
    a, b = _pair(ctx, mtu)
    res = RftpTransfer(ctx, a, b, source="zero", sink="null",
                       config=RftpConfig(streams_per_link=2)).run(duration)
    return res.goodput


def iperf_leg(*, seed: int, cal: Calibration | None, mtu: int,
              duration: float) -> tuple[float, float]:
    """iperf ``(aggregate_rate, aggregate_gbps)`` at *mtu* (SimTask target)."""
    ctx = Context.create(seed=seed, cal=cal)
    a, b = _pair(ctx, mtu)
    ires = run_iperf(ctx, a, b, duration=duration, streams_per_link=4,
                     bidirectional=False, numa_tuned=True)
    return ires.aggregate_rate, ires.aggregate_gbps


def plan(quick: bool = True, seed: int = 0, cal: Calibration | None = None
        ) -> list[SimTask]:
    """Both tools at both MTUs: four independent legs."""
    duration = 15.0 if quick else 120.0
    module = "repro.core.experiments.ablation_mtu"
    tasks = []
    for mtu in (1500, 9000):
        tasks.append(SimTask(
            f"{module}:rftp_leg", {"mtu": mtu, "duration": duration},
            seed=seed, cal=cal, label=f"A7 RFTP mtu={mtu}"))
        tasks.append(SimTask(
            f"{module}:iperf_leg", {"mtu": mtu, "duration": duration},
            seed=seed + 1, cal=cal, label=f"A7 iperf mtu={mtu}"))
    return tasks


def assemble(results, quick: bool = True, seed: int = 0,
             cal: Calibration | None = None) -> ExperimentReport:
    """Build the paper-vs-measured report from the four legs' rates."""
    report = ExperimentReport(
        "ablation-mtu",
        "A7 (extension): MTU 1500 vs 9000 on one 40G RoCE link, "
        "RFTP vs iperf",
        data_headers=["tool", "MTU", "Gbps"],
    )
    rates = {}
    it = iter(results)
    for mtu in (1500, 9000):
        goodput = next(it)
        rates[("rftp", mtu)] = goodput
        report.add_row(["RFTP", mtu, round(to_gbps(goodput), 1)])
        aggregate_rate, aggregate_gbps = next(it)
        rates[("tcp", mtu)] = aggregate_rate
        report.add_row(["iperf/TCP", mtu, round(aggregate_gbps, 1)])

    rftp_penalty = 1.0 - rates[("rftp", 1500)] / rates[("rftp", 9000)]
    tcp_penalty = 1.0 - rates[("tcp", 1500)] / rates[("tcp", 9000)]
    report.add_check("RFTP penalty at MTU 1500", "framing only (~5%)",
                     f"{rftp_penalty:.1%}", ok=rftp_penalty < 0.10)
    report.add_check("TCP penalty at MTU 1500", "large (per-packet work)",
                     f"{tcp_penalty:.1%}", ok=tcp_penalty > 0.25)
    report.add_check("TCP suffers more than RFTP", "yes",
                     "yes" if tcp_penalty > rftp_penalty else "no",
                     ok=tcp_penalty > rftp_penalty)
    return report


def run(quick: bool = True, seed: int = 0, cal: Calibration | None = None
        ) -> ExperimentReport:
    """Run the experiment; returns the paper-vs-measured report."""
    results = run_tasks(plan(quick=quick, seed=seed, cal=cal))
    return assemble(results, quick=quick, seed=seed, cal=cal)
