"""Model calibration constants, each with its provenance in the paper.

Every quantitative parameter of the performance model lives here, in one
frozen dataclass, so that (a) experiments are reproducible, (b) reviewers
can audit each constant against the paper measurement it derives from, and
(c) ablation studies can perturb a copy (`dataclasses.replace`) without
touching global state.

Derivation notes
----------------
The paper's Figure 4 is the quantitative anchor for per-byte CPU costs.
At a steady 39 Gbps (= 4.875 GB/s payload each way) over one 40 Gbps RoCE
link:

* RDMA/RFTP: 122% total CPU; user-space protocol processing 56%
  (both ends combined), data copies 0% (zero-copy), data *loading* from
  ``/dev/zero`` about 70% of one core, offload to ``/dev/null`` < 1%.
* TCP/iperf: 642% total CPU; kernel protocol processing 311%, user<->kernel
  copies 213% (both ends combined), same ~70% loading cost.

From these:

* ``dev_zero_fill_rate`` = 4.875 GB/s / 0.70 cores ≈ 7.0 GB/s per core.
* ``tcp_kernel_rate``    = 4.875 / (3.11 / 2)  ≈ 3.1 GB/s per core per end.
* ``memcpy_rate_local``  = 4.875 / (2.13 / 2)  ≈ 4.6 GB/s per core per copy.
* ``rdma_proto_rate``    = 4.875 / (0.56 / 2)  ≈ 17.4 GB/s per core per end.
* ``tcp_user_rate``      : residual 642-311-213-2*70 ≈ -22% ≈ 0; iperf's
  user-space loop is nearly free → use 40 GB/s/core (≈12% per end at 39G).

The §2.3 motivating experiment anchors the memory system: STREAM Triad
measures 50 GB/s across the two NUMA nodes (25 GB/s per node), and NUMA
binding lifts bi-directional iperf from 83.5 to 91.8 Gbps.

Section 4.2 (Figs. 7/8) anchors NUMA/coherence asymmetry: +7.6% bandwidth
for reads and +19% for writes (>4 MiB blocks) under binding, with 3x CPU
savings on writes; and read service ≈7.5% faster than write service
(RDMA WRITE vs RDMA READ data movement).

Section 4.3 (Fig. 9) anchors end-to-end: fio-measured narrowest stage is
the file-write path at 94.8 Gbps; RFTP reaches 91 Gbps (96%), GridFTP
29 Gbps (30%).

Section 4.4 (Figs. 13/14) anchors WAN behaviour: 97% of the raw 40 Gbps
with large blocks over a 95 ms RTT path; per-block control-message
overhead shrinking with block size.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.util.units import MIB, gbps

__all__ = ["Calibration", "CALIBRATION", "TrackingCalibration",
           "tracking_calibration"]


@dataclass(frozen=True)
class Calibration:
    """All model constants (rates in bytes/second unless noted)."""

    # ------------------------------------------------------------------ memory
    #: Raw memory-system bandwidth per NUMA node.  STREAM Triad *reports*
    #: 50 GB/s over two nodes (§2.3), but Triad counts 3 accesses per
    #: iteration while write-allocate makes the hardware move 4 — so the
    #: raw per-node capacity is 25 * 4/3 ≈ 33.3 GB/s, against which this
    #: library's traffic factors (which do count write-allocate) are charged.
    mem_bandwidth_per_node: float = 33.3e9
    #: What STREAM Triad reports for the whole machine (anchor for
    #: :mod:`repro.apps.streambench`).
    stream_triad_total: float = 50e9
    #: Inter-socket (QPI) bandwidth per direction (two 8 GT/s QPI links
    #: minus snoop/control traffic; calibrated so the default-policy
    #: penalties land on Fig. 7's +7.6%/+19% gains).
    qpi_bandwidth: float = 11.5e9
    #: Extra memory-system traffic per byte *copied* (read + write-allocate
    #: + writeback ≈ 3 line crossings per byte; Drepper 2007).
    copy_traffic_factor: float = 3.0
    #: Traffic per byte for a plain read or DMA touch.
    touch_traffic_factor: float = 1.0
    #: Fraction of memory accesses landing remote under the default
    #: (NUMA-oblivious) scheduling/allocation policy on a 2-node machine.
    default_remote_fraction: float = 0.5
    #: Effective throughput derating for remote (cross-QPI) accesses.
    remote_access_derate: float = 0.75
    #: Remote accesses also occupy the *bank* longer (open-page misses,
    #: directory lookups): bank weight is inflated by 1/this for remote
    #: streams.
    remote_bank_derate: float = 0.75
    #: Fraction of execution time a default-policy thread spends on its
    #: "home" node once Linux NUMA balancing settles (threads are not
    #: bounced uniformly; they drift).  Used by the BIASED policy that
    #: models untuned-but-long-running processes like iperf's.
    numa_balancing_home_fraction: float = 0.7

    # ---------------------------------------------------- TCP copy traffic
    #: Memory traffic per byte on the *read* side of a TCP user<->kernel
    #: copy.  Kernel socket buffers are cache-cold (allocated per-packet),
    #: so copies miss more than a streaming memcpy: 1.6 vs the ideal 1.0.
    tcp_copy_read_traffic: float = 1.6
    #: Traffic on the *write* side (write-allocate + eviction writeback
    #: under cache pressure): 3.2 vs the streaming 2.0.  Together these
    #: place the tuned bi-directional iperf ceiling at the paper's
    #: 91.8 Gbps (§2.3).
    tcp_copy_write_traffic: float = 3.2

    # ------------------------------------------------------ cache coherence
    #: CPU cost (core-seconds per byte) of invalidating remotely shared
    #: cache lines on writes (drives Fig. 7/8 write-side NUMA gain).
    coherence_invalidate_cpu_per_byte: float = 1.0 / 0.65e9
    #: Additional interconnect traffic per byte written to pages with
    #: remote sharers (invalidation + ownership transfers).
    coherence_traffic_factor: float = 0.75
    #: Same-node invalidation cost (cheap: on-die snoop).
    coherence_local_cpu_per_byte: float = 1.0 / 20.0e9

    # --------------------------------------------------------------- CPU rates
    #: Zero-filling a user buffer from /dev/zero (Fig. 4: ~70% @ 39 Gbps).
    dev_zero_fill_rate: float = 7.0e9
    #: Kernel TCP/IP protocol processing, per end (Fig. 4: 311%/2 @ 39G).
    tcp_kernel_rate: float = 3.1e9
    #: One user<->kernel copy, local NUMA (Fig. 4: 213%/2 @ 39G).
    memcpy_rate_local: float = 4.6e9
    #: Same copy when source/destination is on the remote node.
    memcpy_rate_remote: float = 2.9e9
    #: RFTP/RDMA user-space protocol processing per end (Fig. 4: 56%/2).
    rdma_proto_rate: float = 17.4e9
    #: iperf-style user-space loop cost per end.
    tcp_user_rate: float = 40.0e9
    #: iSER/SCSI target processing per byte (request handling, tags).
    iser_target_rate: float = 30.0e9
    #: Interrupt/softirq handling per byte of TCP traffic (coalesced).
    tcp_interrupt_rate: float = 12.0e9

    # ------------------------------------------------------------ per-op costs
    #: Fixed CPU cost per RFTP block (descriptor + credit message), per end.
    rftp_per_block_cpu: float = 18e-6
    #: Fixed wire cost (bytes) per RFTP control round-trip per block.
    rftp_ctrl_bytes_per_block: float = 512.0
    #: Fixed CPU cost per SCSI command at the target.
    scsi_per_cmd_cpu: float = 12e-6
    #: Fixed CPU cost per SCSI command at the initiator.
    scsi_initiator_per_cmd_cpu: float = 8e-6
    #: Latency of an RDMA work-request post + completion (per op).
    rdma_op_latency: float = 4e-6
    #: RDMA READ adds a request round-trip before data flows.
    rdma_read_extra_latency: float = 6e-6

    # ------------------------------------------------------------------- links
    #: RoCE QDR line rate (paper front-end: 3 x 40 Gbps).
    roce_line_rate: float = gbps(40.0)
    #: InfiniBand FDR line rate (paper back-end: 2 x 56 Gbps).
    ib_fdr_line_rate: float = gbps(56.0)
    #: 64/66 encoding + headers: fraction of line rate available to L4.
    ib_encoding_efficiency: float = 0.9685  # 64/66 * header factor
    #: RoCE payload efficiency at MTU 9000 (Ethernet+IP+UDP+IB headers).
    roce_mtu9000_efficiency: float = 0.988
    #: RoCE payload efficiency at MTU 1500.
    roce_mtu1500_efficiency: float = 0.942
    #: Relative throughput of RDMA READ vs RDMA WRITE data movement
    #: (paper §4.2: read-requests ≈7.5% faster than write-requests).
    rdma_read_throughput_derate: float = 0.93
    #: PCIe Gen3 x8 effective bandwidth per slot, per direction (TLP
    #: overhead included; Mellanox FDR HCAs measure ~6.0-6.3 GB/s).
    pcie_gen3_x8_bandwidth: float = 6.2e9

    # ----------------------------------------------------------------- storage
    #: tmpfs page-touch rate per target worker thread (memory-speed).
    tmpfs_thread_rate: float = 6.0e9
    #: SSD (Fusion-IO class) burst bandwidth.
    ssd_burst_bandwidth: float = 1.4e9
    #: SSD bandwidth once thermal throttling engages (§4.1: ~500 MB/s).
    ssd_throttled_bandwidth: float = 0.5e9
    #: Bytes of sustained I/O before thermal throttling begins (§4.1:
    #: "100 gigabytes data or more continuously").
    ssd_thermal_budget_bytes: float = 100e9
    #: Seconds of idleness to dissipate heat back below the throttle point.
    ssd_cooldown_seconds: float = 120.0

    # -------------------------------------------------------------- filesystems
    #: Page-cache copy penalty applies to non-direct I/O (extra memcpy).
    pagecache_copy_rate: float = 4.6e9
    #: XFS per-I/O allocation overhead (allocation groups allow parallelism).
    xfs_per_io_cpu: float = 6e-6
    #: ext4 per-I/O overhead (single journal, more serialization).
    ext4_per_io_cpu: float = 10e-6
    #: Filesystem concurrency: XFS allocation groups (parallel I/O paths).
    xfs_allocation_groups: int = 8
    #: ext4 effective concurrent I/O streams (journal serialization).
    ext4_concurrency: int = 2

    # -------------------------------------------------------------------- TCP
    #: cubic scaling constant C (RFC 8312), in window-segments/sec^3.
    cubic_c: float = 0.4
    #: cubic beta (multiplicative decrease).
    cubic_beta: float = 0.7
    #: initial congestion window in bytes.
    tcp_init_cwnd_bytes: float = 10 * 1460.0
    #: socket buffer limit (paper hosts tuned for WAN): 512 MiB.
    tcp_max_window_bytes: float = 512 * MIB

    # --------------------------------------------------------------------- RFTP
    #: RFTP credit tokens per stream (outstanding blocks).
    rftp_credits_per_stream: int = 16
    #: RFTP maximum worker threads per host.
    rftp_max_threads: int = 8

    # ----------------------------------------------------------- GridFTP model
    #: GridFTP data-mover processes used in the paper's comparison runs
    #: (globus-url-copy -p: two movers per RoCE link).
    gridftp_processes: int = 6
    #: Disk/network phase alternation leaves the link idle while the single
    #: thread performs blocking I/O (paper §4.3, reason two).
    gridftp_io_block_bytes: float = 4 * MIB

    def derived_ib_data_rate(self) -> float:
        """Usable per-link data rate of IB FDR after encoding/headers."""
        return self.ib_fdr_line_rate * self.ib_encoding_efficiency

    def derived_roce_data_rate(self, mtu: int = 9000) -> float:
        """Usable per-link data rate of RoCE QDR at the given MTU."""
        eff = (
            self.roce_mtu9000_efficiency
            if mtu >= 9000
            else self.roce_mtu1500_efficiency
        )
        return self.roce_line_rate * eff

    def replace(self, **kwargs) -> "Calibration":
        """A copy with some constants overridden (for ablations)."""
        return dataclasses.replace(self, **kwargs)


#: The library-wide default calibration (the paper's testbed).
CALIBRATION = Calibration()

#: Every constant's field name (the tracking subclass intercepts these).
_FIELD_NAMES = frozenset(f.name for f in dataclasses.fields(Calibration))


class TrackingCalibration(Calibration):
    """A :class:`Calibration` that records which constants are read.

    Used by the sensitivity grid's projection memo
    (:func:`repro.core.sensitivity.run_projected`) to learn the exact
    read-set of one scenario evaluation: any simulation whose
    calibration agrees on every *recorded* field is guaranteed to take
    the identical execution path, so its result can be shared without
    re-running.  Values are bit-identical to the wrapped calibration —
    only attribute lookup is intercepted — so a run under tracking is
    byte-equal to a run without it.

    Copies made via ``replace``/``dataclasses.replace``/``asdict`` read
    every field of the source, which conservatively marks the whole
    calibration as read; the copy itself is untracked, which is then
    harmless (nothing finer-grained than "everything" remains to learn).
    """

    def __getattribute__(self, name: str):
        if name in _FIELD_NAMES:
            sink = object.__getattribute__(self, "__dict__").get("_gang_reads")
            if sink is not None:
                sink.add(name)
        return object.__getattribute__(self, name)


def tracking_calibration(cal: Calibration, sink: set) -> TrackingCalibration:
    """A tracked copy of *cal* recording every constant read into *sink*."""
    tracked = TrackingCalibration(
        **{name: object.__getattribute__(cal, name) for name in _FIELD_NAMES}
    )
    object.__setattr__(tracked, "_gang_reads", sink)
    return tracked
