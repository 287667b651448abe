//! The host NVMe driver: the software initiator the baseline designs use.
//!
//! Speaks the same queues/doorbells/MSIs as the HDC Engine's NVMe
//! controller, but every step costs CPU time: submit-side kernel work
//! (syscall, VFS, block mapping, driver submit), then the interrupt and
//! completion path when the drive raises its MSI. Completion reports carry
//! a per-category latency breakdown so Figure 11-style plots can be
//! assembled from real measurements.
//!
//! While a [`dcs_sim::FaultPlan`] is installed the driver also runs the
//! kernel's error path: a retryable completion status (media error)
//! resubmits just that MDTS chunk under a fresh CID within a bounded
//! budget, and a per-request timeout polls the completion queue directly
//! — recovering lost MSIs — before surfacing a clean error completion.
//! Without a plan none of these timers are armed and the event stream is
//! identical to the fault-free simulator.

use std::collections::BTreeMap;

use dcs_nvme::{
    AttachQueuePair, CompletionQueueReader, NvmeCommand, NvmeCompletion, NvmeHandle, NvmeOpcode,
    NvmeStatus, PrpList, SubmissionQueueWriter, LBA_SIZE,
};
use dcs_pcie::{AddrRange, MmioWrite, MsiDelivery, PhysAddr, PhysMemory};
use dcs_sim::{fault, Breakdown, Category, Component, ComponentId, Ctx, Msg, SimTime};

use crate::costs::{KernelCosts, KernelMode};
use crate::cpu::{CpuJob, CpuJobDone};

/// Read or write.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockOp {
    /// Read from flash into the buffer.
    Read,
    /// Write the buffer to flash.
    Write,
}

/// A block I/O request against the driver.
#[derive(Debug, Clone)]
pub struct BlockRequest {
    /// Requester-chosen identifier echoed in [`BlockDone`].
    pub id: u64,
    /// Direction.
    pub op: BlockOp,
    /// Starting logical block.
    pub lba: u64,
    /// Transfer length in bytes (multiple of 4 KiB).
    pub len: usize,
    /// Page-aligned data buffer (destination for reads, source for
    /// writes).
    pub buf: PhysAddr,
    /// CPU-utilization tag for this request's software work.
    pub tag: &'static str,
    /// Component notified on completion.
    pub reply_to: ComponentId,
}

/// Completion of a [`BlockRequest`].
#[derive(Debug, Clone)]
pub struct BlockDone {
    /// Identifier from the originating request.
    pub id: u64,
    /// Whether the device reported success.
    pub ok: bool,
    /// Latency breakdown: file-system and device-control software time,
    /// device time, completion-path time.
    pub breakdown: Breakdown,
}

struct Outstanding {
    req: BlockRequest,
    /// Software submit time split for the breakdown.
    fs_ns: u64,
    ctrl_ns: u64,
    /// When the doorbell rang (device time starts).
    submitted_at: SimTime,
    /// When the last MSI arrived (device time ends).
    device_done_at: Option<SimTime>,
    status: Option<NvmeStatus>,
    /// NVMe sub-commands still outstanding (requests above the drive's
    /// MDTS split into several commands, as the kernel block layer does).
    chunks_remaining: usize,
}

enum CpuPhase {
    Submit { cid: u16 },
    Complete { cid: u16 },
}

/// Geometry of one NVMe sub-command, kept so a retryable completion can
/// resubmit exactly that chunk.
struct ChunkGeom {
    off: u64,
    len: usize,
    attempts: u32,
}

/// Internal: command-timeout check for one outstanding request. Armed
/// only while a fault plan is installed.
#[derive(Debug)]
struct NvmeCheck {
    cid: u16,
}

/// The driver component. One instance drives one SSD queue pair.
pub struct HostNvmeDriver {
    cpu: ComponentId,
    fabric: ComponentId,
    ssd: NvmeHandle,
    costs: KernelCosts,
    mode: KernelMode,
    sq: SubmissionQueueWriter,
    cq: CompletionQueueReader,
    /// Scratch for PRP list pages, one page per CID slot.
    prp_scratch: AddrRange,
    outstanding: BTreeMap<u16, Outstanding>,
    /// Sub-command CID → primary CID for MDTS-split requests.
    chunk_owner: BTreeMap<u16, u16>,
    /// Sub-command CID → chunk geometry (for error-path resubmission).
    chunk_geom: BTreeMap<u16, ChunkGeom>,
    cpu_phases: BTreeMap<u64, CpuPhase>,
    next_cid: u16,
    next_cpu_token: u64,
    /// Queue-pair geometry kept for controller resets.
    attach: AttachQueuePair,
    /// Controller resets performed (bounded by
    /// `RecoveryConfig::nvme_resets`).
    resets_used: u32,
}

impl HostNvmeDriver {
    /// Queue depth used by the driver.
    pub const QUEUE_DEPTH: u16 = 64;

    /// Creates the driver. `rings` must provide at least
    /// `64*64 + 64*16 + 64*4096` bytes of host memory for the SQ, CQ and
    /// PRP-list scratch; `msi_addr` must be claimed for this component.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cpu: ComponentId,
        fabric: ComponentId,
        ssd: NvmeHandle,
        costs: KernelCosts,
        mode: KernelMode,
        rings: AddrRange,
        msi_addr: PhysAddr,
    ) -> (Self, AttachQueuePair) {
        let depth = Self::QUEUE_DEPTH;
        let sq_base = rings.start;
        let cq_base = rings.start + depth as u64 * NvmeCommand::SIZE as u64;
        let prp_base = cq_base + depth as u64 * 16;
        // PRP scratch must be page-aligned for list pages.
        let prp_base = PhysAddr((prp_base.as_u64() + 4095) & !4095);
        let attach = AttachQueuePair {
            qid: 1,
            sq_base,
            cq_base,
            depth,
            msi_addr,
            msi_vector: 0x10,
        };
        let driver = HostNvmeDriver {
            cpu,
            fabric,
            ssd,
            costs,
            mode,
            sq: SubmissionQueueWriter::new(sq_base, depth),
            cq: CompletionQueueReader::new(cq_base, depth),
            prp_scratch: AddrRange::new(prp_base, depth as u64 * 4096),
            outstanding: BTreeMap::new(),
            chunk_owner: BTreeMap::new(),
            chunk_geom: BTreeMap::new(),
            cpu_phases: BTreeMap::new(),
            next_cid: 0,
            next_cpu_token: 1,
            attach,
            resets_used: 0,
        };
        (driver, attach)
    }

    fn cpu_job(&mut self, ctx: &mut Ctx<'_>, cost: u64, tag: &'static str, phase: CpuPhase) {
        let token = self.next_cpu_token;
        self.next_cpu_token += 1;
        self.cpu_phases.insert(token, phase);
        let cpu = self.cpu;
        ctx.send_now(
            cpu,
            CpuJob {
                token,
                cost_ns: cost,
                tag,
                reply_to: ctx.self_id(),
            },
        );
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_>, req: BlockRequest) {
        assert!(
            req.len.is_multiple_of(LBA_SIZE as usize),
            "length must be whole blocks"
        );
        assert!(!self.sq.is_full(), "driver exceeded its queue depth");
        let cid = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(1);
        let fs_ns = self.costs.vfs_lookup_ns
            + self.costs.fs_block_map_ns
            + match self.mode {
                KernelMode::Vanilla => {
                    self.costs.page_cache_lookup_ns + self.costs.page_cache_insert_ns
                }
                KernelMode::Optimized => 0,
            };
        let ctrl_ns = self.costs.syscall_ns
            + self.costs.block_submit_ns
            + self.costs.block_per_page_ns * (req.len.div_ceil(4096) as u64);
        let tag = req.tag;
        self.outstanding.insert(
            cid,
            Outstanding {
                req,
                fs_ns,
                ctrl_ns,
                submitted_at: ctx.now(), // refined after the CPU job
                device_done_at: None,
                status: None,
                chunks_remaining: 0,
            },
        );
        self.cpu_job(ctx, fs_ns + ctrl_ns, tag, CpuPhase::Submit { cid });
    }

    fn submit_to_device(&mut self, ctx: &mut Ctx<'_>, cid: u16) {
        // Split at 1 MiB (MDTS), one NVMe command per chunk.
        const MDTS: usize = 1 << 20;
        let (buf, len, lba, op) = {
            let out = self.outstanding.get_mut(&cid).expect("live request");
            out.submitted_at = ctx.now();
            (out.req.buf, out.req.len, out.req.lba, out.req.op)
        };
        let chunks: Vec<(u64, usize)> = (0..len)
            .step_by(MDTS)
            .map(|off| (off as u64, MDTS.min(len - off)))
            .collect();
        self.outstanding
            .get_mut(&cid)
            .expect("live")
            .chunks_remaining = chunks.len();
        // Sub-commands use consecutive CIDs; completions route to the
        // primary via `chunk_owner`. The primary CID was reserved at
        // request arrival; further chunks draw fresh CIDs.
        for (i, (off, chunk_len)) in chunks.iter().enumerate() {
            let sub_cid = if i == 0 {
                cid
            } else {
                let c = self.next_cid;
                self.next_cid = self.next_cid.wrapping_add(1);
                self.chunk_owner.insert(c, cid);
                c
            };
            self.chunk_geom.insert(
                sub_cid,
                ChunkGeom {
                    off: *off,
                    len: *chunk_len,
                    attempts: 0,
                },
            );
            self.push_command(ctx, sub_cid, buf, *off, *chunk_len, lba, op);
        }
        self.ring_sq_doorbell(ctx);
        if let Some(rc) = fault::recovery(ctx.world_ref()) {
            ctx.send_self_in(rc.nvme_timeout_ns, NvmeCheck { cid });
        }
    }

    /// Serializes one NVMe command for a chunk of `buf` into the SQ
    /// (doorbell rung separately so submissions batch).
    #[allow(clippy::too_many_arguments)]
    fn push_command(
        &mut self,
        ctx: &mut Ctx<'_>,
        sub_cid: u16,
        buf: PhysAddr,
        off: u64,
        chunk_len: usize,
        lba: u64,
        op: BlockOp,
    ) {
        let list_page = self.prp_scratch.start + (sub_cid as u64 % 64) * 4096;
        let prps = PrpList::for_contiguous(buf + off, chunk_len, list_page);
        let cmd = NvmeCommand {
            opcode: match op {
                BlockOp::Read => NvmeOpcode::Read,
                BlockOp::Write => NvmeOpcode::Write,
            },
            cid: sub_cid,
            nsid: 1,
            prp1: prps.prp1,
            prp2: prps.prp2,
            slba: lba + off / LBA_SIZE,
            nlb: (chunk_len / LBA_SIZE as usize - 1) as u16,
        };
        let mem = ctx.world().expect_mut::<PhysMemory>();
        if !prps.list_entries.is_empty() {
            mem.write(list_page, &prps.list_bytes());
        }
        self.sq.push(mem, &cmd);
    }

    fn ring_sq_doorbell(&mut self, ctx: &mut Ctx<'_>) {
        let tail = self.sq.tail();
        let doorbell = self.ssd.sq_doorbell(1);
        let fabric = self.fabric;
        ctx.send_now(
            fabric,
            MmioWrite {
                addr: doorbell,
                data: (tail as u32).to_le_bytes().to_vec(),
            },
        );
    }

    /// Resubmits one MDTS chunk of `primary` after a retryable failure,
    /// under a fresh CID (the failed command's slot is dead).
    fn resubmit_chunk(
        &mut self,
        ctx: &mut Ctx<'_>,
        primary: u16,
        off: u64,
        len: usize,
        attempts: u32,
    ) {
        let (buf, lba, op) = {
            let out = &self.outstanding[&primary];
            (out.req.buf, out.req.lba, out.req.op)
        };
        let sub_cid = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(1);
        self.chunk_owner.insert(sub_cid, primary);
        self.chunk_geom
            .insert(sub_cid, ChunkGeom { off, len, attempts });
        self.push_command(ctx, sub_cid, buf, off, len, lba, op);
        self.ring_sq_doorbell(ctx);
    }

    fn on_msi(&mut self, ctx: &mut Ctx<'_>) {
        self.drain_cq(ctx);
    }

    /// Drains the CQ; charges one IRQ+completion path per completed
    /// command (the kernel does per-request completion work). Shared by
    /// the MSI path and the timeout poll fallback.
    fn drain_cq(&mut self, ctx: &mut Ctx<'_>) {
        let mut completed = Vec::new();
        {
            let mem = ctx.world_ref().expect::<PhysMemory>();
            while let Some(entry) = self.cq.pop(mem) {
                completed.push(entry);
            }
        }
        if completed.is_empty() {
            // Spurious interrupt (MSI raced an earlier drain) or an idle
            // poll: ignore.
            return;
        }
        // Ring the CQ head doorbell once for the batch.
        let head = self.cq.head();
        let db = self.ssd.cq_doorbell(1);
        let fabric = self.fabric;
        ctx.send_now(
            fabric,
            MmioWrite {
                addr: db,
                data: (head as u32).to_le_bytes().to_vec(),
            },
        );
        for entry in completed {
            // Validate before trusting: a poisoned CQE can land with a
            // plausible phase bit but garbage fields (the device rewrites
            // the slot, but a poll may race the rewrite). An entry whose
            // CID matches nothing we submitted must not steer SQ-head
            // accounting or complete anything.
            let known = self.chunk_owner.contains_key(&entry.cid)
                || self.outstanding.contains_key(&entry.cid);
            if !known {
                ctx.world().stats.counter("nvme.drv_bad_cqe").add(1);
                continue;
            }
            self.sq.update_head(entry.sq_head);
            self.on_completion(ctx, entry);
        }
    }

    fn on_completion(&mut self, ctx: &mut Ctx<'_>, entry: NvmeCompletion) {
        let geom = self.chunk_geom.remove(&entry.cid);
        let primary = self.chunk_owner.remove(&entry.cid).unwrap_or(entry.cid);
        let stale = match self.outstanding.get(&primary) {
            // chunks_remaining hits zero when a timeout already failed the
            // request; stragglers must not double-complete it.
            Some(out) => out.chunks_remaining == 0,
            None => true,
        };
        if stale {
            ctx.world().stats.counter("nvme.drv_stale_cqe").add(1);
            return;
        }
        if entry.status.is_retryable() {
            if let (Some(g), Some(rc)) = (geom.as_ref(), fault::recovery(ctx.world_ref())) {
                if g.attempts < rc.nvme_retries {
                    fault::retried(ctx.world(), fault::NVME_MEDIA);
                    self.resubmit_chunk(ctx, primary, g.off, g.len, g.attempts + 1);
                    return;
                }
            }
            fault::exhausted(ctx.world(), fault::NVME_MEDIA);
        } else if entry.status.is_ok() && geom.map(|g| g.attempts > 0).unwrap_or(false) {
            fault::recovered(ctx.world(), fault::NVME_MEDIA);
        }
        let out = self.outstanding.get_mut(&primary).expect("live request");
        out.chunks_remaining -= 1;
        out.device_done_at = Some(ctx.now());
        if out.status.map(|s| s.is_ok()).unwrap_or(true) {
            out.status = Some(entry.status);
        }
        if out.chunks_remaining > 0 {
            return;
        }
        let cost = self.costs.storage_complete_cost();
        let tag = out.req.tag;
        self.cpu_job(ctx, cost, tag, CpuPhase::Complete { cid: primary });
    }

    /// Command-timeout check: polls the CQ directly (the MSI may have
    /// been lost), re-arms while the request is within its overall
    /// deadline, and otherwise surfaces a clean error completion.
    fn on_check(&mut self, ctx: &mut Ctx<'_>, cid: u16) {
        if self
            .outstanding
            .get(&cid)
            .map(|o| o.chunks_remaining == 0)
            .unwrap_or(true)
        {
            return; // completed (or already timed out); timer expires silently
        }
        ctx.world().stats.counter("nvme.drv_polls").add(1);
        self.drain_cq(ctx);
        let Some(out) = self.outstanding.get(&cid) else {
            return;
        };
        if out.chunks_remaining == 0 {
            return; // the poll recovered it
        }
        let Some(rc) = fault::recovery(ctx.world_ref()) else {
            return;
        };
        if ctx.now() - out.submitted_at < rc.op_timeout_ns {
            ctx.send_self_in(rc.nvme_timeout_ns, NvmeCheck { cid });
            return;
        }
        // Patience exhausted. Next rung of the recovery ladder: a
        // controller reset — re-attach the queue pair (aborting whatever
        // the device still holds), start fresh rings, and resubmit every
        // outstanding request. Only after the reset budget is spent does
        // the request fail.
        if self.resets_used < rc.nvme_resets {
            self.resets_used += 1;
            self.reset_controller(ctx);
            return;
        }
        ctx.world().stats.counter("nvme.drv_timeouts").add(1);
        fault::exhausted(ctx.world(), fault::MSI_LOSS);
        let Some(out) = self.outstanding.get_mut(&cid) else {
            return;
        };
        out.chunks_remaining = 0;
        out.device_done_at = Some(ctx.now());
        out.status = Some(NvmeStatus::MediaError);
        let cost = self.costs.storage_complete_cost();
        let tag = out.req.tag;
        self.cpu_job(ctx, cost, tag, CpuPhase::Complete { cid });
    }

    /// NVMe controller reset: re-attach the queue pair (the device drops
    /// its in-flight ops), reinitialize both ring cursors, scrub the CQ
    /// ring (stale phase bits must not read as fresh completions), and
    /// resubmit every request that has not completed.
    fn reset_controller(&mut self, ctx: &mut Ctx<'_>) {
        ctx.world().stats.counter("nvme.drv_resets").add(1);
        let attach = self.attach;
        let device = self.ssd.device;
        ctx.send_now(device, attach);
        self.sq = SubmissionQueueWriter::new(attach.sq_base, attach.depth);
        self.cq = CompletionQueueReader::new(attach.cq_base, attach.depth);
        {
            let zeros = vec![0u8; attach.depth as usize * NvmeCompletion::SIZE];
            ctx.world()
                .expect_mut::<PhysMemory>()
                .write(attach.cq_base, &zeros);
        }
        self.chunk_owner.clear();
        self.chunk_geom.clear();
        // Resubmit in CID order for determinism, each request under a
        // FRESH primary CID: any pre-reset completion entry still in
        // flight then matches nothing and is dropped by the drain-side
        // validation, instead of double-completing resubmitted chunks.
        // `submit_to_device` rebuilds chunks and re-arms the timeout.
        let pending: Vec<u16> = self
            .outstanding
            .iter()
            .filter(|(_, o)| o.chunks_remaining > 0)
            .map(|(&cid, _)| cid)
            .collect();
        for old_cid in pending {
            let Some(out) = self.outstanding.remove(&old_cid) else {
                continue;
            };
            let cid = self.next_cid;
            self.next_cid = self.next_cid.wrapping_add(1);
            self.outstanding.insert(cid, out);
            self.submit_to_device(ctx, cid);
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, cid: u16) {
        let out = self.outstanding.remove(&cid).expect("live request");
        let device_done = out.device_done_at.expect("device completed");
        let mut breakdown = Breakdown::new();
        breakdown.add(Category::FileSystem, out.fs_ns);
        breakdown.add(Category::DeviceControl, out.ctrl_ns);
        let device_time = device_done - out.submitted_at;
        let dev_cat = match out.req.op {
            BlockOp::Read => Category::Read,
            BlockOp::Write => Category::Write,
        };
        breakdown.add(dev_cat, device_time);
        breakdown.add(Category::RequestCompletion, ctx.now() - device_done);
        let ok = out.status.expect("status recorded").is_ok();
        ctx.send_now(
            out.req.reply_to,
            BlockDone {
                id: out.req.id,
                ok,
                breakdown,
            },
        );
    }
}

impl Component for HostNvmeDriver {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<BlockRequest>() {
            Ok(req) => {
                self.on_request(ctx, req);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<CpuJobDone>() {
            Ok(done) => {
                match self.cpu_phases.remove(&done.token).expect("live cpu phase") {
                    CpuPhase::Submit { cid } => self.submit_to_device(ctx, cid),
                    CpuPhase::Complete { cid } => self.finish(ctx, cid),
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<NvmeCheck>() {
            Ok(check) => {
                self.on_check(ctx, check.cid);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<MsiDelivery>() {
            Ok(_) => self.on_msi(ctx),
            Err(other) => panic!("HostNvmeDriver received unexpected message: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuPool;
    use dcs_nvme::{install_nvme, NvmeConfig};
    use dcs_pcie::{MmioRouting, PcieConfig, PcieFabric, PortId};
    use dcs_sim::{time, Simulator};

    struct Caller {
        driver: ComponentId,
        done: Vec<BlockDone>,
    }

    #[derive(Debug)]
    struct Go(BlockRequest);

    impl Component for Caller {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let msg = match msg.downcast::<Go>() {
                Ok(Go(req)) => {
                    let drv = self.driver;
                    ctx.send_now(drv, req);
                    return;
                }
                Err(m) => m,
            };
            let d = msg
                .downcast::<BlockDone>()
                .expect("caller gets block completions");
            ctx.world().stats.counter("caller.done").add(1);
            if d.ok {
                ctx.world().stats.counter("caller.ok").add(1);
            }
            self.done.push(d);
        }
    }

    fn setup(mode: KernelMode) -> (Simulator, ComponentId, NvmeHandle, AddrRange) {
        let mut sim = Simulator::new(5);
        sim.world_mut().insert(PhysMemory::new());
        sim.world_mut().insert(MmioRouting::new());
        let fabric = sim.add("pcie", PcieFabric::new(PcieConfig::default()));
        let cpu = sim.add("cpu", CpuPool::new("node0", 6));
        let ssd = install_nvme(
            &mut sim,
            fabric,
            NvmeConfig {
                capacity_lbas: 1 << 20,
                ..NvmeConfig::default()
            },
            "ssd0",
            PortId(1),
        );
        let dram = sim.world_mut().expect_mut::<PhysMemory>().alloc_region(
            "host-dram",
            64 << 20,
            PortId::ROOT,
        );
        let rings = AddrRange::new(dram.start, 1 << 20);
        let msi_addr = dram.start + (2 << 20);
        let driver_id = sim.reserve("nvme-driver");
        let (driver, attach) = HostNvmeDriver::new(
            cpu,
            fabric,
            ssd.clone(),
            KernelCosts::default(),
            mode,
            rings,
            msi_addr,
        );
        sim.install(driver_id, driver);
        sim.world_mut()
            .expect_mut::<MmioRouting>()
            .claim(AddrRange::new(msi_addr, 0x100), driver_id);
        sim.kickoff(ssd.device, attach);
        let caller = sim.reserve("caller");
        sim.install(
            caller,
            Caller {
                driver: driver_id,
                done: vec![],
            },
        );
        (sim, caller, ssd, dram)
    }

    #[test]
    fn read_via_driver_returns_data_and_breakdown() {
        let (mut sim, caller, ssd, dram) = setup(KernelMode::Optimized);
        let payload: Vec<u8> = (0..8192u32).map(|i| (i % 253) as u8).collect();
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(ssd.lba_addr(10), &payload);
        let buf = dram.start + (4 << 20);
        sim.kickoff(
            caller,
            Go(BlockRequest {
                id: 1,
                op: BlockOp::Read,
                lba: 10,
                len: 8192,
                buf,
                tag: "kernel",
                reply_to: caller,
            }),
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("caller.ok"), 1);
        assert_eq!(sim.world().expect::<PhysMemory>().read(buf, 8192), payload);
        // The breakdown must contain software + device categories.
        let stats = sim.world().expect::<crate::cpu::CpuStats>();
        assert!(stats.pool("node0").unwrap().jobs >= 2);
        assert!(
            sim.now().as_nanos() > time::us(14),
            "includes flash latency"
        );
    }

    #[test]
    fn vanilla_mode_spends_more_cpu_than_optimized() {
        let run = |mode| {
            let (mut sim, caller, _ssd, dram) = setup(mode);
            let buf = dram.start + (4 << 20);
            sim.kickoff(
                caller,
                Go(BlockRequest {
                    id: 1,
                    op: BlockOp::Read,
                    lba: 0,
                    len: 4096,
                    buf,
                    tag: "kernel",
                    reply_to: caller,
                }),
            );
            sim.run();
            let stats = sim.world().expect::<crate::cpu::CpuStats>();
            stats.pool("node0").unwrap().tracker.total_busy()
        };
        assert!(run(KernelMode::Vanilla) > run(KernelMode::Optimized));
    }

    #[test]
    fn write_via_driver_persists() {
        let (mut sim, caller, ssd, dram) = setup(KernelMode::Optimized);
        let buf = dram.start + (4 << 20);
        let payload = vec![0xC3u8; 4096];
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(buf, &payload);
        sim.kickoff(
            caller,
            Go(BlockRequest {
                id: 2,
                op: BlockOp::Write,
                lba: 77,
                len: 4096,
                buf,
                tag: "kernel",
                reply_to: caller,
            }),
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("caller.ok"), 1);
        assert_eq!(
            sim.world()
                .expect::<PhysMemory>()
                .read(ssd.lba_addr(77), 4096),
            payload
        );
    }

    #[test]
    fn failed_command_reports_not_ok() {
        let (mut sim, caller, _ssd, dram) = setup(KernelMode::Optimized);
        let buf = dram.start + (4 << 20);
        sim.kickoff(
            caller,
            Go(BlockRequest {
                id: 3,
                op: BlockOp::Read,
                lba: (1 << 20) + 5, // beyond 1Mi-LBA namespace
                len: 4096,
                buf,
                tag: "kernel",
                reply_to: caller,
            }),
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("caller.done"), 1);
        assert_eq!(sim.world().stats.counter_value("caller.ok"), 0);
    }

    #[test]
    fn media_error_is_retried_and_recovers() {
        let (mut sim, caller, ssd, dram) = setup(KernelMode::Optimized);
        let rng = sim.world_mut().rng.fork();
        let mut plan = dcs_sim::FaultPlan::new(rng);
        plan.enable(dcs_sim::fault::NVME_MEDIA, dcs_sim::FaultSpec::Nth(vec![0]));
        sim.world_mut().insert(plan);
        let payload = vec![0x5Au8; 4096];
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(ssd.lba_addr(3), &payload);
        let buf = dram.start + (4 << 20);
        sim.kickoff(
            caller,
            Go(BlockRequest {
                id: 9,
                op: BlockOp::Read,
                lba: 3,
                len: 4096,
                buf,
                tag: "kernel",
                reply_to: caller,
            }),
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("caller.ok"), 1);
        assert_eq!(sim.world().stats.counter_value("fault.injected"), 1);
        assert_eq!(sim.world().stats.counter_value("retry.count"), 1);
        assert_eq!(sim.world().stats.counter_value("fault.recovered"), 1);
        assert_eq!(sim.world().expect::<PhysMemory>().read(buf, 4096), payload);
    }

    #[test]
    fn media_error_without_budget_fails_cleanly() {
        let (mut sim, caller, _ssd, dram) = setup(KernelMode::Optimized);
        let rng = sim.world_mut().rng.fork();
        let mut plan = dcs_sim::FaultPlan::new(rng);
        plan.enable(dcs_sim::fault::NVME_MEDIA, dcs_sim::FaultSpec::Nth(vec![0]));
        plan.recovery = dcs_sim::RecoveryConfig::no_retries();
        sim.world_mut().insert(plan);
        let buf = dram.start + (4 << 20);
        sim.kickoff(
            caller,
            Go(BlockRequest {
                id: 10,
                op: BlockOp::Read,
                lba: 0,
                len: 4096,
                buf,
                tag: "kernel",
                reply_to: caller,
            }),
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("caller.done"), 1);
        assert_eq!(sim.world().stats.counter_value("caller.ok"), 0);
        assert_eq!(sim.world().stats.counter_value("fault.exhausted"), 1);
    }

    #[test]
    fn lost_completion_msi_is_recovered_by_poll() {
        let (mut sim, caller, ssd, dram) = setup(KernelMode::Optimized);
        let rng = sim.world_mut().rng.fork();
        let mut plan = dcs_sim::FaultPlan::new(rng);
        // Lose the first MSI the fabric routes; the driver's command
        // timeout must find the completion by polling the CQ.
        plan.enable(dcs_sim::fault::MSI_LOSS, dcs_sim::FaultSpec::Nth(vec![0]));
        sim.world_mut().insert(plan);
        let payload = vec![0x77u8; 4096];
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(ssd.lba_addr(8), &payload);
        let buf = dram.start + (4 << 20);
        sim.kickoff(
            caller,
            Go(BlockRequest {
                id: 11,
                op: BlockOp::Read,
                lba: 8,
                len: 4096,
                buf,
                tag: "kernel",
                reply_to: caller,
            }),
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("pcie.msi_lost"), 1);
        assert_eq!(sim.world().stats.counter_value("caller.ok"), 1);
        assert!(sim.world().stats.counter_value("nvme.drv_polls") >= 1);
        assert_eq!(sim.world().expect::<PhysMemory>().read(buf, 4096), payload);
    }

    #[test]
    fn lost_cqe_climbs_the_reset_ladder_and_recovers() {
        let (mut sim, caller, ssd, dram) = setup(KernelMode::Optimized);
        let rng = sim.world_mut().rng.fork();
        let mut plan = dcs_sim::FaultPlan::new(rng);
        // Header corruption with zero replay budget turns a TLP into a
        // completion timeout (no bytes move). Draws for the read command:
        // 0 = SQ-entry fetch, 1 = data-out, 2 = CQE write, 3 = the
        // device's CQE rewrite. Killing 2 and 3 loses the completion
        // entirely; the driver's op timeout must then reset the
        // controller and resubmit, which succeeds on fresh draws.
        plan.enable(
            dcs_sim::fault::TLP_HEADER,
            dcs_sim::FaultSpec::Nth(vec![2, 3]),
        );
        plan.recovery = dcs_sim::RecoveryConfig {
            pcie_retries: 0,
            ..Default::default()
        };
        sim.world_mut().insert(plan);
        let payload = vec![0x3Cu8; 4096];
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(ssd.lba_addr(4), &payload);
        let buf = dram.start + (4 << 20);
        sim.kickoff(
            caller,
            Go(BlockRequest {
                id: 12,
                op: BlockOp::Read,
                lba: 4,
                len: 4096,
                buf,
                tag: "kernel",
                reply_to: caller,
            }),
        );
        sim.run();
        let stats = &sim.world().stats;
        assert_eq!(stats.counter_value("nvme.cqe_lost"), 1);
        assert_eq!(stats.counter_value("nvme.drv_resets"), 1);
        assert_eq!(
            stats.counter_value("nvme.resets"),
            1,
            "device saw the re-attach"
        );
        assert_eq!(stats.counter_value("aer.device_reset"), 1);
        assert_eq!(stats.counter_value("aer.cpl_timeout"), 2);
        assert_eq!(
            stats.counter_value("caller.ok"),
            1,
            "request completed after the reset"
        );
        assert_eq!(sim.world().expect::<PhysMemory>().read(buf, 4096), payload);
        // Conservation: both injected header corruptions were contained
        // as exhausted timeouts.
        let tallies: std::collections::BTreeMap<_, _> = sim
            .world()
            .expect::<dcs_sim::FaultPlan>()
            .tallies()
            .collect();
        let t = tallies[dcs_sim::fault::TLP_HEADER];
        assert_eq!((t.injected, t.recovered, t.exhausted), (2, 0, 2));
    }

    #[test]
    fn pipelined_requests_all_complete() {
        let (mut sim, caller, _ssd, dram) = setup(KernelMode::Optimized);
        for i in 0..16u64 {
            let buf = dram.start + (4 << 20) + i * 65536;
            sim.kickoff(
                caller,
                Go(BlockRequest {
                    id: i,
                    op: BlockOp::Read,
                    lba: i * 16,
                    len: 65536,
                    buf,
                    tag: "kernel",
                    reply_to: caller,
                }),
            );
        }
        sim.run();
        assert_eq!(sim.world().stats.counter_value("caller.ok"), 16);
    }
}
