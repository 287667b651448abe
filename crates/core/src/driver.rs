//! The HDC Driver (§IV-B): the thin kernel module between applications
//! and the HDC Engine.
//!
//! Per D2D command the driver does exactly three things on the CPU —
//! an ioctl entry, metadata retrieval (block addresses from the VFS,
//! connection info from the TCP stack; including the page-cache
//! consistency check §IV-B describes), and a completion interrupt — and
//! everything else happens in hardware. That short list *is* DCS-ctrl's
//! performance story: compare with the per-operation submit/complete costs
//! in [`dcs_host::nvme_driver`] and [`dcs_host::nic_driver`].
//!
//! The driver accepts the same [`D2dJob`]s as the baseline executors, so
//! workloads and benchmarks swap designs by choosing which component they
//! submit to.

use std::collections::BTreeMap;

use dcs_host::costs::KernelCosts;
use dcs_host::cpu::{CpuJob, CpuJobDone};
use dcs_host::job::{D2dDone, D2dJob, D2dOp};
use dcs_nic::TcpFlow;
use dcs_pcie::{DmaComplete, DmaRequest, MmioWrite, MsiDelivery, PhysAddr, PhysMemory, TlpClass};
use dcs_sim::{fault, Breakdown, Category, Component, ComponentId, Ctx, Msg, SimTime};

use crate::command::{CompletionRecord, D2dCommand, DevOpCode};
use crate::engine::{EngineBreakdown, EngineInit, RegisterConnection};

/// Where the driver's host-side structures live.
#[derive(Debug, Clone, Copy)]
pub struct DriverLayout {
    /// Completion ring base (host DRAM, 64-byte records).
    pub completion_ring: PhysAddr,
    /// Ring depth.
    pub completion_depth: u16,
    /// The driver's MSI target (claimed for the driver component).
    pub msi_addr: PhysAddr,
    /// Host-side staging for aux data before the DMA to the engine.
    pub aux_staging: PhysAddr,
}

struct JobCtx {
    job: D2dJob,
    /// Driver CPU time charged to this job (DeviceControl category).
    driver_ns: u64,
    /// Engine-side split (arrives as out-of-band instrumentation).
    engine_bd: Option<Breakdown>,
    /// The DMA'd completion record.
    record: Option<CompletionRecord>,
    /// Completion-path CPU time, added when the interrupt is handled.
    completion_ns: u64,
    submitted_at: SimTime,
    /// Poisoned aux-staging DMAs retried for this job.
    aux_attempts: u8,
}

enum CpuPhase {
    /// Ioctl + metadata done: stage aux / write the command.
    Submit {
        id: u64,
        cmd: D2dCommand,
        aux: Option<Vec<u8>>,
    },
    /// Interrupt handled: drain the completion ring.
    Complete,
}

/// Fault mode: periodic completion-ring poll, the fallback for a
/// completion whose MSI the fabric dropped.
#[derive(Debug)]
struct RingPoll;

/// The HDC Driver component.
pub struct HdcDriver {
    cpu: ComponentId,
    fabric: ComponentId,
    engine: ComponentId,
    cmd_queue: PhysAddr,
    engine_aux_base: PhysAddr,
    layout: DriverLayout,
    costs: KernelCosts,
    jobs: BTreeMap<u64, JobCtx>,
    /// Registered connections (flow → engine conn id).
    conns: BTreeMap<TcpFlow, u16>,
    next_conn: u16,
    /// Completion ring consumer state.
    comp_head: u16,
    comp_phase: bool,
    cpu_phases: BTreeMap<u64, CpuPhase>,
    next_token: u64,
    /// Rotating aux slot cursor (64-byte slots).
    aux_slot: u64,
    /// A `RingPoll` is scheduled.
    poll_armed: bool,
}

impl HdcDriver {
    /// Creates the driver and the [`EngineInit`] the caller must deliver
    /// to the engine.
    pub fn new(
        cpu: ComponentId,
        fabric: ComponentId,
        engine: ComponentId,
        cmd_queue: PhysAddr,
        engine_aux_base: PhysAddr,
        layout: DriverLayout,
        costs: KernelCosts,
    ) -> (Self, EngineInit) {
        let init = EngineInit {
            completion_ring: layout.completion_ring,
            completion_depth: layout.completion_depth,
            msi_addr: layout.msi_addr,
            msi_vector: 0x80,
        };
        let driver = HdcDriver {
            cpu,
            fabric,
            engine,
            cmd_queue,
            engine_aux_base,
            layout,
            costs,
            jobs: BTreeMap::new(),
            conns: BTreeMap::new(),
            next_conn: 1,
            comp_head: 0,
            comp_phase: true,
            cpu_phases: BTreeMap::new(),
            next_token: 1,
            aux_slot: 0,
            poll_armed: false,
        };
        (driver, init)
    }

    fn cpu_job(&mut self, ctx: &mut Ctx<'_>, cost: u64, tag: &'static str, phase: CpuPhase) {
        let token = self.next_token;
        self.next_token += 1;
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

    /// Resolves (registering on first use) the engine connection id for a
    /// flow.
    fn conn_for(&mut self, ctx: &mut Ctx<'_>, flow: TcpFlow, seq: u32) -> u16 {
        if let Some(&c) = self.conns.get(&flow) {
            return c;
        }
        let c = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(flow, c);
        let engine = self.engine;
        ctx.send_now(engine, RegisterConnection { conn: c, flow, seq });
        c
    }

    fn on_job(&mut self, ctx: &mut Ctx<'_>, job: D2dJob) {
        assert!(
            job.ops.len() <= D2dCommand::MAX_OPS,
            "a D2D command carries at most {} ops",
            D2dCommand::MAX_OPS
        );
        // Translate the design-independent job into the wire command.
        let mut aux_blob: Option<Vec<u8>> = None;
        let aux_off = (self.aux_slot % 16_384) * 64;
        let mut ops = Vec::with_capacity(job.ops.len());
        let mut metadata_lookups = 0u64;
        for op in &job.ops {
            let code = match op {
                D2dOp::SsdRead { ssd, lba, len } => {
                    metadata_lookups += 1; // VFS block mapping
                    DevOpCode::SsdRead {
                        ssd: *ssd as u8,
                        lba: *lba,
                        len: *len as u32,
                    }
                }
                D2dOp::SsdWrite { ssd, lba } => {
                    metadata_lookups += 1;
                    DevOpCode::SsdWrite {
                        ssd: *ssd as u8,
                        lba: *lba,
                    }
                }
                D2dOp::Process { function, aux } => {
                    let off = if aux.is_empty() {
                        0
                    } else {
                        assert!(aux.len() <= 64, "aux block exceeds one slot");
                        aux_blob = Some(aux.clone());
                        self.aux_slot += 1;
                        aux_off as u32
                    };
                    DevOpCode::Process {
                        function: *function,
                        aux_off: off,
                        aux_len: aux.len() as u16,
                    }
                }
                D2dOp::NicSend { flow, seq } => {
                    metadata_lookups += 1; // TCP connection lookup
                    let conn = self.conn_for(ctx, *flow, *seq);
                    DevOpCode::NicSend { conn, seq: *seq }
                }
                D2dOp::NicRecv { flow, len } => {
                    metadata_lookups += 1;
                    let conn = self.conn_for(ctx, *flow, 0);
                    DevOpCode::NicRecv {
                        conn,
                        len: *len as u32,
                    }
                }
                D2dOp::MemRead { len } => {
                    metadata_lookups += 1; // cache page-table lookup
                    DevOpCode::MemRead { len: *len as u32 }
                }
            };
            ops.push(code);
        }
        let id = job.id;
        let cmd = D2dCommand { id, ops };
        let cost = self.costs.hdc_ioctl_ns + self.costs.hdc_metadata_ns * metadata_lookups.max(1);
        {
            let now = ctx.now();
            let obs = &mut ctx.world().obs;
            obs.req_begin(id, now);
            obs.span_begin("host", "submit-cpu", id, now);
        }
        let tag = job.tag;
        self.jobs.insert(
            id,
            JobCtx {
                job,
                driver_ns: cost,
                engine_bd: None,
                record: None,
                completion_ns: 0,
                submitted_at: ctx.now(),
                aux_attempts: 0,
            },
        );
        self.cpu_job(
            ctx,
            cost,
            tag,
            CpuPhase::Submit {
                id,
                cmd,
                aux: aux_blob,
            },
        );
        self.arm_poll(ctx);
    }

    /// Schedules the next ring poll if fault injection is active and no
    /// poll is pending. Fault-free runs never poll: the MSI is reliable.
    fn arm_poll(&mut self, ctx: &mut Ctx<'_>) {
        if self.poll_armed {
            return;
        }
        let Some(rc) = fault::recovery(ctx.world_ref()) else {
            return;
        };
        self.poll_armed = true;
        ctx.send_self_in(rc.poll_period_ns, RingPoll);
    }

    fn on_poll(&mut self, ctx: &mut Ctx<'_>) {
        let Some(rc) = fault::recovery(ctx.world_ref()) else {
            self.poll_armed = false;
            return;
        };
        ctx.world().stats.counter("hdc.drv_polls").add(1);
        self.drain_completions(ctx);
        // Fail jobs whose completion record was lost for good (e.g. a
        // poisoned record the engine could not rewrite): the engine-side
        // watchdog already accounted the fault, so this is containment
        // only — the submitter gets a clean `ok = false` instead of a hang.
        let now = ctx.now();
        let stale: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, j)| now - j.submitted_at > rc.op_timeout_ns)
            .map(|(&id, _)| id)
            .collect();
        for id in stale {
            self.fail_job(ctx, id, "hdc.drv_timeouts");
        }
        if self.jobs.is_empty() {
            self.poll_armed = false;
        } else {
            ctx.send_self_in(rc.poll_period_ns, RingPoll);
        }
    }

    /// Fails a job cleanly: the submitter always gets a reply, never a
    /// wrong payload and never silence.
    fn fail_job(&mut self, ctx: &mut Ctx<'_>, id: u64, counter: &'static str) {
        ctx.world().stats.counter(counter).add(1);
        let Some(j) = self.jobs.remove(&id) else {
            return;
        };
        let mut breakdown = j.engine_bd.unwrap_or_default();
        breakdown.add(Category::DeviceControl, j.driver_ns);
        let now = ctx.now();
        ctx.world().obs.req_end(id, "host:failed", now);
        ctx.send_now(
            j.job.reply_to,
            D2dDone {
                id,
                ok: false,
                breakdown,
                digest: None,
                payload_len: 0,
            },
        );
    }

    fn submit(&mut self, ctx: &mut Ctx<'_>, id: u64, cmd: D2dCommand, aux: Option<Vec<u8>>) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        job.submitted_at = ctx.now();
        {
            let now = ctx.now();
            let obs = &mut ctx.world().obs;
            obs.span_end("host", "submit-cpu", id, now);
            obs.mark(id, "host:ioctl+metadata", now);
        }
        match aux {
            Some(blob) => {
                // Stage aux in host DRAM, DMA it into the engine's aux
                // buffer, and write the command once the DMA lands.
                let aux_off = match cmd.ops.iter().find_map(|o| match o {
                    DevOpCode::Process {
                        aux_off, aux_len, ..
                    } if *aux_len > 0 => Some(*aux_off),
                    _ => None,
                }) {
                    Some(off) => off,
                    None => unreachable!("aux blob without a Process op"),
                };
                let staging = self.layout.aux_staging + (id % 64) * 64;
                ctx.world().expect_mut::<PhysMemory>().write(staging, &blob);
                self.send_aux_dma(ctx, id, cmd, aux_off, blob.len());
            }
            None => {
                let fabric = self.fabric;
                ctx.send_now(
                    fabric,
                    MmioWrite {
                        addr: self.cmd_queue,
                        data: cmd.to_bytes().to_vec(),
                    },
                );
            }
        }
    }

    /// DMAs the staged aux block into the engine's aux buffer, parking the
    /// command as the continuation. The CpuPhase slot doubles as the DMA
    /// continuation: the token comes back via [`DmaComplete`] instead of
    /// [`CpuJobDone`].
    fn send_aux_dma(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: u64,
        cmd: D2dCommand,
        aux_off: u32,
        len: usize,
    ) {
        let staging = self.layout.aux_staging + (id % 64) * 64;
        let token = self.next_token;
        self.next_token += 1;
        self.cpu_phases
            .insert(token, CpuPhase::Submit { id, cmd, aux: None });
        let fabric = self.fabric;
        ctx.send_now(
            fabric,
            DmaRequest {
                id: token,
                src: staging,
                dst: self.engine_aux_base + aux_off as u64,
                len,
                class: TlpClass::Data,
                reply_to: ctx.self_id(),
            },
        );
    }

    /// A poisoned/timed-out aux-staging DMA. The staging bytes in host
    /// DRAM are intact, so one clean re-DMA usually recovers; a second
    /// failure fails the job rather than submitting a command whose aux
    /// block is suspect.
    fn on_bad_aux_dma(&mut self, ctx: &mut Ctx<'_>, id: u64, cmd: D2dCommand) {
        ctx.world().stats.counter("hdc.drv_bad_aux_dmas").add(1);
        let attempts = match self.jobs.get_mut(&id) {
            Some(j) => {
                j.aux_attempts += 1;
                j.aux_attempts
            }
            None => return,
        };
        let aux = cmd.ops.iter().find_map(|o| match o {
            DevOpCode::Process {
                aux_off, aux_len, ..
            } if *aux_len > 0 => Some((*aux_off, *aux_len as usize)),
            _ => None,
        });
        match aux {
            Some((aux_off, len)) if attempts <= 1 => self.send_aux_dma(ctx, id, cmd, aux_off, len),
            _ => self.fail_job(ctx, id, "hdc.drv_aux_failures"),
        }
    }

    fn drain_completions(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let slot =
                self.layout.completion_ring + self.comp_head as u64 * CompletionRecord::SIZE as u64;
            let (record, crc_ok) = {
                let mem = ctx.world_ref().expect::<PhysMemory>();
                let raw: [u8; CompletionRecord::SIZE] = mem
                    .read(slot, CompletionRecord::SIZE)
                    .try_into()
                    .expect("64 bytes");
                (
                    CompletionRecord::from_bytes(&raw, self.comp_phase),
                    CompletionRecord::verify(&raw),
                )
            };
            let Some(record) = record else { break };
            if !crc_ok {
                // A corrupted completion record: consume the slot so the
                // ring keeps moving, but never trust its fields. The fault
                // was already attributed when the TLP crossed the fabric;
                // the owning job is recovered by the engine's record
                // rewrite or, failing that, by this driver's poll timeout.
                ctx.world().stats.counter("hdc.drv_bad_records").add(1);
                ctx.world()
                    .expect_mut::<PhysMemory>()
                    .write(slot, &[0u8; CompletionRecord::SIZE]);
                self.comp_head += 1;
                if self.comp_head == self.layout.completion_depth {
                    self.comp_head = 0;
                    self.comp_phase = !self.comp_phase;
                }
                continue;
            }
            ctx.world().stats.counter("hdc.driver_records").add(1);
            // Clear the slot so a stale same-phase record is never re-read.
            ctx.world()
                .expect_mut::<PhysMemory>()
                .write(slot, &[0u8; CompletionRecord::SIZE]);
            self.comp_head += 1;
            if self.comp_head == self.layout.completion_depth {
                self.comp_head = 0;
                self.comp_phase = !self.comp_phase;
            }
            let id = record.id;
            if let Some(j) = self.jobs.get_mut(&id) {
                j.completion_ns = self.costs.hdc_completion_ns;
                j.record = Some(record);
            }
            self.try_finish(ctx, id);
        }
    }

    fn try_finish(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let ready = self
            .jobs
            .get(&id)
            .is_some_and(|j| j.record.is_some() && j.engine_bd.is_some());
        if !ready {
            return;
        }
        let j = self.jobs.remove(&id).expect("checked");
        let record = j.record.expect("checked");
        let mut breakdown = j.engine_bd.expect("checked");
        breakdown.add(Category::DeviceControl, j.driver_ns);
        breakdown.add(Category::RequestCompletion, j.completion_ns);
        ctx.world().stats.counter("hdc.jobs_done").add(1);
        let now = ctx.now();
        ctx.world().obs.req_end(id, "host:irq+completion", now);
        ctx.send_now(
            j.job.reply_to,
            D2dDone {
                id,
                ok: record.ok,
                breakdown,
                digest: (!record.digest.is_empty()).then_some(record.digest),
                payload_len: record.payload_len as usize,
            },
        );
    }
}

impl Component for HdcDriver {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<D2dJob>() {
            Ok(job) => {
                self.on_job(ctx, job);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<CpuJobDone>() {
            Ok(done) => {
                match self.cpu_phases.remove(&done.token).expect("live cpu phase") {
                    CpuPhase::Submit { id, cmd, aux } => self.submit(ctx, id, cmd, aux),
                    CpuPhase::Complete => self.drain_completions(ctx),
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<DmaComplete>() {
            Ok(done) => {
                // Aux staging DMA finished: now write the command.
                let Some(phase) = self.cpu_phases.remove(&done.id) else {
                    ctx.world().stats.counter("hdc.drv_stale_dmas").add(1);
                    return;
                };
                let CpuPhase::Submit { id, cmd, aux: None } = phase else {
                    panic!("unexpected continuation for aux DMA")
                };
                if !done.status.is_ok() {
                    self.on_bad_aux_dma(ctx, id, cmd);
                    return;
                }
                let fabric = self.fabric;
                ctx.send_now(
                    fabric,
                    MmioWrite {
                        addr: self.cmd_queue,
                        data: cmd.to_bytes().to_vec(),
                    },
                );
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<EngineBreakdown>() {
            Ok(eb) => {
                ctx.world().stats.counter("hdc.driver_engine_bd").add(1);
                if let Some(j) = self.jobs.get_mut(&eb.id) {
                    j.engine_bd = Some(eb.breakdown);
                }
                let id = eb.id;
                self.try_finish(ctx, id);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RingPoll>() {
            Ok(RingPoll) => {
                self.on_poll(ctx);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<MsiDelivery>() {
            Ok(d) => {
                assert_eq!(d.vector, 0x80, "driver handles only engine completions");
                // Interrupt + completion handling on the CPU, then drain.
                let cost = self.costs.irq_entry_ns + self.costs.hdc_completion_ns;
                // Tag under the oldest outstanding job's tag.
                let tag = self
                    .jobs
                    .values()
                    .min_by_key(|j| j.submitted_at)
                    .map(|j| j.job.tag)
                    .unwrap_or("hdc-driver");
                self.cpu_job(ctx, cost, tag, CpuPhase::Complete);
            }
            Err(other) => panic!("HdcDriver received unexpected message: {other:?}"),
        }
    }
}
