//! Host cost per call: times the public functions of each layer on the
//! operand mix the workload produces.
//!
//! Every probe repeats its operation in batches until a time budget is
//! spent and reports the mean cost, so the result reflects steady-state
//! host speed rather than one cold call. Operands come from the
//! workload's generated configuration and the benchmark seed: object
//! sizes from the rack's size distribution or the store's value size,
//! keys from the rack's object-id draw or the tenant's YCSB generator,
//! and the copy size from the window's mean DMA size.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dcs_cluster::HashRing;
use dcs_core::buffers::CHUNK_SIZE;
use dcs_core::{ChunkAllocator, CompletionRecord, D2dCommand, DevOpCode};
use dcs_ndp::NdpFunction;
use dcs_nic::headers::{build_frame, parse_frame};
use dcs_nic::{NicConfig, TcpFlow};
use dcs_pcie::{PhysAddr, PhysMemory, PortId};
use dcs_sim::{Component, ComponentId, Ctx, Msg, Rng, Simulator};
use dcs_store::qos::QosQueue;
use dcs_store::ReadCache;
use dcs_workloads::ycsb::{StoreOpKind, YcsbGenerator};

use crate::Target;

/// Host time each probe spends on its operation.
const BUDGET: Duration = Duration::from_millis(150);

/// Operands drawn for a probe; reused cyclically.
const OPERANDS: usize = 4096;

/// Runs `op` in batches until [`BUDGET`] is spent; returns the mean host
/// nanoseconds per call and the number of calls made.
fn time_per_call(mut op: impl FnMut(usize)) -> (f64, u64) {
    const BATCH: usize = 64;
    let mut calls = 0u64;
    let mut i = 0usize;
    // dcs-lint: allow(wall-clock) — unit-cost probes time library calls from outside any simulation
    let start = Instant::now();
    loop {
        for _ in 0..BATCH {
            op(i);
            i = i.wrapping_add(1);
        }
        calls += BATCH as u64;
        let spent = start.elapsed();
        if spent >= BUDGET {
            return (spent.as_nanos() as f64 / calls as f64, calls);
        }
    }
}

/// Gbps achieved by `op` over operand sizes `sizes` (bytes per call).
fn gbps_over(sizes: &[usize], mut op: impl FnMut(usize)) -> f64 {
    let mut bytes = 0u64;
    let (ns, calls) = time_per_call(|i| {
        let len = sizes[i % sizes.len()];
        bytes += len as u64;
        op(len);
    });
    bytes as f64 * 8.0 / (ns * calls as f64)
}

/// The workload's payload sizes: rack object sizes drawn from its size
/// distribution, or the store tenant's fixed value size.
fn payload_sizes(target: &Target, seed: u64) -> Vec<usize> {
    match target {
        Target::Rack(cfg) => {
            let mut rng = Rng::new(seed);
            (0..OPERANDS).map(|_| cfg.sizes.sample(&mut rng)).collect()
        }
        Target::Store(cfg) => vec![cfg.tenants[0].value_bytes],
    }
}

/// One key-stream operation: the key and whether it writes.
type KeyOp = (u64, bool);

/// The workload's key stream: the rack's uniform object ids with its
/// GET/PUT split, or the store tenant's YCSB operations.
fn key_stream(target: &Target, seed: u64) -> Vec<KeyOp> {
    let mut rng = Rng::new(seed);
    match target {
        Target::Rack(cfg) => (0..OPERANDS)
            .map(|_| {
                let object = rng.gen_range(0..cfg.objects);
                (object, !rng.gen_bool(cfg.get_fraction))
            })
            .collect(),
        Target::Store(cfg) => {
            let t = &cfg.tenants[0];
            let mut gen = YcsbGenerator::new(t.workload, t.keys, t.theta);
            (0..OPERANDS)
                .map(|_| {
                    let op = gen.next_op(&mut rng);
                    (op.key, op.kind.is_write())
                })
                .collect()
        }
    }
}

/// Host throughput of `dcs_ndp` hash kernels over the workload's payload
/// sizes: `(md5, crc32, sha256)` in Gbps.
pub fn ndp_gbps(target: &Target, seed: u64) -> (f64, f64, f64) {
    let sizes = payload_sizes(target, seed);
    let max = sizes.iter().copied().max().unwrap_or(4096);
    let mut data = vec![0u8; max];
    Rng::new(seed ^ 0xDA7A).fill_bytes(&mut data);
    let md5 = gbps_over(&sizes, |len| {
        black_box(dcs_ndp::md5::md5(black_box(&data[..len])));
    });
    let crc = gbps_over(&sizes, |len| {
        black_box(dcs_ndp::crc32::crc32(black_box(&data[..len])));
    });
    let sha = gbps_over(&sizes, |len| {
        black_box(dcs_ndp::sha256::sha256(black_box(&data[..len])));
    });
    (md5, crc, sha)
}

/// Host throughput of `PhysMemory::write`, `read_into` and `copy` at
/// `len` bytes per call (the window's mean DMA size), Gbps.
pub fn mem_copy_gbps(len: usize, seed: u64) -> f64 {
    let len = len.max(1);
    let mut mem = PhysMemory::new();
    let span = (len as u64 * 64).max(1 << 20);
    let a = mem.alloc_region("probe-a", span, PortId(0));
    let b = mem.alloc_region("probe-b", span, PortId(1));
    let mut data = vec![0u8; len];
    Rng::new(seed).fill_bytes(&mut data);
    let mut out = vec![0u8; len];
    let slots = span / len as u64;
    let at = |base: PhysAddr, i: usize| PhysAddr(base.0 + (i as u64 % slots) * len as u64);
    let mut i = 0usize;
    // Each call moves `len` bytes three times.
    gbps_over(&[3 * len], |_| {
        mem.write(at(a.start, i), black_box(&data));
        mem.read_into(at(a.start, i), black_box(&mut out));
        mem.copy(at(a.start, i), at(b.start, i), len);
        i += 1;
    })
}

/// Host nanoseconds to build and parse one MSS-sized TCP frame.
pub fn frame_ns(seed: u64) -> f64 {
    let mss = NicConfig::default().mss;
    let flow = TcpFlow::example(1, 2, 40_000, 9_000);
    let mut payload = vec![0u8; mss];
    Rng::new(seed).fill_bytes(&mut payload);
    time_per_call(|i| {
        let frame = build_frame(&flow, i as u32, 0, black_box(&payload));
        black_box(parse_frame(&frame).expect("a built frame parses"));
    })
    .0
}

/// Host nanoseconds to encode and decode one `D2dCommand` and one
/// `CompletionRecord` (the HDC engine's 64-byte host interface).
pub fn cmd_codec_ns() -> f64 {
    let cmd = D2dCommand {
        id: 7,
        ops: vec![
            DevOpCode::SsdRead {
                ssd: 0,
                lba: 4096,
                len: 128 * 1024,
            },
            DevOpCode::Process {
                function: NdpFunction::Md5,
                aux_off: 0,
                aux_len: 0,
            },
            DevOpCode::NicSend { conn: 3, seq: 1 },
        ],
    };
    let rec = CompletionRecord {
        id: 7,
        ok: true,
        phase: true,
        payload_len: 128 * 1024,
        digest: vec![0xAB; 16],
    };
    time_per_call(|i| {
        let mut c = cmd.clone();
        c.id = i as u64;
        let b = c.to_bytes();
        black_box(D2dCommand::from_bytes(black_box(&b)).expect("round trip"));
        let r = rec.to_bytes();
        black_box(CompletionRecord::from_bytes(black_box(&r), true).expect("round trip"));
    })
    .0
}

/// Host nanoseconds for one 64 KiB chunk alloc plus free.
pub fn buffer_ns() -> f64 {
    let region = dcs_pcie::AddrRange::new(PhysAddr(1 << 32), 1 << 30);
    let mut alloc = ChunkAllocator::new(region);
    // Keep the allocator half full so the search is not trivially short.
    let held: Vec<_> = (0..alloc.capacity() / 2)
        .map(|_| alloc.alloc(CHUNK_SIZE as usize).expect("room"))
        .collect();
    let ns = time_per_call(|_| {
        let r = alloc.alloc(CHUNK_SIZE as usize).expect("room");
        alloc.free(black_box(r));
    })
    .0;
    black_box(held);
    ns
}

/// Host nanoseconds per `HashRing::preference_list` over the workload's
/// ring and key stream.
pub fn ring_lookup_ns(target: &Target, seed: u64) -> f64 {
    let (nodes, vnodes, replication) = match target {
        Target::Rack(c) => (c.nodes, c.vnodes_per_node, c.replication),
        Target::Store(c) => (c.nodes, c.vnodes_per_node, c.replication),
    };
    let ring = HashRing::new(nodes, vnodes, replication);
    let keys = key_stream(target, seed);
    time_per_call(|i| {
        black_box(ring.preference_list(black_box(keys[i % keys.len()].0), replication));
    })
    .0
}

/// Host nanoseconds per `ReadCache` operation on the workload's key
/// stream: writes invalidate, reads look up and admit on a miss.
pub fn cache_op_ns(target: &Target, seed: u64) -> f64 {
    let (cfg, len) = match target {
        Target::Rack(_) => (
            dcs_store::CacheConfig {
                capacity_bytes: 64 << 20,
                ..Default::default()
            },
            128 * 1024,
        ),
        Target::Store(c) => (c.cache, c.tenants[0].value_bytes as u64),
    };
    let mut cache = ReadCache::new(&cfg);
    let keys = key_stream(target, seed);
    time_per_call(|i| {
        let (key, write) = keys[i % keys.len()];
        if write {
            black_box(cache.invalidate(key));
        } else if cache.lookup(key).is_none() {
            cache.admit(key, len, 0, false);
        }
    })
    .0
}

/// Host nanoseconds per `QosQueue` push plus pop, with the queue held at
/// its per-tenant bound.
pub fn wfq_op_ns(target: &Target) -> f64 {
    let (policy, cap, len) = match target {
        Target::Rack(c) => (dcs_store::QosPolicy::Wfq, c.queue_cap, 128 * 1024),
        Target::Store(c) => (c.qos, c.queue_cap, c.tenants[0].value_bytes),
    };
    let mut q: QosQueue<u64> = QosQueue::new(policy, &[1.0], cap);
    for i in 0..cap as u64 - 1 {
        q.try_push(0, len as f64, i).expect("below the bound");
    }
    time_per_call(|i| {
        q.try_push(0, len as f64, i as u64)
            .expect("below the bound");
        black_box(q.pop());
    })
    .0
}

/// Host nanoseconds per generated request: `YcsbGenerator::next_op` for
/// the store, the Swift-mix draw (object, size, GET/PUT) for the rack.
pub fn op_gen_ns(target: &Target, seed: u64) -> f64 {
    let mut rng = Rng::new(seed);
    match target {
        Target::Rack(cfg) => {
            time_per_call(|_| {
                black_box(rng.gen_range(0..cfg.objects));
                black_box(cfg.sizes.sample(&mut rng));
                black_box(rng.gen_bool(cfg.get_fraction));
            })
            .0
        }
        Target::Store(cfg) => {
            let t = &cfg.tenants[0];
            let mut gen = YcsbGenerator::new(t.workload, t.keys, t.theta);
            time_per_call(|_| {
                let op = gen.next_op(&mut rng);
                black_box(matches!(op.kind, StoreOpKind::Get));
            })
            .0
        }
    }
}

#[derive(Debug)]
struct Ball;

/// One side of a ping-pong rally.
struct Pinger {
    peer: ComponentId,
    remaining: u64,
}

impl Component for Pinger {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        msg.downcast::<Ball>().expect("pingers only see balls");
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send_in(100, self.peer, Ball);
        }
    }
}

/// The kernel's dispatch floor: host nanoseconds per event of a two-
/// component ping-pong on the public `Simulator` API.
pub fn ns_per_event() -> f64 {
    const BOUNCES: u64 = 2_000_000;
    let mut sim = Simulator::new(1);
    let a = sim.reserve("ping");
    let b = sim.reserve("pong");
    sim.install(
        a,
        Pinger {
            peer: b,
            remaining: BOUNCES / 2,
        },
    );
    sim.install(
        b,
        Pinger {
            peer: a,
            remaining: BOUNCES / 2,
        },
    );
    sim.kickoff(a, Ball);
    // dcs-lint: allow(wall-clock) — unit-cost probes time library calls from outside any simulation
    let start = Instant::now();
    sim.run();
    start.elapsed().as_nanos() as f64 / sim.delivered_events() as f64
}
