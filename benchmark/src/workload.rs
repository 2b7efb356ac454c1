//! The six workloads: what each runs, why it exists, and how `--seed`
//! turns into the specs the stack sees.
//!
//! Every op is a [`JobSpec`] — the stack's own wire form of a job — so
//! the same generated spec can be pushed through the daemon, handed to
//! an in-process engine, or lowered to a [`RuntimeConfig`] and run on
//! the bare runtime. The program under test only ever sees these specs.

use torus_runtime::{
    CollectiveOp, CollectivePlan, Dtype, FaultPlan, JobOp, ReduceOp, Runtime, RuntimeConfig,
};
use torus_service::PayloadSpec;
use torus_serviced::{checksum, FaultSpec, JobSpec, RetrySpec};
use torus_topology::TorusShape;

/// How a workload reaches the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// Direct `Runtime::run()` calls: the library user's view.
    Lib,
    /// Jobs submitted over loopback TCP to an in-process daemon with a
    /// journal: the service user's view.
    Wire,
}

/// How a workload's op list is generated from the seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// One pattern-payload exchange: `Runtime::run()` seeds its own
    /// payloads, so the seed has nothing to vary.
    Pattern,
    /// Groups of five faulty exchanges and one clean (see
    /// [`Workload::faulty_specs`]).
    Faulty,
    /// Seeded-payload all-to-all jobs, a distinct payload seed each.
    Seeded,
    /// The six [`COLLECTIVES`], cycling, seeded payloads.
    Collectives,
}

/// One workload's fixed shape. Only `--seed` varies between runs.
#[derive(Debug)]
pub struct Workload {
    /// Contract name (`BENCHMARK.json`, README, later issues).
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// Library calls or wire jobs.
    pub path: Path,
    /// What the ops are.
    pub mix: Mix,
    /// Torus extents of every op.
    pub dims: &'static [u32],
    /// Payload bytes per block.
    pub block_bytes: usize,
    /// Client connections (wire), each driven by its own thread.
    pub connections: usize,
    /// Ops a connection submits before collecting any (1 = one at a
    /// time; 64 = `submit_batch` of 64, then collect all).
    pub batch: usize,
    /// Ops in the generated list; the timed loop cycles through it.
    pub list_len: usize,
    /// Ops in one repetition of the mix (one faulty:clean group, one
    /// cycle of the six collectives, one batch per connection); samples
    /// are always whole groups.
    pub group: usize,
    /// Ops handed to the rig per iteration of the timed loop: a whole
    /// number of groups, so every run measures the same mix.
    pub slab: usize,
    /// Warm-up ops per set-up (at least one per distinct plan key).
    pub warmup: usize,
    /// Ops replayed by the traced pass at `--seconds 10`.
    pub trace_ops: usize,
    /// Run with the cores kept from idling (see [`crate::awake`]): only
    /// where hand-offs between many threads pace the result. Elsewhere
    /// it buys nothing and costs the single busy thread ~10 % (the two
    /// vCPUs share execution resources).
    pub keep_awake: bool,
}

/// Drops every faulty `lib_faulty` exchange must recover from.
pub const FAULTY_DROPS: usize = 3;
/// Background drop rate of the faulty exchanges.
pub const FAULTY_DROP_RATE: f64 = 0.01;
/// Retry policy of the faulty exchanges: 25 ms receive deadline, 1 ms
/// base backoff (the flat per-drop cost ROADMAP item 2 wants gone).
pub const FAULTY_RETRY: RetrySpec = RetrySpec {
    deadline_ms: 25,
    max_retries: 4,
    backoff_us: 1000,
};

/// The workloads, in the order the suite runs them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "lib_bulk",
        why: "library exchange on the n-D path (4x4x4 x 1 KiB): runtime does all the work, shows data-plane gains undiluted",
        path: Path::Lib,
        mix: Mix::Pattern,
        dims: &[4, 4, 4],
        block_bytes: 1024,
        connections: 0,
        batch: 1,
        list_len: 1,
        group: 1,
        slab: 1,
        warmup: 3,
        trace_ops: 30,
        keep_awake: false,
    },
    Workload {
        name: "lib_faulty",
        why: "8x8 x 64 B with 3 dropped frames per exchange (5 faulty : 1 clean): the recovery path and small blocks, where selection not CRC dominates",
        path: Path::Lib,
        mix: Mix::Faulty,
        dims: &[8, 8],
        block_bytes: 64,
        connections: 0,
        batch: 1,
        list_len: 30,
        group: 6,
        slab: 6,
        warmup: 6,
        trace_ops: 30,
        keep_awake: false,
    },
    Workload {
        name: "wire_small",
        why: "one-at-a-time 4x4 x 64 B jobs through daemon + journal: per-job fixed cost dominates, data-plane changes must not move it",
        path: Path::Wire,
        mix: Mix::Seeded,
        dims: &[4, 4],
        block_bytes: 64,
        connections: 1,
        batch: 1,
        list_len: 64,
        group: 1,
        slab: 1,
        warmup: 50,
        trace_ops: 30,
        keep_awake: false,
    },
    Workload {
        name: "wire_bulk",
        why: "one-at-a-time 8x8 x 1 KiB jobs through daemon + journal: ROADMAP's end-to-end path with the run dominant",
        path: Path::Wire,
        mix: Mix::Seeded,
        dims: &[8, 8],
        block_bytes: 1024,
        connections: 1,
        batch: 1,
        list_len: 8,
        group: 1,
        slab: 1,
        warmup: 3,
        trace_ops: 30,
        keep_awake: false,
    },
    Workload {
        name: "wire_burst",
        why: "2 connections pipelining batches of 64 4x4 x 64 B jobs: throughput under group commit, reply queue and two drivers",
        path: Path::Wire,
        mix: Mix::Seeded,
        dims: &[4, 4],
        block_bytes: 64,
        connections: 2,
        batch: 64,
        list_len: 128,
        group: 128,
        // Eight batches per connection between joins of the two client
        // threads, so the connections run free of each other.
        slab: 1024,
        warmup: 512,
        trace_ops: 128,
        keep_awake: true,
    },
    Workload {
        name: "wire_collectives",
        why: "one-at-a-time 8x8 x 1 KiB broadcast/scatter/gather/allgather/reduce/allreduce: collective lowering and the second executor",
        path: Path::Wire,
        mix: Mix::Collectives,
        dims: &[8, 8],
        block_bytes: 1024,
        connections: 1,
        batch: 1,
        list_len: 36,
        group: 6,
        slab: 6,
        warmup: 18,
        trace_ops: 36,
        keep_awake: false,
    },
];

/// Looks a workload up by its contract name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated op with everything the correctness gate needs,
/// computed outside any timed window.
#[derive(Clone, Debug)]
pub struct Op {
    /// What the stack is asked to do.
    pub spec: JobSpec,
    /// `checksum::expected_checksum(spec)` in the daemon's hex form.
    pub expected: String,
    /// Payload bytes the op delivers: `N(N-1)m` for an all-to-all, the
    /// final holdings `sum_u |final_keys(u)| * m` for a collective;
    /// headers and retransmits excluded.
    pub payload_bytes: u64,
}

/// splitmix64: the benchmark's only random source, so a seed fully
/// determines payload seeds, fault seeds and op order.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    // Job ids and seeds cross the wire as JSON doubles: stay below 2^53.
    (z ^ (z >> 31)) >> 11
}

/// The six collectives `wire_collectives` cycles through.
pub const COLLECTIVES: [CollectiveOp; 6] = [
    CollectiveOp::Broadcast { root: 0 },
    CollectiveOp::Scatter { root: 0 },
    CollectiveOp::Gather { root: 0 },
    CollectiveOp::Allgather,
    CollectiveOp::Reduce {
        root: 0,
        op: ReduceOp::Max,
        dtype: Dtype::F32,
    },
    CollectiveOp::Allreduce {
        op: ReduceOp::Sum,
        dtype: Dtype::U64,
    },
];

impl Workload {
    /// The torus every op of this workload runs on.
    pub fn shape(&self) -> TorusShape {
        TorusShape::new(self.dims).expect("workload shapes are valid")
    }

    fn base_spec(&self) -> JobSpec {
        JobSpec {
            shape: self.dims.to_vec(),
            block_bytes: self.block_bytes,
            // One worker per job: two workers on two shared cores made
            // the same exchange bimodal (146 vs 287 ms).
            workers: Some(1),
            ..JobSpec::default()
        }
    }

    /// The op list for `seed`, in execution order.
    pub fn ops(&self, seed: u64) -> Vec<Op> {
        let specs: Vec<JobSpec> = match self.mix {
            Mix::Pattern => vec![JobSpec {
                payload: PayloadSpec::Pattern,
                ..self.base_spec()
            }],
            Mix::Faulty => self.faulty_specs(seed),
            Mix::Collectives => {
                // The six ops always follow each other in the same cyclic
                // order; the seed only picks where the cycle starts. What
                // runs next to the 4 MB allgather (and is resident with
                // it) is then the same on every seed, and any whole
                // number of cycles is the same mix.
                let start = mix(seed, 1000) % 6;
                (0..self.list_len as u64)
                    .map(|i| JobSpec {
                        op: JobOp::Collective(COLLECTIVES[((start + i) % 6) as usize]),
                        payload: PayloadSpec::Seeded { seed: mix(seed, i) },
                        ..self.base_spec()
                    })
                    .collect()
            }
            Mix::Seeded => (0..self.list_len as u64)
                .map(|i| JobSpec {
                    payload: PayloadSpec::Seeded { seed: mix(seed, i) },
                    ..self.base_spec()
                })
                .collect(),
        };
        let shape = self.shape();
        let nn = shape.num_nodes() as u64;
        specs
            .into_iter()
            .map(|spec| {
                let blocks = match spec.op {
                    JobOp::Alltoall => nn * (nn - 1),
                    JobOp::Collective(op) => {
                        let plan = CollectivePlan::new(&shape, op).expect("collective lowers");
                        (0..nn as u32)
                            .map(|u| plan.final_keys(u).len() as u64)
                            .sum()
                    }
                };
                Op {
                    expected: checksum::to_hex(checksum::expected_checksum(&spec)),
                    payload_bytes: blocks * spec.block_bytes as u64,
                    spec,
                }
            })
            .collect()
    }

    /// `lib_faulty`: per group of six, five exchanges under
    /// `FaultPlan::seeded(s).with_drop_rate(0.01)` and one clean, the
    /// clean one at a seeded position.
    ///
    /// Fault seeds come from `seed`, but only plans that drop exactly
    /// [`FAULTY_DROPS`] first-attempt frames are kept (counted offline
    /// through the public `FaultPlan::message_faults` over the step
    /// plan's sends). Each recovery costs a flat 25 ms, so with a free
    /// drop count the medians jump between 25 ms quanta from seed to
    /// seed; with a fixed count every faulty exchange pays for the same
    /// number of recoveries and only their position varies.
    fn faulty_specs(&self, seed: u64) -> Vec<JobSpec> {
        let runtime =
            Runtime::new(&self.shape(), RuntimeConfig::default()).expect("8x8 plan builds");
        let sends: Vec<(usize, u32, u32)> = runtime
            .plan()
            .phases()
            .iter()
            .flat_map(|p| p.steps.iter())
            .enumerate()
            .flat_map(|(g, step)| step.sends.iter().flatten().map(move |s| (g, s.src, s.dst)))
            .collect();
        let mut candidate = 0u64;
        let mut next_fault_seed = || loop {
            let s = mix(seed, 5000 + candidate);
            candidate += 1;
            let plan = FaultPlan::seeded(s).with_drop_rate(FAULTY_DROP_RATE);
            let drops = sends
                .iter()
                .filter(|&&(g, src, dst)| !plan.message_faults(g, src, dst, 0).is_empty())
                .count();
            if drops == FAULTY_DROPS {
                return s;
            }
        };
        (0..self.list_len as u64)
            .map(|i| {
                let clean_slot = mix(seed, 2000 + i / 6) % 6;
                let fault = (i % 6 != clean_slot).then(|| FaultSpec {
                    drop_rate: FAULTY_DROP_RATE,
                    corrupt_rate: 0.0,
                    seed: next_fault_seed(),
                    worker_kill: None,
                    worker_stall: None,
                });
                JobSpec {
                    payload: PayloadSpec::Pattern,
                    retry: fault.is_some().then_some(FAULTY_RETRY),
                    fault,
                    ..self.base_spec()
                }
            })
            .collect()
    }

    /// Ops the traced pass replays for a `--seconds` budget: the full
    /// sample from 10 s up, proportionally fewer below, always whole
    /// groups so the per-op counts stay exact.
    pub fn trace_sample(&self, seconds: u64) -> usize {
        let scaled = (self.trace_ops as u64 * seconds.min(10)).div_ceil(10) as usize;
        scaled.div_ceil(self.group).max(1) * self.group
    }
}
