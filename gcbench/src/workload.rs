//! The three workloads, their cells, and the timed run of a cell through
//! the simulator's public entry points.
//!
//! A cell is one configuration run to completion: one `simulate::run`, one
//! two-JVM `simulate::run_multi`, or one `experiments::run_fleet`.

use std::cell::RefCell;
use std::rc::Rc;

use heap::GcStats;
use simtime::{Nanos, PauseRecord};
use simulate::experiments::{dynamic_pressure_config, run_fleet, FleetConfig};
use simulate::{run, run_multi, CollectorKind, Program, ProgramStatus, RunConfig, RunResult};
use vmm::VmStats;
use workloads::{spec, table1, BenchmarkSpec};

/// The workload names, in reporting order.
pub const NAMES: [&str; 3] = ["calm", "paging", "fleet"];

/// `calm` workload volume relative to Table 1.
const CALM_SCALE: f64 = 0.03;
/// `paging` workload volume relative to Table 1.
const PAGING_SCALE: f64 = 0.05;
/// `fleet` workload volume relative to Table 1.
const FLEET_SCALE: f64 = 0.02;

/// Simulated GC workers in `calm`: enough for the packet scheduler's
/// splitting and stealing paths to run.
const CALM_GC_THREADS: usize = 4;
/// Ample physical memory for `calm` (Figure 2's machine): no paging.
const CALM_MEMORY: usize = 512 << 20;
/// Figure 2's collectors less MarkSweep, which runs out of memory at 2x
/// the paper's minimum heap on some seeds (ipsixql, _213_javac, pseudoJBB)
/// and so cannot keep a fixed share of failed cells.
const CALM_KINDS: [CollectorKind; 5] = [
    CollectorKind::Bc,
    CollectorKind::SemiSpace,
    CollectorKind::GenCopy,
    CollectorKind::GenMs,
    CollectorKind::CopyMs,
];

/// Independent seeds per `calm` benchmark: the pooled 99th-percentile
/// pause rests on its ~20 largest pauses, which one seed moves by 10%.
const CALM_REPLICAS: usize = 2;

/// Figure 5a's collectors: BC, its resizing-only ablation, and four
/// baselines.
const FIG5A_KINDS: [CollectorKind; 6] = [
    CollectorKind::Bc,
    CollectorKind::BcResizeOnly,
    CollectorKind::SemiSpace,
    CollectorKind::GenCopy,
    CollectorKind::GenMs,
    CollectorKind::CopyMs,
];
/// Figures 4-6's available-memory axis (paper-equivalent bytes), heaviest
/// pressure last.
pub const DYNAMIC_AVAILABLE: [usize; 9] = [
    160 << 20,
    143 << 20,
    125 << 20,
    109 << 20,
    93 << 20,
    77 << 20,
    60 << 20,
    44 << 20,
    36 << 20,
];
/// Figure 7's physical-memory axis for the two-JVM cells.
const FIG7_MEMORY: [usize; 4] = [256 << 20, 224 << 20, 192 << 20, 160 << 20];
/// The two tenancies of `fleet`: moderate, and the scheduler's scale limit.
const FLEET_TENANTS: [usize; 2] = [64, 2048];
/// Independent seeds per fleet configuration. The BC 64-tenant reload
/// cascade moves its fault count by over 10% from one seed to the next;
/// pooling four inputs per run keeps the fleet's figures steady.
const FLEET_REPLICAS: usize = 4;

/// One simulated program: a Table 1 benchmark at a volume and seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prog {
    /// The benchmark.
    pub spec: BenchmarkSpec,
    /// Volume relative to Table 1.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
}

impl Prog {
    /// A fresh instance of the program.
    pub fn make(&self) -> Box<dyn Program> {
        Box::new(self.spec.program(self.scale, self.seed))
    }
}

/// What a cell runs.
#[derive(Clone, Debug)]
pub enum Shape {
    /// One JVM (`simulate::run`).
    Single { config: RunConfig, prog: Prog },
    /// Two simultaneous JVMs (`simulate::run_multi`).
    Multi { config: RunConfig, progs: [Prog; 2] },
    /// A time-sliced fleet (`experiments::run_fleet`); tenant `i` runs
    /// `tenant_prog(base, i)`.
    Fleet { config: FleetConfig, base: Prog },
}

/// One configuration run to completion.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Human-readable label for reports and check messages.
    pub label: String,
    /// The collector every JVM of the cell runs.
    pub collector: CollectorKind,
    /// Paper-equivalent available memory of a dynamic-pressure cell.
    pub available: Option<usize>,
    /// What runs.
    pub shape: Shape,
}

/// A workload: a fixed list of cells generated from a seed.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// The cells, in run order.
    pub cells: Vec<Cell>,
}

/// SplitMix64: derives independent per-benchmark seeds from the workload
/// seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tenant `i`'s program in a fleet whose tenants all run `base`.
pub fn tenant_prog(base: Prog, i: usize) -> Prog {
    Prog {
        seed: base.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..base
    }
}

/// A paper-sized byte count at `scale`, floored at 1 MiB (the figures'
/// convention).
fn scaled(paper_bytes: usize, scale: f64) -> usize {
    ((paper_bytes as f64 * scale) as usize).max(1 << 20)
}

fn pseudo_jbb() -> BenchmarkSpec {
    spec("pseudoJBB").expect("Table 1 lists pseudoJBB")
}

impl Workload {
    /// The named workload's cells at its standard scale, or `None` for an
    /// unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "calm" => Some(Workload::calm(seed, CALM_SCALE)),
            "paging" => Some(Workload::paging(seed, PAGING_SCALE)),
            "fleet" => Some(Workload::fleet(seed, FLEET_SCALE)),
            _ => None,
        }
    }

    /// The named workload at another scale (the smoke tests' tiny runs).
    #[cfg(test)]
    pub fn at_scale(name: &str, seed: u64, scale: f64) -> Workload {
        match name {
            "calm" => Workload::calm(seed, scale),
            "paging" => Workload::paging(seed, scale),
            "fleet" => Workload::fleet(seed, scale),
            _ => panic!("unknown workload {name}"),
        }
    }

    /// The nine Table 1 benchmarks x [`CALM_KINDS`], each at 2x its paper
    /// minimum heap (scaled), on an ample machine, with [`CALM_REPLICAS`]
    /// independent seeds per benchmark.
    fn calm(seed: u64, scale: f64) -> Workload {
        let mut cells = Vec::new();
        let benchmarks = table1();
        for replica in 0..CALM_REPLICAS {
            for (bi, &b) in benchmarks.iter().enumerate() {
                let prog = Prog {
                    spec: b,
                    scale,
                    seed: mix(seed, (replica * benchmarks.len() + bi) as u64),
                };
                for kind in CALM_KINDS {
                    let heap = 2 * b.scaled_min_heap(scale);
                    let mut config = RunConfig::new(kind, heap, CALM_MEMORY);
                    config.gc_threads = CALM_GC_THREADS;
                    cells.push(Cell {
                        label: format!("{} {} #{replica}", kind.label(), b.name),
                        collector: kind,
                        available: None,
                        shape: Shape::Single { config, prog },
                    });
                }
            }
        }
        Workload {
            name: "calm",
            cells,
        }
    }

    /// pseudoJBB under Figure 5a's dynamic-pressure ramp at every
    /// available-memory point, plus Figure 7's two-JVM cells. Each point,
    /// and each JVM of a two-JVM point, runs its own program seed (shared
    /// by every collector there), so the pooled figures average over
    /// seventeen inputs, not one.
    fn paging(seed: u64, scale: f64) -> Workload {
        let prog = |stream: usize| Prog {
            spec: pseudo_jbb(),
            scale,
            seed: mix(seed, stream as u64),
        };
        let mut cells = Vec::new();
        for kind in FIG5A_KINDS {
            for (ai, avail) in DYNAMIC_AVAILABLE.into_iter().enumerate() {
                let config = dynamic_pressure_config(
                    kind,
                    scaled(100 << 20, scale),
                    scaled(224 << 20, scale),
                    scaled(avail, scale),
                    scale,
                );
                cells.push(Cell {
                    label: format!("{} dynamic {}MB", kind.label(), avail >> 20),
                    collector: kind,
                    available: Some(avail),
                    shape: Shape::Single {
                        config,
                        prog: prog(ai),
                    },
                });
            }
        }
        for kind in CollectorKind::PRESSURE {
            for (mi, memory) in FIG7_MEMORY.into_iter().enumerate() {
                let config = RunConfig::new(kind, scaled(77 << 20, scale), scaled(memory, scale));
                let first = DYNAMIC_AVAILABLE.len() + 2 * mi;
                cells.push(Cell {
                    label: format!("{} 2xJVM {}MB", kind.label(), memory >> 20),
                    collector: kind,
                    available: None,
                    shape: Shape::Multi {
                        config,
                        progs: [prog(first), prog(first + 1)],
                    },
                });
            }
        }
        Workload {
            name: "paging",
            cells,
        }
    }

    /// `fig7_scale`'s constant total pseudoJBB workload split over each
    /// tenancy, for the five pressure collectors plus BC-resize, repeated
    /// with [`FLEET_REPLICAS`] independent seeds.
    fn fleet(seed: u64, scale: f64) -> Workload {
        let mut kinds = CollectorKind::PRESSURE.to_vec();
        kinds.insert(1, CollectorKind::BcResizeOnly);
        let mut cells = Vec::new();
        for replica in 0..FLEET_REPLICAS {
            for &kind in &kinds {
                for n in FLEET_TENANTS {
                    let tenant_heap = (scaled(4 * (77 << 20), scale) / n).max(512 << 10);
                    let config = FleetConfig::new(kind, n, tenant_heap, scaled(256 << 20, scale));
                    let base = Prog {
                        spec: pseudo_jbb(),
                        scale: (scale * 4.0 / n as f64).min(1.0),
                        seed: mix(seed, replica as u64),
                    };
                    cells.push(Cell {
                        label: format!("{} fleet {n} #{replica}", kind.label()),
                        collector: kind,
                        available: None,
                        shape: Shape::Fleet { config, base },
                    });
                }
            }
        }
        Workload {
            name: "fleet",
            cells,
        }
    }
}

/// The simulated outcome of one JVM (or fleet tenant).
#[derive(Clone, Debug, PartialEq)]
pub struct JvmOutcome {
    /// The program it ran.
    pub prog: Prog,
    /// Completed without running out of memory.
    pub ok: bool,
    /// Simulated execution time (finish instant; for an unfinished fleet
    /// tenant, zero).
    pub exec: Nanos,
    /// Every stop-the-world pause.
    pub pauses: Vec<PauseRecord>,
    /// Collector counters.
    pub gc: GcStats,
    /// Paging counters of this JVM's process.
    pub vm: VmStats,
    /// High-water mark of heap pages.
    pub pages_peak: usize,
}

/// The simulated outcome of one cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellOutcome {
    /// Index of the cell in its workload.
    pub cell: usize,
    /// The run loop hit its step or slice limit.
    pub timed_out: bool,
    /// One entry per JVM or tenant.
    pub jvms: Vec<JvmOutcome>,
}

impl CellOutcome {
    /// A cell fails if any JVM or tenant ran out of memory or the run loop
    /// timed out.
    pub fn ok(&self) -> bool {
        !self.timed_out && self.jvms.iter().all(|j| j.ok)
    }

    /// Simulated execution time of the cell: the latest finish.
    pub fn exec(&self) -> Nanos {
        self.jvms
            .iter()
            .map(|j| j.exec)
            .max()
            .unwrap_or(Nanos::ZERO)
    }
}

fn jvm_from_run(prog: Prog, r: &RunResult) -> JvmOutcome {
    JvmOutcome {
        prog,
        ok: !r.oom,
        exec: r.exec_time,
        pauses: r.pause_records.clone(),
        gc: r.gc,
        vm: r.vm,
        pages_peak: r.metrics.heap_pages_peak,
    }
}

/// What a fleet tenant's heap looked like when its program ended.
type FinalHeap = (Vec<PauseRecord>, usize);

/// Forwards a program and, when it finishes or fails, copies the heap's
/// pause log and peak page count into `slot`. `FleetResult` omits both;
/// reading them at the program's end costs one branch per step, and a
/// finished tenant's heap is never called again.
struct EndTap {
    inner: Box<dyn Program>,
    slot: Rc<RefCell<Option<FinalHeap>>>,
}

impl Program for EndTap {
    fn step(
        &mut self,
        gc: &mut dyn heap::GcHeap,
        ctx: &mut heap::MemCtx<'_>,
    ) -> Result<ProgramStatus, heap::OutOfMemory> {
        let status = self.inner.step(gc, ctx);
        if !matches!(status, Ok(ProgramStatus::Running)) {
            *self.slot.borrow_mut() =
                Some((gc.pause_log().records().to_vec(), gc.heap_pages_peak()));
        }
        status
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn progress(&self) -> f64 {
        self.inner.progress()
    }
}

/// Runs cell `index` of a workload through the public entry point users
/// call.
pub fn run_timed(index: usize, cell: &Cell) -> CellOutcome {
    match &cell.shape {
        Shape::Single { config, prog } => {
            let r = run(config, prog.make());
            CellOutcome {
                cell: index,
                timed_out: r.timed_out,
                jvms: vec![jvm_from_run(*prog, &r)],
            }
        }
        Shape::Multi { config, progs } => {
            let r = run_multi(config, progs.iter().map(Prog::make).collect());
            CellOutcome {
                cell: index,
                timed_out: r.jvms.iter().any(|j| j.timed_out),
                jvms: progs
                    .iter()
                    .zip(&r.jvms)
                    .map(|(p, j)| jvm_from_run(*p, j))
                    .collect(),
            }
        }
        Shape::Fleet { config, base } => {
            let slots: Vec<Rc<RefCell<Option<FinalHeap>>>> =
                (0..config.tenants).map(|_| Rc::default()).collect();
            let base = *base;
            let r = run_fleet(config, &|i| {
                Box::new(EndTap {
                    inner: tenant_prog(base, i).make(),
                    slot: Rc::clone(&slots[i]),
                })
            });
            let jvms = r
                .tenants
                .iter()
                .zip(&slots)
                .enumerate()
                .map(|(i, (t, slot))| {
                    let (pauses, pages_peak) = slot.borrow_mut().take().unwrap_or_default();
                    JvmOutcome {
                        prog: tenant_prog(base, i),
                        ok: t.ok(),
                        exec: t.finish_time.unwrap_or(Nanos::ZERO),
                        pauses,
                        gc: t.gc,
                        vm: t.vm,
                        pages_peak,
                    }
                })
                .collect();
            CellOutcome {
                cell: index,
                timed_out: r.timed_out,
                jvms,
            }
        }
    }
}
