//! The traced run: each cell rebuilt from the simulator's public pieces
//! (`Vmm`, `CollectorKind::build_with_policy`, `JvmProcess`, `Engine`,
//! `Signalmem`, `Scheduler`), with every heap and program wrapped in a shim
//! that records host time, simulated time and paging-counter deltas around
//! each call into its layer.
//!
//! The same assembly, without shims, is what `setup_s` times.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use heap::{AllocKind, CollectKind, GcHeap, GcStats, Handle, MemCtx, MetricsSnapshot, OutOfMemory};
use simtime::{CostModel, Nanos, PauseLog};
use simulate::{Engine, JvmProcess, Program, ProgramStatus, Scheduler, Signalmem};
use telemetry::Tracer;
use vmm::{VmStats, Vmm, VmmConfig};

use crate::workload::{tenant_prog, Cell, CellOutcome, JvmOutcome, Prog, Shape};

/// Per-layer counters and host-time spans, summed over the cells of a
/// traced round.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Host time inside the run loops (`Engine::step`, `Scheduler`).
    pub loop_host: Duration,
    /// Run-loop iterations: engine steps plus scheduler slices.
    pub loop_steps: u64,
    /// Notification deliveries as the run loops count them (the scheduler
    /// counts its own; engine deliveries are counted at the heap shim).
    pub deliveries: u64,
    /// `Program::step` calls.
    pub step_calls: u64,
    /// Host time inside `Program::step`, heap calls included.
    pub step_host: Duration,
    /// Major faults taken inside `Program::step`.
    pub step_faults: u64,
    /// Host time inside timed heap calls made by programs.
    pub heap_host: Duration,
    /// `alloc` calls.
    pub alloc_calls: u64,
    /// Host time of allocations that did not collect.
    pub alloc_host: Duration,
    /// Allocations during which a collection ran.
    pub gc_allocs: u64,
    /// Host time of collecting allocations and `collect` calls.
    pub gc_host: Duration,
    /// Simulated time of collecting allocations and `collect` calls.
    pub gc_sim: Nanos,
    /// Major faults inside collecting allocations and `collect` calls.
    pub gc_faults: u64,
    /// Objects traced inside collecting allocations and `collect` calls.
    pub gc_traced: u64,
    /// `write_ref` calls (the barrier).
    pub write_ref_calls: u64,
    /// Host time of `write_ref` calls.
    pub write_ref_host: Duration,
    /// `read_ref`, `read_data` and `write_data` calls.
    pub read_calls: u64,
    /// Host time of those calls.
    pub read_host: Duration,
    /// `handle_vm_events` calls.
    pub event_calls: u64,
    /// Host time inside `handle_vm_events`.
    pub event_host: Duration,
    /// Simulated time inside `handle_vm_events`.
    pub event_sim: Nanos,
    /// Major faults inside `handle_vm_events`.
    pub event_faults: u64,
    /// End-of-cell collector counters, summed over JVMs.
    pub gc: GcStats,
    /// End-of-cell paging counters, summed over JVMs.
    pub vm: VmStats,
    /// Heap high-water marks, summed over JVMs.
    pub pages_peak: u64,
}

type Shared = Rc<RefCell<Tally>>;

fn faults(ctx: &MemCtx<'_>) -> u64 {
    ctx.vmm.stats(ctx.pid).major_faults
}

/// Wraps a collector; forwards every `GcHeap` method explicitly, so no
/// trait default stands in for the collector's own answer.
pub struct HeapShim {
    inner: Box<dyn GcHeap>,
    tally: Shared,
}

impl HeapShim {
    /// Wraps `inner`, recording into `tally`.
    pub fn new(inner: Box<dyn GcHeap>, tally: Shared) -> HeapShim {
        HeapShim { inner, tally }
    }

    /// Runs a call that may collect, attributing it to the collector when
    /// `total_gcs` moved (or when `always_gc`).
    fn gc_span<R>(
        &mut self,
        ctx: &mut MemCtx<'_>,
        always_gc: bool,
        call: impl FnOnce(&mut dyn GcHeap, &mut MemCtx<'_>) -> R,
    ) -> (R, bool, Duration) {
        let before = *self.inner.stats();
        let (f0, s0) = (faults(ctx), ctx.clock.now());
        let t0 = Instant::now();
        let r = call(self.inner.as_mut(), ctx);
        let host = t0.elapsed();
        let after = self.inner.stats();
        let collected = always_gc || after.total_gcs() != before.total_gcs();
        let mut t = self.tally.borrow_mut();
        t.heap_host += host;
        if collected {
            t.gc_host += host;
            t.gc_sim += ctx.clock.now() - s0;
            t.gc_faults += faults(ctx) - f0;
            t.gc_traced += after.objects_traced - before.objects_traced;
        }
        (r, collected, host)
    }
}

impl GcHeap for HeapShim {
    fn alloc(&mut self, ctx: &mut MemCtx<'_>, kind: AllocKind) -> Result<Handle, OutOfMemory> {
        let (r, collected, host) = self.gc_span(ctx, false, |gc, ctx| gc.alloc(ctx, kind));
        let mut t = self.tally.borrow_mut();
        t.alloc_calls += 1;
        if collected {
            t.gc_allocs += 1;
        } else {
            t.alloc_host += host;
        }
        r
    }

    fn write_ref(&mut self, ctx: &mut MemCtx<'_>, src: Handle, field: u32, val: Option<Handle>) {
        let t0 = Instant::now();
        self.inner.write_ref(ctx, src, field, val);
        let host = t0.elapsed();
        let mut t = self.tally.borrow_mut();
        t.write_ref_calls += 1;
        t.write_ref_host += host;
        t.heap_host += host;
    }

    fn read_ref(&mut self, ctx: &mut MemCtx<'_>, src: Handle, field: u32) -> Option<Handle> {
        let t0 = Instant::now();
        let r = self.inner.read_ref(ctx, src, field);
        self.note_read(t0.elapsed());
        r
    }

    fn read_data(&mut self, ctx: &mut MemCtx<'_>, obj: Handle) {
        let t0 = Instant::now();
        self.inner.read_data(ctx, obj);
        self.note_read(t0.elapsed());
    }

    fn write_data(&mut self, ctx: &mut MemCtx<'_>, obj: Handle) {
        let t0 = Instant::now();
        self.inner.write_data(ctx, obj);
        self.note_read(t0.elapsed());
    }

    fn same_object(&self, a: Handle, b: Handle) -> bool {
        self.inner.same_object(a, b)
    }

    fn dup_handle(&mut self, h: Handle) -> Handle {
        self.inner.dup_handle(h)
    }

    fn drop_handle(&mut self, h: Handle) {
        self.inner.drop_handle(h);
    }

    fn collect(&mut self, ctx: &mut MemCtx<'_>, kind: CollectKind) {
        self.gc_span(ctx, true, |gc, ctx| gc.collect(ctx, kind));
    }

    fn handle_vm_events(&mut self, ctx: &mut MemCtx<'_>) {
        let (f0, s0) = (faults(ctx), ctx.clock.now());
        let t0 = Instant::now();
        self.inner.handle_vm_events(ctx);
        let host = t0.elapsed();
        let mut t = self.tally.borrow_mut();
        t.event_calls += 1;
        t.event_host += host;
        t.event_sim += ctx.clock.now() - s0;
        t.event_faults += faults(ctx) - f0;
    }

    fn stats(&self) -> &GcStats {
        self.inner.stats()
    }

    fn pause_log(&self) -> &PauseLog {
        self.inner.pause_log()
    }

    fn heap_pages_used(&self) -> usize {
        self.inner.heap_pages_used()
    }

    fn heap_pages_peak(&self) -> usize {
        self.inner.heap_pages_peak()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tracer(&self) -> &Tracer {
        self.inner.tracer()
    }

    fn metrics(&self, vm: &VmStats) -> MetricsSnapshot {
        self.inner.metrics(vm)
    }
}

impl HeapShim {
    fn note_read(&self, host: Duration) {
        let mut t = self.tally.borrow_mut();
        t.read_calls += 1;
        t.read_host += host;
        t.heap_host += host;
    }
}

/// Wraps a program; records each `Program::step`.
pub struct ProgramShim {
    inner: Box<dyn Program>,
    tally: Shared,
}

impl Program for ProgramShim {
    fn step(
        &mut self,
        gc: &mut dyn GcHeap,
        ctx: &mut MemCtx<'_>,
    ) -> Result<ProgramStatus, OutOfMemory> {
        let f0 = faults(ctx);
        let t0 = Instant::now();
        let r = self.inner.step(gc, ctx);
        let host = t0.elapsed();
        let mut t = self.tally.borrow_mut();
        t.step_calls += 1;
        t.step_host += host;
        t.step_faults += faults(ctx) - f0;
        r
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn progress(&self) -> f64 {
        self.inner.progress()
    }
}

/// A cell assembled and ready for its first step.
pub enum Assembled {
    /// Single- and two-JVM cells run on the discrete-event engine.
    Engine(Engine, Vec<Prog>),
    /// Fleet cells run on the time-slice scheduler.
    Fleet(Scheduler, Vec<Prog>),
}

/// Builds `cell` exactly as its public entry point would: `run_multi` for
/// single and two-JVM cells, `run_fleet` for fleets. With a tally, every
/// heap and program is wrapped in a shim.
pub fn assemble(cell: &Cell, tally: Option<&Shared>) -> Assembled {
    let wrap = |gc: Box<dyn GcHeap>, prog: Prog| -> (Box<dyn GcHeap>, Box<dyn Program>) {
        match tally {
            None => (gc, prog.make()),
            Some(t) => (
                Box::new(HeapShim::new(gc, Rc::clone(t))),
                Box::new(ProgramShim {
                    inner: prog.make(),
                    tally: Rc::clone(t),
                }),
            ),
        }
    };
    let (config, progs) = match &cell.shape {
        Shape::Single { config, prog } => (config, vec![*prog]),
        Shape::Multi { config, progs } => (config, progs.to_vec()),
        Shape::Fleet { config, base } => {
            let mut vmm = Vmm::new(
                VmmConfig::builder()
                    .memory_bytes(config.memory_bytes)
                    .shards(config.shards)
                    .build(),
                CostModel::default(),
            );
            let mut tenants = Vec::with_capacity(config.tenants);
            let mut progs = Vec::with_capacity(config.tenants);
            for i in 0..config.tenants {
                let pid = vmm.register_process();
                let gc = config.collector.build_with_policy(
                    config.tenant_heap_bytes,
                    None,
                    config.sanitize,
                    None,
                    1,
                    Tracer::disabled(),
                    &mut vmm,
                    pid,
                );
                let prog = tenant_prog(*base, i);
                let (gc, program) = wrap(gc, prog);
                tenants.push(JvmProcess::new(pid, gc, program));
                progs.push(prog);
            }
            let mut sched = Scheduler::new(vmm, config.quantum);
            sched.tenants = tenants;
            sched.max_slices = config.max_slices;
            return Assembled::Fleet(sched, progs);
        }
    };
    let mut vmm = Vmm::new(
        VmmConfig::builder()
            .memory_bytes(config.memory_bytes)
            .build(),
        config.costs.clone(),
    );
    vmm.set_tracer(config.tracer.clone());
    let mut jvms = Vec::new();
    for &prog in &progs {
        let pid = vmm.register_process();
        let gc = config.collector.build_with_policy(
            config.heap_bytes,
            config.policy,
            config.sanitize,
            config.sanitize_fault,
            config.gc_threads,
            config.tracer.clone(),
            &mut vmm,
            pid,
        );
        let (gc, program) = wrap(gc, prog);
        jvms.push(JvmProcess::new(pid, gc, program));
    }
    let signalmem = config.pressure.map(|p| {
        let pid = vmm.register_process();
        Signalmem::new(p, pid)
    });
    let mut engine = Engine::new(vmm);
    engine.jvms = jvms;
    engine.signalmem = signalmem;
    engine.max_steps = config.max_steps;
    Assembled::Engine(engine, progs)
}

/// Runs cell `index` rebuilt from the public pieces with every heap and
/// program wrapped, adding its layer counters to `tally`.
pub fn run_traced(index: usize, cell: &Cell, tally: &Shared) -> CellOutcome {
    let outcome = match assemble(cell, Some(tally)) {
        Assembled::Engine(mut engine, progs) => {
            let events_before = tally.borrow().event_calls;
            let t0 = Instant::now();
            engine.run_to_completion();
            let host = t0.elapsed();
            {
                let mut t = tally.borrow_mut();
                t.loop_host += host;
                t.loop_steps += engine.steps();
                // The engine keeps no delivery counter of its own: every
                // `handle_vm_events` call it makes is a delivery.
                t.deliveries += t.event_calls - events_before;
            }
            let jvms = engine
                .jvms
                .iter()
                .zip(progs)
                .map(|(j, prog)| JvmOutcome {
                    prog,
                    ok: j.failed.is_none(),
                    exec: j.finish_time.unwrap_or(j.clock.now()),
                    pauses: j.gc.pause_log().records().to_vec(),
                    gc: *j.gc.stats(),
                    vm: *engine.vmm.stats(j.pid),
                    pages_peak: j.gc.metrics(engine.vmm.stats(j.pid)).heap_pages_peak,
                })
                .collect();
            CellOutcome {
                cell: index,
                timed_out: engine.timed_out(),
                jvms,
            }
        }
        Assembled::Fleet(mut sched, progs) => {
            let t0 = Instant::now();
            sched.run_to_completion();
            let host = t0.elapsed();
            {
                let mut t = tally.borrow_mut();
                t.loop_host += host;
                t.loop_steps += sched.slices();
                t.deliveries += sched.total_deliveries();
            }
            let jvms = sched
                .tenants
                .iter()
                .zip(progs)
                .map(|(j, prog)| {
                    // The timed run reads the heap when the program ends;
                    // a tenant that never ended has nothing to read.
                    let ended = j.finished;
                    JvmOutcome {
                        prog,
                        ok: j.failed.is_none() && j.finish_time.is_some(),
                        exec: j.finish_time.unwrap_or(Nanos::ZERO),
                        pauses: if ended {
                            j.gc.pause_log().records().to_vec()
                        } else {
                            Vec::new()
                        },
                        gc: *j.gc.stats(),
                        vm: *sched.vmm.stats(j.pid),
                        pages_peak: if ended { j.gc.heap_pages_peak() } else { 0 },
                    }
                })
                .collect();
            CellOutcome {
                cell: index,
                timed_out: sched.timed_out(),
                jvms,
            }
        }
    };
    let mut t = tally.borrow_mut();
    for j in &outcome.jvms {
        add_gc(&mut t.gc, &j.gc);
        add_vm(&mut t.vm, &j.vm);
        t.pages_peak += j.pages_peak as u64;
    }
    outcome
}

fn add_gc(sum: &mut GcStats, s: &GcStats) {
    sum.objects_traced += s.objects_traced;
    sum.trace_packets += s.trace_packets;
    sum.trace_steals += s.trace_steals;
    sum.bookmarks_set += s.bookmarks_set;
    sum.pages_bookmark_scanned += s.pages_bookmark_scanned;
    sum.pages_relinquished += s.pages_relinquished;
    sum.pages_discarded += s.pages_discarded;
}

fn add_vm(sum: &mut VmStats, s: &VmStats) {
    sum.touches += s.touches;
    sum.major_faults += s.major_faults;
    sum.minor_faults += s.minor_faults;
    sum.evictions += s.evictions;
    sum.hard_evictions += s.hard_evictions;
    sum.notices += s.notices;
}

/// CPU seconds to assemble each cell of `cells` (VMM, heaps, programs),
/// excluding the time to tear it down again.
pub fn setup_cpu(cells: &[Cell]) -> Vec<f64> {
    cells
        .iter()
        .map(|cell| {
            let t0 = crate::stats::cpu_seconds();
            let built = assemble(cell, None);
            let spent = crate::stats::cpu_seconds() - t0;
            drop(built);
            spent
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap::{Address, RootSet};
    use simtime::{Clock, PauseKind};

    /// Every `GcHeap` method, as `Probe` logs it.
    const METHODS: [&str; 17] = [
        "alloc",
        "collect",
        "drop_handle",
        "dup_handle",
        "handle_vm_events",
        "heap_pages_peak",
        "heap_pages_used",
        "metrics",
        "name",
        "pause_log",
        "read_data",
        "read_ref",
        "same_object",
        "stats",
        "tracer",
        "write_data",
        "write_ref",
    ];

    /// A collector stand-in that logs each call and answers with values no
    /// trait default would produce.
    struct Probe {
        calls: Rc<RefCell<Vec<&'static str>>>,
        roots: RootSet,
        stats: GcStats,
        log: PauseLog,
        tracer: Tracer,
    }

    impl Probe {
        fn new(calls: Rc<RefCell<Vec<&'static str>>>) -> Probe {
            let mut log = PauseLog::new();
            log.record(Nanos(10), Nanos(3), PauseKind::Full, 1);
            Probe {
                calls,
                roots: RootSet::new(),
                stats: GcStats {
                    objects_allocated: 4242,
                    ..GcStats::default()
                },
                log,
                tracer: Tracer::disabled(),
            }
        }

        fn note(&self, method: &'static str) {
            self.calls.borrow_mut().push(method);
        }
    }

    impl GcHeap for Probe {
        fn alloc(&mut self, _: &mut MemCtx<'_>, _: AllocKind) -> Result<Handle, OutOfMemory> {
            self.note("alloc");
            Ok(self.roots.add(Address(0x100)))
        }
        fn write_ref(&mut self, _: &mut MemCtx<'_>, _: Handle, _: u32, _: Option<Handle>) {
            self.note("write_ref");
        }
        fn read_ref(&mut self, _: &mut MemCtx<'_>, _: Handle, _: u32) -> Option<Handle> {
            self.note("read_ref");
            Some(self.roots.add(Address(0x200)))
        }
        fn read_data(&mut self, _: &mut MemCtx<'_>, _: Handle) {
            self.note("read_data");
        }
        fn write_data(&mut self, _: &mut MemCtx<'_>, _: Handle) {
            self.note("write_data");
        }
        fn same_object(&self, _: Handle, _: Handle) -> bool {
            self.note("same_object");
            true
        }
        fn dup_handle(&mut self, _: Handle) -> Handle {
            self.note("dup_handle");
            self.roots.add(Address(0x300))
        }
        fn drop_handle(&mut self, _: Handle) {
            self.note("drop_handle");
        }
        fn collect(&mut self, _: &mut MemCtx<'_>, _: CollectKind) {
            self.note("collect");
        }
        fn handle_vm_events(&mut self, _: &mut MemCtx<'_>) {
            self.note("handle_vm_events");
        }
        fn stats(&self) -> &GcStats {
            self.note("stats");
            &self.stats
        }
        fn pause_log(&self) -> &PauseLog {
            self.note("pause_log");
            &self.log
        }
        fn heap_pages_used(&self) -> usize {
            self.note("heap_pages_used");
            5
        }
        fn heap_pages_peak(&self) -> usize {
            self.note("heap_pages_peak");
            77
        }
        fn name(&self) -> &'static str {
            self.note("name");
            "probe"
        }
        fn tracer(&self) -> &Tracer {
            self.note("tracer");
            &self.tracer
        }
        fn metrics(&self, vm: &VmStats) -> MetricsSnapshot {
            self.note("metrics");
            MetricsSnapshot {
                collector: "probe-metrics",
                gc: self.stats,
                vm: *vm,
                pauses: self.log.stats(),
                heap_pages_used: 6,
                heap_pages_peak: 999,
                trace: None,
            }
        }
    }

    /// A shim that let a trait default answer for the collector (as
    /// `heap_pages_peak` and `metrics` would) or dropped a call would leave
    /// a method missing from the probe's log or a probe answer unreturned.
    #[test]
    fn heap_shim_forwards_every_method() {
        let mut vmm = Vmm::new(
            VmmConfig::builder().frames(64).build(),
            CostModel::default(),
        );
        let pid = vmm.register_process();
        let mut clock = Clock::new();
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
        let calls = Rc::new(RefCell::new(Vec::new()));
        let tally = Rc::new(RefCell::new(Tally::default()));
        let mut shim = HeapShim::new(Box::new(Probe::new(Rc::clone(&calls))), Rc::clone(&tally));
        let kind = AllocKind::Scalar {
            data_words: 2,
            num_refs: 1,
        };
        let a = shim.alloc(&mut ctx, kind).expect("probe allocates");
        assert_eq!(a.index(), 0);
        shim.write_ref(&mut ctx, a, 0, None);
        assert_eq!(shim.read_ref(&mut ctx, a, 0).map(Handle::index), Some(1));
        shim.read_data(&mut ctx, a);
        shim.write_data(&mut ctx, a);
        assert!(shim.same_object(a, a));
        assert_eq!(shim.dup_handle(a).index(), 2);
        shim.drop_handle(a);
        shim.collect(&mut ctx, CollectKind::Full);
        shim.handle_vm_events(&mut ctx);
        assert_eq!(shim.stats().objects_allocated, 4242);
        assert_eq!(shim.pause_log().records().len(), 1);
        assert_eq!(shim.heap_pages_used(), 5);
        assert_eq!(shim.heap_pages_peak(), 77);
        assert_eq!(shim.name(), "probe");
        assert!(!shim.tracer().enabled());
        let m = shim.metrics(&VmStats::default());
        assert_eq!((m.collector, m.heap_pages_peak), ("probe-metrics", 999));

        let mut logged = calls.borrow().clone();
        logged.sort_unstable();
        logged.dedup();
        assert_eq!(logged, METHODS);

        let t = tally.borrow();
        assert_eq!(
            (
                t.alloc_calls,
                t.write_ref_calls,
                t.read_calls,
                t.event_calls
            ),
            (1, 1, 3, 1)
        );
    }
}
