//! Proof that the steady-state simulation loop is allocation-free.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! settling period past warm-up (during which slabs, ready queues, event
//! heaps and the task pool reach their working capacity), the measured
//! window must perform (amortized) **zero** heap
//! allocations per simulated event: every arrival, dispatch, preemption,
//! completion and abort runs on recycled storage.
//!
//! The assertion allows a small absolute number of allocations per
//! window (≤ 64 over hundreds of thousands of events) because slabs may
//! still double once if a random-walk queue depth sets a new high-water
//! mark after settling; that is still zero per event, amortized.
//!
//! Every scenario runs the serial engine on its own test thread, so the
//! counter is per thread: the test harness runs the scenarios in
//! parallel, and a process-wide count would charge each one with the
//! others' set-up allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by the current thread. `const`-initialised and
    /// without a destructor, so touching it from inside the allocator
    /// never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the current thread. `try_with` skips the
/// count instead of panicking if the thread-local is already gone.
fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations the current thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct CountingAllocator;

// SAFETY: delegates every operation verbatim to the system allocator;
// the counter is a plain thread-local cell and allocates nothing itself.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

use sda::core::{AdaptiveSlack, SdaStrategy};
use sda::sim::{Engine, SimTime};
use sda::system::{Event, Metrics, NetworkModel, SystemConfig, SystemModel};
use sda::workload::{ArrivalProcess, GlobalShape, SlackRange};

#[test]
fn counter_sees_allocations_on_the_test_thread() {
    // Without this, a counter stuck at zero would pass every budget
    // below without checking anything.
    let before = allocations();
    let buf: Vec<u64> = Vec::with_capacity(16);
    std::hint::black_box(&buf);
    assert!(
        allocations() > before,
        "an allocation on this thread went uncounted"
    );
}

#[test]
fn metrics_reset_is_allocation_free() {
    // Warm-up deletion restarts every statistic in place: `Metrics` holds
    // only fixed-size counters and tallies, so a reset allocates nothing.
    let mut m = Metrics::new();
    for i in 0..1_000 {
        let arrival = f64::from(i);
        m.local
            .record(arrival, arrival + 4.0, arrival + f64::from(i % 8));
        m.global
            .record(arrival, arrival + 6.0, arrival + f64::from(i % 12));
        m.subtask_virtual_miss.record(i % 3 == 0);
    }
    m.global.record_aborted();
    assert_eq!(m.global.completed(), 1_001);
    let before = allocations();
    m.reset();
    let allocs = allocations() - before;
    assert_eq!(allocs, 0, "Metrics::reset allocated {allocs} times");
    assert_eq!(m.local.completed() + m.global.completed(), 0);
}

/// Runs one simulation and returns `(allocations, events)` over the
/// post-settling measurement window `[settle_until, horizon]`.
fn measure_window(cfg: SystemConfig, settle_until: f64, horizon: f64) -> (u64, u64) {
    let rng = sda::sim::rng::RngFactory::new(0xA110C);
    let model = SystemModel::new(cfg, &rng).expect("valid config");
    let mut engine = Engine::new(model);
    engine
        .context_mut()
        .schedule_at(SimTime::ZERO, Event::Init { warmup_end: 500.0 });

    // Warm-up + settling: statistics reset at t = 500 (in place, with no
    // allocation), then capacities grow to their working set until
    // `settle_until`.
    engine.run_until(SimTime::from(settle_until));

    let events_before = engine.context().events_handled();
    let allocs_before = allocations();
    engine.run_until(SimTime::from(horizon));
    let allocs = allocations() - allocs_before;
    let events = engine.context().events_handled() - events_before;
    (allocs, events)
}

/// The original ρ = 0.9 EDF scenario.
fn measure(preemptive: bool) -> (u64, u64) {
    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
    cfg.workload.load = 0.9;
    cfg.preemptive = preemptive;
    measure_window(cfg, 3_000.0, 12_000.0)
}

#[test]
fn steady_state_is_allocation_free_per_event() {
    for preemptive in [false, true] {
        let (allocs, events) = measure(preemptive);
        assert!(
            events > 50_000,
            "measurement window too small: {events} events (preemptive={preemptive})"
        );
        // Amortized zero per event: allow only stray capacity doublings.
        assert!(
            allocs <= 64,
            "steady state allocated {allocs} times over {events} events \
             (preemptive={preemptive}) — the hot path regressed to \
             per-event allocation"
        );
    }
}

#[test]
fn dag_workload_steady_state_is_allocation_free_per_event() {
    // The DAG-structured task path: every arrival fills a pooled
    // `DagRun` (random layered structure, CSR successor lists, one
    // reverse push-order critical-path pass), every completion counts
    // down fan-in in-degrees and may release a multi-node wave. All of it
    // runs on recycled storage — the run's vectors retain capacity
    // across tasks, and the per-task structure is bounded (depth 4,
    // width ≤ 3), so the stationary absolute cap applies.
    //
    // The settling period is longer than the flat scenarios': a fresh
    // task-slab slot's `DagRun` grows 5 vectors from empty (nodes,
    // per-node records, staged edges, successor lists, critical-path
    // tails), and their sizes vary from task to task, so a recycled slot
    // can still regrow for a larger DAG than it has held before; the
    // random-walk population needs more time before new slot and size
    // records become rare enough for the absolute cap.
    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_div1());
    cfg.workload.shape = GlobalShape::Dag {
        depth: 4,
        max_width: 3,
        edge_density: 0.4,
    };
    cfg.workload.slack = SlackRange::PSP_BASELINE;
    cfg.workload.load = 0.85;
    let (allocs, events) = measure_window(cfg, 20_000.0, 29_000.0);
    assert!(
        events > 50_000,
        "measurement window too small: {events} events"
    );
    assert!(
        allocs <= 64,
        "DAG steady state allocated {allocs} times over {events} events — \
         the DAG task lifecycle regressed to per-event allocation"
    );
}

#[test]
fn churn_steady_state_is_allocation_free_per_event() {
    // The fault-injection surface: exponential crash/repair churn on
    // pipelines over a constant-delay network. Every crash purges a
    // node's queue into a recycled loss buffer, bumps the epoch, and
    // re-dispatches the in-flight casualties through the pooled
    // `reissue` path — all on retained storage. Crashes keep (rarely)
    // breaking queue high-water marks on the surviving nodes (each
    // outage concentrates the load on fewer servers), so assert a
    // strict rate bound like the MMPP scenario rather than the
    // stationary absolute cap.
    use sda::system::FailureModel;
    let mut cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
    cfg.workload.load = 0.7;
    cfg.network = NetworkModel::Constant { delay: 0.5 };
    cfg.failure = FailureModel::Exponential {
        mttf: 400.0,
        mttr: 50.0,
    };
    let (allocs, events) = measure_window(cfg, 12_000.0, 24_000.0);
    assert!(
        events > 50_000,
        "measurement window too small: {events} events"
    );
    assert!(
        allocs * 250 <= events,
        "churn steady state allocated {allocs} times over {events} events — \
         the crash/re-dispatch path regressed toward per-event allocation"
    );
}

#[test]
fn mmpp_adaptive_steady_state_is_allocation_free_per_event() {
    // The time-varying-workload surface: MMPP-modulated arrivals, the
    // feedback EWMA updating on every completion, and ADAPT(EQF-DIV1)
    // re-stamping the slack scale at every stage activation. The MMPP
    // phase machine and the feedback loop are plain scalar state, so
    // steady state must stay allocation-free. Burst phases also grow the
    // queues well past the stationary working set, exercising slab
    // re-use under a bigger high-water mark.
    let mut cfg = SystemConfig::combined_baseline(SdaStrategy::adaptive(
        SdaStrategy::eqf_div1(),
        AdaptiveSlack::default(),
    ));
    cfg.workload.load = 0.8;
    cfg.workload.arrivals = ArrivalProcess::Mmpp2 {
        burst_ratio: 4.0,
        dwell_quiet: 300.0,
        dwell_burst: 100.0,
    };
    let (allocs, events) = measure_window(cfg, 12_000.0, 24_000.0);
    assert!(
        events > 50_000,
        "measurement window too small: {events} events"
    );
    // Unlike the stationary scenarios, a bursty stream keeps (rarely)
    // breaking its own high-water marks: an extreme burst opens new
    // task-slab slots whose pooled `FlatRun`s grow from empty, and
    // deepens queue slabs — each record costs a handful of allocations
    // and is then retained forever. That is still amortized-zero per
    // event; assert a strict rate bound instead of the stationary
    // absolute cap. (A genuine regression to per-task allocation would
    // be ~1 allocation per ~4 events here, two orders of magnitude over
    // this budget; observed healthy value: ~1 per ~400 events.)
    assert!(
        allocs * 250 <= events,
        "MMPP + ADAPT(EQF) steady state allocated {allocs} times over \
         {events} events — the time-varying path regressed toward \
         per-event allocation"
    );
}
