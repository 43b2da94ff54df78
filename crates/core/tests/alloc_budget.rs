//! Allocation-budget regression tests for the step loop and the trace path.
//!
//! PR 2 made the hot path allocation-free in the steady state: the enabled
//! set lives in a reusable buffer and trace records store interned name ids
//! instead of freshly cloned `String`s. The only per-step allocation left is
//! the `Event` payload box the harness itself creates. A counting
//! `#[global_allocator]` asserts that budget so a future change cannot
//! silently reintroduce per-step heap traffic.
//!
//! PR 4 added two more guarantees covered here: `TraceMode::RingBuffer`
//! bounds the *peak live memory* of the annotated schedule on very long
//! executions (the allocator tracks net live bytes and their high-water
//! mark), and engines recycle trace storage across iterations, so the
//! steady-state cost of an iteration no longer includes re-growing the
//! trace vectors from scratch.
//!
//! These tests live alone in their integration-test binary (a global
//! allocator is process-wide). The counter is armed per thread, so only the
//! measuring thread's allocations count: libtest runs sibling tests'
//! unmeasured setup concurrently on other threads, and counting those made
//! the budgets fail at random on multi-core hosts. Measurement windows are
//! still serialized on a mutex because the tallies themselves are shared.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

use psharp::prelude::*;

/// Counts every allocation (and growth `realloc`) the armed thread makes,
/// and tracks the net live bytes plus their high-water mark.
struct CountingAllocator;

thread_local! {
    /// Whether this thread's allocations count. `const`-initialized and
    /// free of destructors, so reading it never allocates or registers a
    /// destructor, which keeps it safe inside `GlobalAlloc`.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

fn track_alloc(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around each call only
// reads a const thread-local and updates atomics, so it never allocates or
// re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            track_alloc(layout.size());
        }
        // SAFETY: the caller's `layout` contract is passed on to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if armed() {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` (every allocation is forwarded
        // there) with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            track_alloc(new_size);
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Serializes measurement windows: the tallies are process-global, so two
/// tests measuring concurrently would count into the same totals.
static MEASURE: Mutex<()> = Mutex::new(());

/// One armed measurement window: allocation count, peak net-new live bytes,
/// and the body's result.
fn measure<R>(body: impl FnOnce() -> R) -> (u64, u64, R) {
    let _window = MEASURE.lock().expect("measurement lock poisoned");
    ALLOCATIONS.store(0, Ordering::SeqCst);
    LIVE_BYTES.store(0, Ordering::SeqCst);
    PEAK_BYTES.store(0, Ordering::SeqCst);
    ARMED.with(|armed| armed.set(true));
    let result = body();
    ARMED.with(|armed| armed.set(false));
    (
        ALLOCATIONS.load(Ordering::SeqCst),
        PEAK_BYTES.load(Ordering::SeqCst).max(0) as u64,
        result,
    )
}

/// Runs `body` with the counter armed and returns how many allocations it
/// performed.
fn count_allocations<R>(body: impl FnOnce() -> R) -> (u64, R) {
    let (allocations, _, result) = measure(body);
    (allocations, result)
}

#[derive(Debug)]
struct Spin;

/// Self-sending machine: every step dequeues one event and enqueues one, so
/// the run reaches the step bound with exactly one `Event::new` per step.
struct Spinner;
impl Machine for Spinner {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send_to_self(Event::new(Spin));
    }
    fn handle(&mut self, ctx: &mut Context<'_>, _event: Event) {
        ctx.send_to_self(Event::new(Spin));
    }
}

/// Steady-state step cost: at most 2 allocations per step on average over a
/// long execution. The harness's own `Event::new` box accounts for 1; the
/// remainder covers amortized growth of the trace/mailbox vectors. Before the
/// interned-trace refactor the loop spent ~5 allocations per step (enabled-set
/// `Vec` plus two `String` clones into every trace record), so this budget
/// fails on a regression to that behavior.
#[test]
fn steady_state_allocations_per_step_stay_under_budget() {
    const STEPS: usize = 20_000;
    let mut rt = Runtime::new(
        SchedulerKind::Random.build(7, STEPS),
        RuntimeConfig {
            max_steps: STEPS,
            ..RuntimeConfig::default()
        },
        7,
    );
    rt.create_machine(Spinner);
    rt.create_machine(Spinner);

    let (allocations, outcome) = count_allocations(|| rt.run());
    assert_eq!(outcome, ExecutionOutcome::MaxStepsReached);
    assert_eq!(rt.steps(), STEPS);

    let per_step = allocations as f64 / STEPS as f64;
    assert!(
        per_step <= 2.0,
        "step loop allocates too much: {allocations} allocations over {STEPS} steps \
         ({per_step:.2}/step, budget 2.0)"
    );
}

/// The schedule decision path (no machine handler involvement beyond a
/// no-send handler) must not allocate at all in the steady state: this run
/// delivers pre-queued events to a machine that never sends, so `Event::new`
/// is off the hot path and the budget is a handful of amortized vector
/// growths, not one-per-step.
#[test]
fn pure_scheduling_steps_allocate_nothing_per_step() {
    const EVENTS: usize = 8_192;
    struct Sink;
    impl Machine for Sink {
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
    }
    let mut rt = Runtime::new(
        SchedulerKind::Random.build(11, EVENTS * 2),
        RuntimeConfig {
            max_steps: EVENTS * 2,
            ..RuntimeConfig::default()
        },
        11,
    );
    let sink = rt.create_machine(Sink);
    for _ in 0..EVENTS {
        rt.send(sink, Event::new(Spin));
    }

    let (allocations, outcome) = count_allocations(|| rt.run());
    assert_eq!(outcome, ExecutionOutcome::Quiescent);

    // Trace decision + step vectors double ~13 times each for 8k steps; give
    // headroom for the name-table and enabled-buffer first-touch, but stay
    // two orders of magnitude below one-allocation-per-step.
    assert!(
        allocations <= 64,
        "delivering {EVENTS} pre-queued events allocated {allocations} times; \
         the dispatch path must be allocation-free in the steady state"
    );
}

/// A runtime that inherits a previous execution's trace storage
/// ([`Runtime::recycle_trace`], the engines' cross-iteration path) records a
/// same-shaped execution without growing the trace vectors at all: the only
/// allowed allocations are the machine box, first-touch of the per-machine
/// mailbox/slot vectors, and the re-interned machine names.
#[test]
fn recycled_trace_makes_the_next_iteration_allocation_free_on_the_trace_path() {
    const EVENTS: usize = 8_192;
    struct Sink;
    impl Machine for Sink {
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
    }
    let build = || {
        Runtime::new(
            SchedulerKind::Random.build(11, EVENTS * 2),
            RuntimeConfig {
                max_steps: EVENTS * 2,
                ..RuntimeConfig::default()
            },
            11,
        )
    };

    // Warm-up execution grows the trace to its full size.
    let mut first = build();
    let sink = first.create_machine(Sink);
    for _ in 0..EVENTS {
        first.send(sink, Event::new(Spin));
    }
    assert_eq!(first.run(), ExecutionOutcome::Quiescent);
    let recycled = first.into_trace();

    // Second execution re-uses that storage: recording must not re-allocate.
    let mut second = build();
    second.recycle_trace(recycled);
    let sink = second.create_machine(Sink);
    for _ in 0..EVENTS {
        second.send(sink, Event::new(Spin));
    }
    let (allocations, outcome) = count_allocations(|| second.run());
    assert_eq!(outcome, ExecutionOutcome::Quiescent);
    assert!(
        allocations <= 8,
        "a recycled-trace execution allocated {allocations} times; \
         pre-grown trace storage must absorb the whole recording"
    );
}

/// A pooled runtime ([`Runtime::reset`], the engines' cross-iteration path)
/// replays the whole iteration lifecycle — reset, machine re-creation, event
/// delivery to quiescence — inside a small constant allocation budget: the
/// mailbox pool hands back the previous iteration's queues, the name table
/// re-interns into retained backbone storage, and the trace records into its
/// pre-grown vectors. Only the fresh machine box and the re-interned name
/// `Arc`s may allocate.
#[test]
fn pooled_runtime_iteration_stays_within_a_constant_allocation_budget() {
    const EVENTS: usize = 8_192;
    struct Sink;
    impl Machine for Sink {
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
    }
    let config = RuntimeConfig {
        max_steps: EVENTS * 2,
        ..RuntimeConfig::default()
    };

    // Warm-up iteration grows every buffer to its steady-state size.
    let mut rt = Runtime::new(
        SchedulerKind::Random.build(11, EVENTS * 2),
        config.clone(),
        11,
    );
    let sink = rt.create_machine(Sink);
    for _ in 0..EVENTS {
        rt.send(sink, Event::new(Spin));
    }
    assert_eq!(rt.run(), ExecutionOutcome::Quiescent);

    // Second iteration reuses the pooled runtime. The `Event::new` boxes are
    // the harness's own per-event cost, so they are queued outside the armed
    // window; the measured body is the engine-owned part of an iteration.
    let scheduler = SchedulerKind::Random.build(13, EVENTS * 2);
    rt.reset(scheduler, config, 13);
    let sink = rt.create_machine(Sink);
    for _ in 0..EVENTS {
        rt.send(sink, Event::new(Spin));
    }
    let (allocations, outcome) = count_allocations(|| rt.run());
    assert_eq!(outcome, ExecutionOutcome::Quiescent);
    assert_eq!(rt.steps(), EVENTS + 1);
    assert!(
        allocations <= 8,
        "a pooled-runtime iteration allocated {allocations} times; \
         reset storage must absorb the whole execution"
    );
}

/// Sixteen distinct zero-sized event types (boxing a zero-sized payload
/// never allocates), so only per-name bookkeeping can show up in a budget.
macro_rules! event_types {
    ($($name:ident),* $(,)?) => {
        $(
            #[derive(Debug)]
            struct $name;
        )*
        /// One constructor per distinct event type.
        const DISTINCT_EVENTS: &[fn() -> Event] = &[$(|| Event::new($name)),*];
    };
}
event_types!(E00, E01, E02, E03, E04, E05, E06, E07, E08, E09, E10, E11, E12, E13, E14, E15);

/// A recycled iteration recorded as `TraceMode::DecisionsOnly` (what bug
/// hunts record in) never interns an event name: a step that the trace does
/// not keep only counts as dropped. When every step interned its event
/// name, the reset name table re-allocated one `Arc<str>` per distinct
/// event name per iteration, so this 16-type run spent at least 16
/// allocations.
#[test]
fn recycled_decisions_only_iteration_interns_no_event_names() {
    const ROUNDS: usize = 64;
    /// Sends every distinct event type to the sink, `ROUNDS` times over.
    struct Fanout {
        sink: MachineId,
    }
    impl Machine for Fanout {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..ROUNDS {
                for make in DISTINCT_EVENTS {
                    ctx.send(self.sink, make());
                }
            }
        }
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
    }
    struct Sink;
    impl Machine for Sink {
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
    }
    const STEPS: usize = 2 + ROUNDS * 16;
    let config = RuntimeConfig {
        max_steps: STEPS * 2,
        trace_mode: TraceMode::DecisionsOnly,
        ..RuntimeConfig::default()
    };
    let build = |rt: &mut Runtime| {
        let sink = rt.create_machine(Sink);
        rt.create_machine(Fanout { sink });
    };

    // Warm-up iteration grows every pooled buffer.
    let mut rt = Runtime::new(
        SchedulerKind::Random.build(11, STEPS * 2),
        config.clone(),
        11,
    );
    build(&mut rt);
    assert_eq!(rt.run(), ExecutionOutcome::Quiescent);

    // The recycled iteration: reset, re-build, measure the run.
    rt.reset(SchedulerKind::Random.build(13, STEPS * 2), config, 13);
    build(&mut rt);
    let (allocations, outcome) = count_allocations(|| rt.run());
    assert_eq!(outcome, ExecutionOutcome::Quiescent);
    assert_eq!(rt.steps(), STEPS);
    assert_eq!(rt.trace().dropped_steps(), STEPS);
    assert!(
        allocations <= 8,
        "a recycled decisions-only iteration over {} event types allocated \
         {allocations} times; event names must stay off the step path",
        DISTINCT_EVENTS.len()
    );
    assert_eq!(rt.trace().names.len(), 2, "machine names only");
}

/// The mega-scale acceptance of the O(active) scheduling core (PR 8): a
/// *recycled* 10,240-machine megakv iteration — pooled [`Runtime::reset`],
/// full harness re-creation, then a run to quiescence covering one
/// schedulable `on_start` step per machine — stays within the same ≤8
/// allocation budget as the small harnesses above. The enabled index,
/// mailbox pool (all cold mailboxes stay lazily vacant), trace storage and
/// name table all retain their capacity across the reset, so ten thousand
/// machines cost the armed window nothing. The harness re-build (machine
/// boxes, slot-vector reuse) is the iteration's own setup cost and happens
/// outside the window, exactly as the engines sequence it.
#[test]
fn recycled_megakv_iteration_at_ten_thousand_machines_stays_within_budget() {
    const TOTAL: usize = 10_240;
    let kv = megakv::MegaKvConfig::scale(TOTAL, 0);
    let config = RuntimeConfig {
        max_steps: TOTAL + 100,
        ..RuntimeConfig::default()
    };

    // Warm-up iteration grows every pooled buffer to mega-scale size.
    let mut rt = Runtime::new(
        SchedulerKind::Random.build(11, TOTAL + 100),
        config.clone(),
        11,
    );
    megakv::build_harness(&mut rt, &kv);
    assert_eq!(rt.run(), ExecutionOutcome::Quiescent);
    assert_eq!(rt.steps(), TOTAL, "one start step per machine");

    // The recycled iteration: reset, re-build, measure the run.
    rt.reset(SchedulerKind::Random.build(13, TOTAL + 100), config, 13);
    megakv::build_harness(&mut rt, &kv);
    let (allocations, outcome) = count_allocations(|| rt.run());
    assert_eq!(outcome, ExecutionOutcome::Quiescent);
    assert_eq!(rt.steps(), TOTAL);
    assert!(
        allocations <= 8,
        "a recycled {TOTAL}-machine megakv iteration allocated {allocations} times; \
         the O(active) core must absorb mega-scale runs in retained storage"
    );
}

/// The per-machine state of the strategies that keep any — PCT's priority
/// table, the sleep-set and DPOR skip-counter tables and their awake-subset
/// buffer — is dense and indexed by machine id. Each table grows at most
/// once per scheduling point, to the largest enabled id, and the awake
/// buffer reserves the enabled count up front, so a recycled 1,024-machine
/// megakv iteration under each of them fits the same <=8 allocation budget
/// as random scheduling: the scheduler (built outside the window, as the
/// engines sequence it) sizes its tables in a handful of allocations, not
/// one per machine or per doubling.
#[test]
fn recycled_megakv_iteration_under_stateful_strategies_stays_within_budget() {
    const TOTAL: usize = 1_024;
    let kv = megakv::MegaKvConfig::scale(TOTAL, 0);
    let config = RuntimeConfig {
        max_steps: TOTAL + 100,
        ..RuntimeConfig::default()
    };
    for kind in [
        SchedulerKind::Pct { change_points: 2 },
        SchedulerKind::sleep_set(),
        SchedulerKind::Dpor,
    ] {
        // Warm-up iteration grows every pooled runtime buffer.
        let mut rt = Runtime::new(kind.build(11, TOTAL + 100), config.clone(), 11);
        megakv::build_harness(&mut rt, &kv);
        assert_eq!(rt.run(), ExecutionOutcome::Quiescent);

        // The recycled iteration: reset, re-build, measure the run.
        rt.reset(kind.build(13, TOTAL + 100), config.clone(), 13);
        megakv::build_harness(&mut rt, &kv);
        let (allocations, outcome) = count_allocations(|| rt.run());
        assert_eq!(outcome, ExecutionOutcome::Quiescent);
        assert_eq!(rt.steps(), TOTAL, "{kind:?}: one start step per machine");
        assert!(
            allocations <= 8,
            "a recycled {TOTAL}-machine megakv iteration under {kind:?} allocated \
             {allocations} times; per-machine scheduler state must be dense"
        );
    }
}

/// The vector-clock DPOR strategy preallocates its entire clock machinery —
/// the LRU slot window, the pending-clock rings, the recent-step race-scan
/// ring and the backtrack queue — in [`DporScheduler::new`], which the
/// engines call *outside* an iteration's hot loop. A recycled iteration
/// driven by DPOR must therefore fit the same ≤8 allocation budget as the
/// non-reducing strategies: happens-before tracking, race detection and
/// backtrack scheduling are all in-place updates of retained storage.
#[test]
fn recycled_dpor_iteration_stays_within_a_constant_allocation_budget() {
    const EVENTS: usize = 8_192;
    struct Sink;
    impl Machine for Sink {
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
    }
    let config = RuntimeConfig {
        max_steps: EVENTS * 2,
        ..RuntimeConfig::default()
    };

    let preload = |rt: &mut Runtime| {
        let sinks = [
            rt.create_machine(Sink),
            rt.create_machine(Sink),
            rt.create_machine(Sink),
        ];
        for i in 0..EVENTS {
            rt.send(sinks[i % sinks.len()], Event::new(Spin));
        }
    };

    // Warm-up iteration grows every buffer to its steady-state size.
    let mut rt = Runtime::new(
        SchedulerKind::Dpor.build(11, EVENTS * 2),
        config.clone(),
        11,
    );
    preload(&mut rt);
    assert_eq!(rt.run(), ExecutionOutcome::Quiescent);

    // The recycled iteration: the scheduler (and its preallocated clock
    // tables) is constructed outside the armed window, exactly as the
    // engines sequence it; only the run itself is measured.
    let scheduler = SchedulerKind::Dpor.build(13, EVENTS * 2);
    rt.reset(scheduler, config, 13);
    preload(&mut rt);
    let (allocations, outcome) = count_allocations(|| rt.run());
    assert_eq!(outcome, ExecutionOutcome::Quiescent);
    assert!(
        rt.pruned_equivalents() > 0,
        "the DPOR run must actually have pruned (sticky run-to-completion)"
    );
    assert!(
        allocations <= 8,
        "a recycled DPOR iteration allocated {allocations} times; \
         vector-clock tracking must run entirely in preallocated storage"
    );
}

/// Snapshot forks ([`Runtime::restore_from`], the prefix-sharing path) recycle
/// the pooled mailboxes, retained trace storage and footprint buffers of the
/// runtime they overwrite, so once the pools are warm a fork costs O(machines)
/// allocations — the re-cloned machine boxes, the snapshot scheduler re-clone
/// and duplicated queued events — never O(steps) of the suffix it replaces.
#[test]
fn snapshot_fork_restore_stays_within_a_constant_allocation_budget() {
    const STEPS: usize = 8_192;

    /// Clonable twin of [`Spinner`]: snapshots require `clone_state`.
    #[derive(Clone)]
    struct CloneSpinner;
    impl Machine for CloneSpinner {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send_to_self(Event::new(Spin));
        }
        fn handle(&mut self, ctx: &mut Context<'_>, _event: Event) {
            ctx.send_to_self(Event::new(Spin));
        }
        fn clone_state(&self) -> Option<Box<dyn Machine>> {
            Some(Box::new(self.clone()))
        }
    }

    let mut rt = Runtime::new(
        SchedulerKind::Random.build(11, STEPS),
        RuntimeConfig {
            max_steps: STEPS,
            ..RuntimeConfig::default()
        },
        11,
    );
    rt.create_machine(CloneSpinner);
    rt.create_machine(CloneSpinner);
    let snapshot = rt.snapshot().expect("clonable harness snapshots");

    // Warm-up forks grow every pooled buffer to its steady-state size.
    for seed in [13, 17] {
        rt.restore_from(&snapshot);
        rt.set_scheduler(SchedulerKind::Random.build(seed, STEPS));
        rt.reseed(seed);
        assert_eq!(rt.run(), ExecutionOutcome::MaxStepsReached);
    }

    // The measured fork: restoring an 8k-step runtime back to the prefix
    // must not touch the heap beyond the constant per-fork cost.
    let (allocations, ()) = count_allocations(|| rt.restore_from(&snapshot));
    assert!(
        allocations <= 8,
        "a warm snapshot fork allocated {allocations} times; \
         recycled snapshot buffers must absorb the restore"
    );

    // And the fork is a fully working runtime: the suffix runs to the bound.
    rt.set_scheduler(SchedulerKind::Random.build(19, STEPS));
    rt.reseed(19);
    assert_eq!(rt.run(), ExecutionOutcome::MaxStepsReached);
    assert_eq!(rt.steps(), STEPS);
}

/// The copy-on-write acceptance at mega-scale (PR 9): a warm fork that
/// touched K of 10,240 machines re-clones O(K) state, not O(machines). The
/// snapshot holds every machine behind an `Arc`; stepping dirties a handful,
/// and `Runtime::restore_from` rewinds only those — everything clean is an
/// `Arc` the runtime still shares with the snapshot. The budget is pinned to
/// the dirty count and deliberately does NOT scale with the total machine
/// count: re-run this test at `TOTAL = 1_024` or `TOTAL = 102_400` and it
/// must still hold.
#[test]
fn low_dirty_fork_at_ten_thousand_machines_costs_o_dirty_not_o_machines() {
    const TOTAL: usize = 10_240;
    const DIRTY: usize = 16;
    let kv = megakv::MegaKvConfig::scale(TOTAL, 0);
    let config = RuntimeConfig {
        max_steps: TOTAL + 100,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(
        SchedulerKind::Random.build(11, TOTAL + 100),
        config.clone(),
        11,
    );
    megakv::build_harness(&mut rt, &kv);
    let snapshot = rt.snapshot().expect("megakv harness snapshots");

    // Warm-up forks: dirty a few machines, rewind, twice — growing the
    // machine pool, mailbox pool and trace storage to steady state.
    for _ in 0..2 {
        for raw in 0..DIRTY as u64 {
            rt.force_step(MachineId::from_raw(raw));
        }
        rt.restore_from(&snapshot);
    }

    // The measured fork: K stepped machines (plus whatever they sent to)
    // out of 10,240. The restore must touch only those.
    for raw in 0..DIRTY as u64 {
        rt.force_step(MachineId::from_raw(raw));
    }
    let touched = rt.dirty_machine_count();
    assert!(
        (DIRTY..TOTAL / 10).contains(&touched),
        "expected a low-dirty fork, got {touched} dirty of {TOTAL}"
    );
    let (allocations, ()) = count_allocations(|| rt.restore_from(&snapshot));
    assert_eq!(rt.dirty_machine_count(), 0);
    let budget = 8 + 2 * touched as u64;
    assert!(
        allocations <= budget,
        "a {touched}-dirty fork of {TOTAL} machines allocated {allocations} times \
         (budget {budget}); the restore must cost O(dirty), not O(machines)"
    );

    // And the fork is a fully working runtime: every machine still runs its
    // start step and the iteration reaches quiescence.
    assert_eq!(rt.run(), ExecutionOutcome::Quiescent);
    assert_eq!(rt.steps(), TOTAL);
}

/// One prefix-tree branch expansion through the runtime's public API —
/// rewinding a pooled runtime to a node snapshot, forcing one scheduling
/// step, and capturing the child snapshot — runs in a small constant budget
/// once the runtime's pools are warm, *independent of how long the suffix
/// the rewind discards ran*. This is what makes forks "cheap": expanding a
/// node costs O(machines + dirty), never O(steps).
#[test]
fn parallel_tree_branch_expansion_stays_within_a_constant_allocation_budget() {
    const STEPS: usize = 8_192;

    #[derive(Clone)]
    struct CloneSpinner;
    impl Machine for CloneSpinner {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send_to_self(Event::replicable(ClonableSpin));
        }
        fn handle(&mut self, ctx: &mut Context<'_>, _event: Event) {
            ctx.send_to_self(Event::replicable(ClonableSpin));
        }
        fn clone_state(&self) -> Option<Box<dyn Machine>> {
            Some(Box::new(self.clone()))
        }
    }
    #[derive(Debug, Clone)]
    struct ClonableSpin;

    let mut rt = Runtime::new(
        SchedulerKind::Random.build(11, STEPS),
        RuntimeConfig {
            max_steps: STEPS,
            ..RuntimeConfig::default()
        },
        11,
    );
    let first = rt.create_machine(CloneSpinner);
    rt.create_machine(CloneSpinner);
    let node = rt.snapshot().expect("clonable harness snapshots");

    // Warm-up: run a long suffix, then perform the branch-expansion cycle
    // twice so every pool reaches steady state.
    assert_eq!(rt.run(), ExecutionOutcome::MaxStepsReached);
    for _ in 0..2 {
        rt.restore_from(&node);
        assert!(rt.force_step(first));
        let _child = rt.snapshot().expect("branch snapshots");
    }

    // The measured expansion: rewind past the 8k-step suffix, force the
    // branch step, capture the child. The budget covers the per-machine
    // state clones of the child snapshot plus the snapshot scheduler clone —
    // nothing proportional to the discarded suffix.
    let (allocations, child) = count_allocations(|| {
        rt.restore_from(&node);
        assert!(rt.force_step(first));
        rt.snapshot().expect("branch snapshots")
    });
    assert!(
        allocations <= 48,
        "one tree-branch expansion allocated {allocations} times; \
         forking a node must cost O(machines), not O(suffix steps)"
    );

    // And the child is a usable tree node: a fork of it runs to the bound.
    rt.restore_from(&child);
    rt.set_scheduler(SchedulerKind::Random.build(17, STEPS));
    rt.reseed(17);
    assert_eq!(rt.run(), ExecutionOutcome::MaxStepsReached);
}

/// Bug-free portfolio sweeps auto-select `TraceMode::DecisionsOnly` when
/// neither shrinking nor an explicit trace mode was requested
/// (`TestConfig::effective_trace_mode`): the annotated schedule — the larger
/// trace stream — is never materialized, so the sweep's peak memory drops
/// measurably below the same sweep pinned to `TraceMode::Full`.
#[test]
fn portfolio_sweep_auto_decisions_only_drops_peak_memory() {
    const ITERATIONS: u64 = 12;
    const STEPS: usize = 20_000;
    let run = |config: TestConfig| {
        let engine = TestEngine::new(
            config
                .with_iterations(ITERATIONS)
                .with_max_steps(STEPS)
                .with_seed(5)
                .with_default_portfolio(),
        );
        let (_, peak, report) = measure(|| {
            engine.run(|rt| {
                rt.create_machine(Spinner);
                rt.create_machine(Spinner);
            })
        });
        assert!(!report.found_bug(), "the sweep must be bug-free");
        peak
    };

    let auto = TestConfig::new().with_default_portfolio();
    assert_eq!(auto.effective_trace_mode(), TraceMode::DecisionsOnly);
    assert_eq!(
        auto.clone().with_shrink(true).effective_trace_mode(),
        TraceMode::Full,
        "shrink runs keep the annotated schedule"
    );
    assert_eq!(
        auto.clone()
            .with_trace_mode(TraceMode::Full)
            .effective_trace_mode(),
        TraceMode::Full,
        "an explicit trace mode wins over the auto-selection"
    );

    let auto_peak = run(TestConfig::new());
    let full_peak = run(TestConfig::new().with_trace_mode(TraceMode::Full));
    let step_bytes = (STEPS * std::mem::size_of::<psharp::trace::TraceStep>()) as u64;
    assert!(
        auto_peak + step_bytes / 2 <= full_peak,
        "auto decisions-only peak {auto_peak} saves too little vs full-mode peak {full_peak}"
    );
}

/// `TraceMode::RingBuffer` bounds the peak memory of the annotated schedule
/// on very long executions: the replay-bearing decision stream still grows
/// (dropping it would destroy replayability), but the per-step `TraceStep`
/// records — the larger of the two streams — stay capped at the ring
/// capacity instead of scaling with the execution length.
#[test]
fn ring_buffer_trace_mode_bounds_peak_trace_memory() {
    const STEPS: usize = 100_000;
    const RING: usize = 256;
    let run = |trace_mode| {
        let mut rt = Runtime::new(
            SchedulerKind::Random.build(7, STEPS),
            RuntimeConfig {
                max_steps: STEPS,
                trace_mode,
                ..RuntimeConfig::default()
            },
            7,
        );
        rt.create_machine(Spinner);
        rt.create_machine(Spinner);
        let (_, peak, outcome) = measure(|| rt.run());
        assert_eq!(outcome, ExecutionOutcome::MaxStepsReached);
        (peak, rt.into_trace())
    };

    let (full_peak, full_trace) = run(TraceMode::Full);
    let (ring_peak, ring_trace) = run(TraceMode::RingBuffer(RING));

    assert_eq!(full_trace.retained_step_count(), STEPS);
    assert_eq!(ring_trace.retained_step_count(), RING);
    assert_eq!(ring_trace.dropped_steps(), STEPS - RING);
    assert_eq!(
        ring_trace.decision_count(),
        full_trace.decision_count(),
        "the replay-bearing decision stream must be complete in every mode"
    );

    // The annotated schedule is ~24 bytes per step; the ring must save at
    // least that (modulo growth slack), and land well below the full-mode
    // high-water mark.
    let step_bytes = (STEPS * std::mem::size_of::<psharp::trace::TraceStep>()) as u64;
    assert!(
        full_peak >= step_bytes,
        "full-mode peak {full_peak} is implausibly below the step storage {step_bytes}"
    );
    assert!(
        ring_peak + step_bytes / 2 <= full_peak,
        "ring-buffer peak {ring_peak} saves too little vs full-mode peak {full_peak}"
    );
}
