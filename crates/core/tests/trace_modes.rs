//! Trace-mode equivalence: the [`TraceMode`] bounds only the annotated
//! schedule. Under `Full`, `RingBuffer(4)`, `RingBuffer(0)` and
//! `DecisionsOnly` one harness and seed must make the same decisions, end
//! with the same outcome and count the same steps; the retained schedules
//! must render exactly as pinned; and a mode that retains no step must not
//! intern a single event name.

use psharp::prelude::*;
use psharp::runtime::RuntimeConfig;

const MODES: [TraceMode; 4] = [
    TraceMode::Full,
    TraceMode::RingBuffer(4),
    TraceMode::RingBuffer(0),
    TraceMode::DecisionsOnly,
];

/// A client/server store with a self-driven ticker, a liveness monitor and
/// seven event types. With `lose_first` the server silently drops request
/// 0, so the monitor stays hot forever: a genuine liveness bug.
mod store {
    use super::*;
    use std::collections::BTreeSet;

    #[derive(Debug)]
    pub struct Req(pub MachineId, pub u32);
    #[derive(Debug)]
    pub struct Reply(pub u32);
    #[derive(Debug)]
    pub struct Tick;
    #[derive(Debug)]
    pub struct Note(pub usize);
    #[derive(Debug)]
    pub struct Awaiting(pub u32);
    #[derive(Debug)]
    pub struct Done(pub u32);
    #[derive(Debug)]
    pub struct Crash;

    pub struct Server {
        pub lose_first: bool,
    }
    impl Machine for Server {
        fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
            if let Some(req) = event.downcast_ref::<Req>() {
                if self.lose_first && req.1 == 0 {
                    return;
                }
                if ctx.random_bool() {
                    let note = Note(ctx.random_index(3));
                    ctx.send_to_self(Event::new(note));
                }
                ctx.send(req.0, Event::new(Reply(req.1)));
            } else if let Some(note) = event.downcast_ref::<Note>() {
                if note.0 > 0 {
                    ctx.random_bool();
                }
            } else if event.is::<Crash>() {
                panic!("server state corrupted");
            }
        }
    }

    pub struct Client {
        pub server: MachineId,
        pub requests: u32,
    }
    impl Machine for Client {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let me = ctx.id();
            for n in 0..self.requests {
                ctx.notify_monitor::<Progress>(Event::new(Awaiting(n)));
                ctx.send(self.server, Event::new(Req(me, n)));
            }
        }
        fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
            if let Some(reply) = event.downcast_ref::<Reply>() {
                ctx.notify_monitor::<Progress>(Event::new(Done(reply.0)));
            }
        }
    }

    /// Keeps the execution busy until the step bound.
    pub struct Ticker;
    impl Machine for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send_to_self(Event::new(Tick));
        }
        fn handle(&mut self, ctx: &mut Context<'_>, _event: Event) {
            ctx.send_to_self(Event::new(Tick));
        }
    }

    /// Hot while any request is unanswered.
    #[derive(Default)]
    pub struct Progress {
        outstanding: BTreeSet<u32>,
    }
    impl Monitor for Progress {
        fn observe(&mut self, _ctx: &mut MonitorContext<'_>, event: &Event) {
            if let Some(a) = event.downcast_ref::<Awaiting>() {
                self.outstanding.insert(a.0);
            } else if let Some(d) = event.downcast_ref::<Done>() {
                self.outstanding.remove(&d.0);
            }
        }
        fn temperature(&self) -> Temperature {
            if self.outstanding.is_empty() {
                Temperature::Cold
            } else {
                Temperature::Hot
            }
        }
    }

    pub fn setup(rt: &mut Runtime, lose_first: bool, crash_server: bool) {
        rt.add_monitor(Progress::default());
        let server = rt.create_machine(Server { lose_first });
        rt.create_machine(Client {
            server,
            requests: 3,
        });
        rt.create_machine(Ticker);
        if crash_server {
            rt.send(server, Event::new(Crash));
        }
    }
}

/// Machine names the store interns at creation, in creation order.
const MACHINE_NAMES: [&str; 3] = ["Server", "Client", "Ticker"];

struct Run {
    outcome: ExecutionOutcome,
    trace: Trace,
}

fn run(
    kind: SchedulerKind,
    seed: u64,
    max_steps: usize,
    mode: TraceMode,
    setup: impl Fn(&mut Runtime),
) -> Run {
    let config = RuntimeConfig {
        max_steps,
        trace_mode: mode,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(kind.build(seed, max_steps), config, seed);
    setup(&mut rt);
    let outcome = rt.run();
    Run {
        outcome,
        trace: rt.into_trace(),
    }
}

/// FNV-1a, so renderings can be pinned as short digests.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs one case under every mode, checks that the modes agree on
/// everything but the retained schedule, and returns the runs in `MODES`
/// order.
fn run_every_mode(
    kind: SchedulerKind,
    seed: u64,
    max_steps: usize,
    setup: impl Fn(&mut Runtime) + Copy,
) -> Vec<Run> {
    let runs: Vec<Run> = MODES
        .iter()
        .map(|&mode| run(kind, seed, max_steps, mode, setup))
        .collect();
    let full = &runs[0];
    for (mode, other) in MODES.iter().zip(&runs).skip(1) {
        assert_eq!(other.outcome, full.outcome, "{mode:?}: outcome");
        assert_eq!(
            other.trace.decisions, full.trace.decisions,
            "{mode:?}: decisions"
        );
        assert_eq!(
            other.trace.total_step_count(),
            full.trace.total_step_count(),
            "{mode:?}: total steps"
        );
    }
    // The ring retains the newest steps of the full schedule, verbatim.
    let ring = &runs[1].trace;
    let named = |t: &Trace| -> Vec<(usize, MachineId, String, String)> {
        t.steps()
            .map(|s| {
                let machine = t.step_machine_name(s).to_string();
                (s.step, s.machine, machine, t.step_event_name(s).to_string())
            })
            .collect()
    };
    let full_steps = named(&full.trace);
    let tail = full_steps.len().saturating_sub(ring.retained_step_count());
    assert_eq!(named(ring), full_steps[tail..].to_vec());
    runs
}

/// FNV digests of (rendered schedule, JSON trace) per mode. The goldens were
/// computed when every step still interned its event name, so they pin that
/// skipping the interning changes no rendered or serialized byte.
fn rendering_digests(runs: &[Run]) -> Vec<(u64, u64)> {
    runs.iter()
        .map(|r| {
            let json = r.trace.to_json().expect("trace serializes");
            (fnv(&r.trace.render_schedule()), fnv(&json))
        })
        .collect()
}

#[test]
fn step_bounded_run_is_identical_in_every_trace_mode() {
    let runs = run_every_mode(SchedulerKind::Random, 5, 60, |rt| {
        store::setup(rt, false, false)
    });
    assert_eq!(runs[0].trace.total_step_count(), 60);
    assert_eq!(runs[0].outcome, ExecutionOutcome::MaxStepsReached);
    assert_eq!(runs[0].trace.retained_step_count(), 60);
    assert_eq!(runs[1].trace.retained_step_count(), 4);
    assert_eq!(runs[1].trace.dropped_steps(), 56);
    for r in &runs[2..] {
        assert_eq!(r.trace.retained_step_count(), 0);
        assert_eq!(r.trace.dropped_steps(), 60);
    }
    assert_eq!(rendering_digests(&runs), GOLDEN_STEP_BOUNDED);
}

/// Under PCT the bound verdict enters the fair grace period; request 0 is
/// never answered, so the verdict is confirmed and the trace is truncated
/// back to the bound, which recomputes the dropped-step count.
#[test]
fn confirmed_pct_liveness_verdict_is_identical_in_every_trace_mode() {
    const BOUND: usize = 80;
    let runs = run_every_mode(SchedulerKind::Pct { change_points: 2 }, 3, BOUND, |rt| {
        store::setup(rt, true, false)
    });
    match &runs[0].outcome {
        ExecutionOutcome::BugFound(bug) => {
            assert_eq!(bug.kind, BugKind::LivenessViolation);
            assert_eq!(bug.step, BOUND, "the verdict is captured at the bound");
        }
        other => panic!("expected the liveness bug, got {other:?}"),
    }
    for (mode, r) in MODES.iter().zip(&runs) {
        assert_eq!(r.trace.total_step_count(), BOUND, "{mode:?}");
        assert!(r.trace.steps().all(|s| s.step < BOUND), "{mode:?}");
    }
    assert_eq!(runs[0].trace.retained_step_count(), BOUND);
    // The ring's last four steps all lay in the discarded grace window, so
    // truncation leaves it empty and counts every pre-bound step as dropped.
    assert_eq!(runs[1].trace.retained_step_count(), 0);
    assert_eq!(runs[1].trace.dropped_steps(), BOUND);
    assert_eq!(rendering_digests(&runs), GOLDEN_PCT_LIVENESS);
}

#[test]
fn panic_report_names_the_event_in_every_trace_mode() {
    let runs = run_every_mode(SchedulerKind::Random, 1, 200, |rt| {
        store::setup(rt, false, true)
    });
    match &runs[0].outcome {
        ExecutionOutcome::BugFound(bug) => {
            assert_eq!(bug.kind, BugKind::Panic);
            assert!(
                bug.message
                    .contains("machine 'Server' panicked while handling 'Crash'"),
                "{}",
                bug.message
            );
        }
        other => panic!("expected the panic, got {other:?}"),
    }
    assert_eq!(rendering_digests(&runs), GOLDEN_PANIC);
}

/// A mode that retains no step interns no event name: its table holds the
/// machine names only. A retaining mode interns the names of the events it
/// keeps.
#[test]
fn non_retaining_traces_intern_machine_names_only() {
    for lose_first in [false, true] {
        let runs = run_every_mode(SchedulerKind::Pct { change_points: 2 }, 3, 80, |rt| {
            store::setup(rt, lose_first, false)
        });
        for r in &runs[2..] {
            let names: Vec<&str> = (0..r.trace.names.len() as u32)
                .map(|raw| r.trace.names.resolve(NameId::from_raw(raw)))
                .collect();
            assert_eq!(names, MACHINE_NAMES, "{:?}", r.trace.mode());
        }
        assert!(runs[0].trace.names.len() > MACHINE_NAMES.len());
    }
}

const GOLDEN_STEP_BOUNDED: [(u64, u64); 4] = [
    (12465637449514194788, 1214023797975135443),
    (7100747555264280569, 6092684568933093655),
    (14416371162335233268, 7125120282982746296),
    (9445245111226139890, 12773964033925310085),
];
const GOLDEN_PCT_LIVENESS: [(u64, u64); 4] = [
    (14980870709267663425, 12004986633805807368),
    (16381143531530842450, 8835550223465768984),
    (10459084060521174614, 2334335149867383740),
    (7109317211331204108, 2403119060283461433),
];
const GOLDEN_PANIC: [(u64, u64); 4] = [
    (14610905685886581043, 5127605414503063504),
    (1691569544424197581, 16904021091880181263),
    (2069062902442863936, 15536038178949915662),
    (2882772300651112406, 4906322867421354843),
];
