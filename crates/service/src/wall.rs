//! The wall-clock service runtime: submitter threads stream generated
//! tasks to one process-manager thread, which runs the simulator's own
//! [`SystemModel`] on an [`Engine`] whose clock follows the wall clock.
//!
//! Topology:
//!
//! ```text
//! local submitter ──┐  each task,    process manager thread
//!                   ├─ a lead ahead ► SystemModel on its own Engine:
//! global submitter ─┘  of its instant booked arrivals, completions,
//!                                     hand-offs, outages, warm-up end
//! ```
//!
//! A thin [`Simulation`] wrapper books each received task as the
//! model's own [`Event::LocalArrival`] or [`Event::GlobalArrival`] at
//! its generated instant and, when that event fires, hands it to
//! [`SystemModel::arrive_local`] or [`SystemModel::arrive_global`]; a
//! message that comes after its instant is booked at the instant it is
//! handled. [`Event::Init`] starts only the failure timeline and the
//! warm-up end ([`SystemModel::start_timeline`]), and every other event
//! (completions, network hand-offs, result returns, outages, the warm-up
//! end) is the model's own, so dispatch, completion, wave release,
//! networks and failures are the simulator's code. Between events the
//! manager blocks on its inbox until the earliest booked instant, then
//! sleeps out the rest of the wait on its [`WallClock`] and fires
//! everything due.
//!
//! **Two times.** Every event fires at its booked instant, so the nodes
//! run on booked time: a node's next job starts, and any subtask a
//! completion releases is handed off, at the completion's instant, not
//! at the late wake-up, and an oversleep never compounds through a busy
//! period. Before firing, the manager gives the model the wall clock's
//! reading ([`SystemModel::observe`]): completions, discards, finishes
//! and reissues are recorded, and next-stage deadlines assigned, at the
//! later of the two.
//!
//! **Replay.** With wall time taken out, [`replay`] hands `run_once`'s
//! own traffic to the same manager ahead of each instant and fires the
//! engine at exactly each booked instant; its metrics equal
//! [`run_once`](sda_system::run_once)'s bit for bit. What the wall
//! runtime then adds to the miss ratios is lateness, which
//! [`WallReport`] measures: `arrival_lag`, `late_arrivals` and
//! `wake_lateness`.
//!
//! The submitters reuse [`TaskFactory`] (and through it the
//! [`ArrivalProcess`](sda_workload::ArrivalProcess) drivers — Poisson,
//! MMPP, phased) as deterministic traffic generators. Both build theirs
//! from `RngFactory::new(seed)`, as `run_once` does, and each draws only
//! its own class's streams, so a run at a seed streams exactly the tasks
//! the simulator generates at that seed, while completion times are
//! measured on the real clock. Shutdown is a drain: submitters close at
//! the horizon, and the manager returns only once no arrival is still
//! booked and every submitted task has reached a terminal state, so no
//! completion is lost.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::Duration;

use sda_core::{DagRun, FlatRun, NodeId};
use sda_sim::rng::RngFactory;
use sda_sim::stats::Tally;
use sda_sim::{Context, Engine, SimTime, Simulation};
use sda_system::{Event, Metrics, PooledRun, RunConfig, SystemConfig, SystemModel};
use sda_workload::{GlobalShape, LocalTask, TaskFactory};

use crate::clock::WallClock;
use crate::ServiceError;

/// A per-task deadline budget, in simulated time units: the relative
/// deadline a side of the service promises (offered) or demands
/// (requested).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineContract {
    /// The relative deadline budget.
    pub budget: f64,
}

impl DeadlineContract {
    /// A contract with the given budget.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::BadParameter`] if the budget is not
    /// finite and positive.
    pub fn new(budget: f64) -> Result<DeadlineContract, ServiceError> {
        if !budget.is_finite() || budget <= 0.0 {
            return Err(ServiceError::BadParameter {
                what: "contract budget",
                value: budget,
            });
        }
        Ok(DeadlineContract { budget })
    }

    /// The DDS deadline-compatibility rule: an offered contract
    /// satisfies a requested one iff the offered budget is no laxer
    /// than (i.e. at most) the requested budget.
    pub(crate) fn satisfies(&self, requested: &DeadlineContract) -> bool {
        self.budget <= requested.budget
    }
}

/// Parameters of one wall-clock service run.
#[derive(Debug, Clone)]
pub struct WallRunConfig {
    /// Warm-up prefix (simulated time units) after which statistics
    /// restart.
    pub warmup: f64,
    /// Submission horizon (simulated time units, including warm-up):
    /// submitters stop streaming once their next arrival falls past it.
    pub duration: f64,
    /// Master seed for the traffic generators.
    pub seed: u64,
    /// Simulated time units per wall-clock second (see [`WallClock`]).
    pub time_scale: f64,
    /// Hard cap on submitted global tasks (`u64::MAX` = horizon only).
    pub max_globals: u64,
    /// The per-task deadline budget the service offers, checked against
    /// `requested` at startup (DDS compatibility rule: offered ≤
    /// requested). `None` skips the contract check.
    pub offered: Option<DeadlineContract>,
    /// The per-task deadline budget the submitters request.
    pub requested: Option<DeadlineContract>,
}

impl WallRunConfig {
    /// A configuration covering the same horizon as `run` (warm-up plus
    /// measured duration), with contracts disabled and no global-task
    /// cap.
    pub fn new(run: &RunConfig, time_scale: f64) -> WallRunConfig {
        WallRunConfig {
            warmup: run.warmup,
            duration: run.warmup + run.duration,
            seed: run.seed,
            time_scale,
            max_globals: u64::MAX,
            offered: None,
            requested: None,
        }
    }
}

/// Everything a wall-clock run produces.
#[derive(Debug, Clone)]
pub struct WallReport {
    /// Task metrics, observed on the wall clock (post-warm-up).
    pub metrics: Metrics,
    /// Local tasks the submitters streamed in.
    pub submitted_locals: u64,
    /// Global tasks the submitters streamed in.
    pub submitted_globals: u64,
    /// Local tasks that reached a terminal state (completed or
    /// discarded).
    pub terminal_locals: u64,
    /// Global tasks that reached a terminal state (finished or
    /// aborted).
    pub terminal_globals: u64,
    /// Per-node wall-time utilization over the run.
    pub node_utilization: Vec<f64>,
    /// The service clock when the drain finished (simulated units).
    pub end_time: f64,
    /// Real seconds from the clock's zero, one submit lead after the
    /// run started, to the end of the drain.
    pub wall_seconds: f64,
    /// How late the manager acted on each arrival: the observed time
    /// it was enqueued minus its generated instant (simulated units),
    /// one sample per submitted task, warm-up included. For an arrival
    /// booked ahead of its instant this is the manager's wake-up
    /// lateness; for a late one, how late its message came.
    pub arrival_lag: Tally,
    /// Arrivals whose message reached the manager after their generated
    /// instant, too late to book, so they were enqueued on receipt.
    pub late_arrivals: u64,
    /// How late the manager observed each completion: observed time
    /// minus booked instant (simulated units), one sample per job
    /// served, warm-up included.
    pub wake_lateness: Tally,
}

impl WallReport {
    /// Tasks submitted but never accounted — must be zero after a
    /// graceful drain.
    pub fn lost_tasks(&self) -> u64 {
        (self.submitted_locals - self.terminal_locals)
            + (self.submitted_globals - self.terminal_globals)
    }

    /// Whether the shutdown drained cleanly: every submitted task
    /// reached a terminal state.
    pub fn drained_clean(&self) -> bool {
        self.lost_tasks() == 0
    }
}

/// Submitters → manager.
enum ToManager {
    Local(LocalTask),
    Global(Box<PooledRun>),
    SubmitterDone { submitted: u64, locals: bool },
}

/// How far ahead of its generated instant a submitter sends a task. The
/// manager books the arrival at its instant, so a submitter that
/// oversleeps by less than the lead delays nothing; it gets there with
/// one coarse OS sleep and never spins. Measured with `service_drive
/// --tasks 2000` on a shared two-core host at time scales 1000 and
/// 5000: with a 2 ms lead up to 1,146 arrivals per run came late, with
/// 10 ms at most 102.
const SUBMIT_LEAD: Duration = Duration::from_millis(10);

/// Runs the service on the wall clock and drains it.
///
/// # Errors
///
/// Returns [`ServiceError::Config`] for an invalid workload, network or
/// failure model, [`ServiceError::BadParameter`] for a bad `warmup`,
/// `duration` or `time_scale`, and
/// [`ServiceError::IncompatibleContract`] when the offered deadline
/// contract cannot satisfy the requested one.
pub fn run_wall(config: &SystemConfig, wall: &WallRunConfig) -> Result<WallReport, ServiceError> {
    if let (Some(offered), Some(requested)) = (wall.offered, wall.requested) {
        if !offered.satisfies(&requested) {
            return Err(ServiceError::IncompatibleContract {
                offered: offered.budget,
                requested: requested.budget,
            });
        }
    }
    if !wall.warmup.is_finite() || wall.warmup < 0.0 {
        return Err(ServiceError::BadParameter {
            what: "warmup",
            value: wall.warmup,
        });
    }
    if !wall.duration.is_finite() || wall.duration <= 0.0 {
        return Err(ServiceError::BadParameter {
            what: "duration",
            value: wall.duration,
        });
    }
    // The clock's zero lies one lead ahead: the generators are built
    // and the threads spawned before it, so even the first arrivals
    // reach the manager a full lead before their instants.
    let clock = WallClock::new(wall.time_scale, SUBMIT_LEAD)?;

    // Paired traffic: each submitter draws its own class's streams of
    // the factory `run_once` uses, so the run sees the simulator's tasks.
    let rng = RngFactory::new(wall.seed);
    let horizon = wall.duration;
    let locals = LocalArrivals::new(config, &rng, horizon)?;
    let globals = GlobalArrivals::new(config, &rng, horizon, wall.max_globals)?;

    let mut manager = Manager::new(config, &rng, wall.warmup)?;
    let (tx, rx) = mpsc::channel::<ToManager>();
    std::thread::scope(|s| {
        let (local_tx, clock) = (tx.clone(), &clock);
        let locals = locals.map(|task| (task.attrs.arrival, ToManager::Local(task)));
        let globals = globals.map(|run| (run.arrival(), ToManager::Global(run)));
        s.spawn(move || submit(locals, true, clock, &local_tx));
        s.spawn(move || submit(globals, false, clock, &tx));
        manager.run(&rx, clock);
    });

    let end_time = clock.now();
    let end_t = SimTime::new(end_time);
    let (terminal_locals, terminal_globals) = manager.terminal();
    let live = manager.engine.into_model();
    Ok(WallReport {
        metrics: live.model.metrics().clone(),
        submitted_locals: manager.submitted_locals.unwrap_or(0),
        submitted_globals: manager.submitted_globals.unwrap_or(0),
        terminal_locals,
        terminal_globals,
        node_utilization: live
            .model
            .nodes()
            .iter()
            .map(|n| n.utilization(end_t))
            .collect(),
        end_time,
        wall_seconds: end_time / clock.time_scale(),
        arrival_lag: live.arrival_lag,
        late_arrivals: manager.late_arrivals,
        wake_lateness: live.wake_lateness,
    })
}

/// Replays `run` through the live runtime's manager with wall time
/// taken out, and returns its metrics.
///
/// The traffic is [`run_once`](sda_system::run_once)'s own: the
/// generators the submitter threads use, drawn from
/// `RngFactory::new(run.seed)`. Each arrival is handed to the manager
/// before its instant, so the manager books it, and the engine fires at
/// exactly each booked instant up to and including the horizon
/// (`run.warmup + run.duration`), as
/// [`Engine::run_until`](sda_sim::Engine::run_until) does. What is left
/// of the live runtime is its booking, so the metrics equal
/// `run_once`'s bit for bit, under any network and failure model.
/// Simultaneous events fire in booking order; `run.order_fuzz` is not
/// read.
///
/// # Errors
///
/// Returns [`ServiceError::Config`] for an invalid run length, workload,
/// network or failure model.
pub fn replay(config: &SystemConfig, run: &RunConfig) -> Result<Metrics, ServiceError> {
    run.validate()?;
    let rng = RngFactory::new(run.seed);
    let horizon = run.warmup + run.duration;
    let mut locals = LocalArrivals::new(config, &rng, horizon)?.peekable();
    let mut globals = GlobalArrivals::new(config, &rng, horizon, u64::MAX)?.peekable();
    let mut manager = Manager::new(config, &rng, run.warmup)?;
    let mut now = 0.0;
    loop {
        let booked = manager.next_booked().unwrap_or(f64::INFINITY);
        // Every arrival due by the next booked instant is handed over
        // first, while it is still ahead of the clock.
        if let Some(task) = locals.next_if(|task| task.attrs.arrival <= booked) {
            manager.handle(ToManager::Local(task), now);
        } else if let Some(task) = globals.next_if(|task| task.arrival() <= booked) {
            manager.handle(ToManager::Global(task), now);
        } else if booked <= horizon {
            now = booked;
            manager.fire_due(now);
        } else {
            return Ok(manager.engine.model().model.metrics().clone());
        }
    }
}

/// Every node's local arrivals up to the horizon, merged in time order.
struct LocalArrivals {
    factory: TaskFactory,
    /// (next arrival time, node), one entry per node that generates
    /// local tasks.
    next: Vec<(f64, NodeId)>,
    horizon: f64,
}

impl LocalArrivals {
    fn new(
        config: &SystemConfig,
        rng: &RngFactory,
        horizon: f64,
    ) -> Result<LocalArrivals, ServiceError> {
        let mut factory = TaskFactory::new(config.workload.clone(), rng)?;
        let next = (0..config.workload.nodes)
            .map(|i| NodeId::new(i as u32))
            .filter_map(|node| Some((factory.next_local_interarrival(node)?, node)))
            .collect();
        Ok(LocalArrivals {
            factory,
            next,
            horizon,
        })
    }
}

impl Iterator for LocalArrivals {
    type Item = LocalTask;

    fn next(&mut self) -> Option<LocalTask> {
        let (idx, &(t, node)) = self
            .next
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))?;
        if t > self.horizon {
            return None;
        }
        let task = self.factory.make_local(node, t);
        match self.factory.next_local_interarrival(node) {
            Some(gap) => self.next[idx] = (t + gap, node),
            None => {
                self.next.swap_remove(idx);
            }
        }
        Some(task)
    }
}

/// The global arrivals up to the horizon or the task cap.
struct GlobalArrivals {
    factory: TaskFactory,
    dag: bool,
    /// The last arrival instant.
    t: f64,
    /// How many more tasks the cap allows.
    left: u64,
    horizon: f64,
}

impl GlobalArrivals {
    fn new(
        config: &SystemConfig,
        rng: &RngFactory,
        horizon: f64,
        cap: u64,
    ) -> Result<GlobalArrivals, ServiceError> {
        Ok(GlobalArrivals {
            factory: TaskFactory::new(config.workload.clone(), rng)?,
            dag: matches!(config.workload.shape, GlobalShape::Dag { .. }),
            t: 0.0,
            left: cap,
            horizon,
        })
    }
}

impl Iterator for GlobalArrivals {
    type Item = Box<PooledRun>;

    fn next(&mut self) -> Option<Box<PooledRun>> {
        if self.left == 0 {
            return None;
        }
        self.t += self.factory.next_global_interarrival()?;
        if self.t > self.horizon {
            self.left = 0;
            return None;
        }
        self.left -= 1;
        let run = if self.dag {
            let mut run = DagRun::new();
            self.factory.make_global_dag(self.t, &mut run);
            PooledRun::Dag(run)
        } else {
            let mut run = FlatRun::new();
            self.factory.make_global_flat(self.t, &mut run);
            PooledRun::Flat(run)
        };
        Some(Box::new(run))
    }
}

/// A submitter thread: sends each `(instant, task)` of `traffic`
/// [`SUBMIT_LEAD`] ahead of its instant, then reports how many it sent.
fn submit(
    traffic: impl Iterator<Item = (f64, ToManager)>,
    locals: bool,
    clock: &WallClock,
    tx: &mpsc::Sender<ToManager>,
) {
    let lead = SUBMIT_LEAD.as_secs_f64() * clock.time_scale();
    let mut submitted = 0u64;
    for (at, msg) in traffic {
        std::thread::sleep(clock.coarse_until(at - lead));
        if tx.send(msg).is_err() {
            break; // manager gone: nothing left to stream to
        }
        submitted += 1;
    }
    let _ = tx.send(ToManager::SubmitterDone { submitted, locals });
}

/// The process-manager thread: the simulator's model on its own engine,
/// fed from the inbox.
struct Manager {
    engine: Engine<Live>,
    submitted_locals: Option<u64>,
    submitted_globals: Option<u64>,
    late_arrivals: u64,
}

/// The model, fed with booked tasks instead of its own generators, and
/// the runtime's lateness tallies.
struct Live {
    model: SystemModel,
    /// Booked local arrivals, in booking order. Each booking instant is
    /// the later of the task's instant and its receipt, both
    /// non-decreasing, so the events fire in this order.
    locals: VecDeque<LocalTask>,
    /// Booked global arrivals, likewise.
    globals: VecDeque<Box<PooledRun>>,
    /// The wall clock's reading when the events now due were fired.
    observed: f64,
    /// Local and global tasks that reached a terminal state before the
    /// warm-up end restarted the metrics.
    warm_terminal: (u64, u64),
    arrival_lag: Tally,
    wake_lateness: Tally,
}

impl Simulation for Live {
    type Event = Event;

    fn handle(&mut self, ctx: &mut Context<Event>, event: Event) {
        match event {
            Event::Init { warmup_end } => self.model.start_timeline(ctx, warmup_end),
            Event::LocalArrival { .. } => {
                let task = self.locals.pop_front().expect("a booked local task");
                self.arrival_lag.add(self.observed - task.attrs.arrival);
                self.model.arrive_local(ctx, task);
            }
            Event::GlobalArrival => {
                let run = self.globals.pop_front().expect("a booked global task");
                self.arrival_lag.add(self.observed - run.arrival());
                self.model.arrive_global(ctx, *run);
            }
            Event::ServiceComplete { node, epoch } => {
                if self.model.nodes()[node.index()].completion_is_current(epoch) {
                    self.wake_lateness.add(self.observed - ctx.now().as_f64());
                }
                self.model.handle(ctx, event);
            }
            Event::EndWarmup => {
                let m = self.model.metrics();
                self.warm_terminal = (m.local.completed(), m.global.completed());
                self.model.handle(ctx, event);
            }
            _ => self.model.handle(ctx, event),
        }
    }
}

impl Manager {
    /// A manager whose model draws its network delays and failure
    /// timeline from `rng`, with the timeline and the warm-up end
    /// booked.
    fn new(config: &SystemConfig, rng: &RngFactory, warmup: f64) -> Result<Manager, ServiceError> {
        let mut engine = Engine::new(Live {
            model: SystemModel::new(config.clone(), rng)?,
            locals: VecDeque::new(),
            globals: VecDeque::new(),
            observed: 0.0,
            warm_terminal: (0, 0),
            arrival_lag: Tally::new(),
            wake_lateness: Tally::new(),
        });
        let init = Event::Init { warmup_end: warmup };
        engine.context_mut().schedule_at(SimTime::ZERO, init);
        engine.run_until(SimTime::ZERO);
        Ok(Manager {
            engine,
            submitted_locals: None,
            submitted_globals: None,
            late_arrivals: 0,
        })
    }

    /// The event loop: book the message that woke the manager, fire
    /// everything due, then wait for the next message or the earliest
    /// booked instant. Returns once drained.
    fn run(&mut self, rx: &mpsc::Receiver<ToManager>, clock: &WallClock) {
        let mut msg = None;
        loop {
            let now = clock.now();
            if let Some(msg) = msg.take() {
                self.handle(msg, now);
            }
            self.fire_due(now);
            if self.drained() {
                return;
            }
            msg = match self.next_booked() {
                Some(t) => match rx.recv_timeout(clock.coarse_until(t)) {
                    Ok(msg) => Some(msg),
                    Err(_) => {
                        clock.sleep_until(t);
                        None
                    }
                },
                // Nothing booked: only a message can make progress, and
                // a closed inbox means none will come.
                None => match rx.recv() {
                    Ok(msg) => Some(msg),
                    Err(_) => return,
                },
            };
        }
    }

    /// The earliest booked instant.
    fn next_booked(&mut self) -> Option<f64> {
        self.engine.context_mut().peek_time().map(SimTime::as_f64)
    }

    /// Local and global tasks that reached a terminal state: those the
    /// metrics counted before the warm-up end plus those counted since.
    fn terminal(&self) -> (u64, u64) {
        let live = self.engine.model();
        let m = live.model.metrics();
        let (locals, globals) = live.warm_terminal;
        (locals + m.local.completed(), globals + m.global.completed())
    }

    /// Drain condition: both submitters closed, no arrival still
    /// booked, every global task resolved, and every node idle with an
    /// empty queue.
    fn drained(&self) -> bool {
        let live = self.engine.model();
        self.submitted_locals.is_some()
            && self.submitted_globals.is_some()
            && live.locals.is_empty()
            && live.globals.is_empty()
            && live.model.tasks_in_flight() == 0
            && live
                .model
                .nodes()
                .iter()
                .all(|n| !n.is_busy() && n.queue_len() == 0)
    }

    /// Fires, in booked order, everything booked at or before `now`,
    /// each at its booked instant and observed at `now`.
    fn fire_due(&mut self, now: f64) {
        let live = self.engine.model_mut();
        live.observed = now;
        live.model.observe(now);
        self.engine.run_until(SimTime::new(now));
    }

    /// Takes one message at `now`. An arrival is booked at its instant,
    /// or at `now` if its message came after it.
    fn handle(&mut self, msg: ToManager, now: f64) {
        let live = self.engine.model_mut();
        let (at, event) = match msg {
            ToManager::Local(task) => {
                live.locals.push_back(task);
                (task.attrs.arrival, Event::LocalArrival { node: task.node })
            }
            ToManager::Global(run) => {
                let at = run.arrival();
                live.globals.push_back(run);
                (at, Event::GlobalArrival)
            }
            ToManager::SubmitterDone { submitted, locals } => {
                if locals {
                    self.submitted_locals = Some(submitted);
                } else {
                    self.submitted_globals = Some(submitted);
                }
                return;
            }
        };
        if at <= now {
            self.late_arrivals += 1;
        }
        let at = SimTime::new(at.max(now));
        self.engine.context_mut().schedule_at(at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_core::{SdaStrategy, TaskAttributes};
    use sda_system::{NetworkModel, Node, OverloadPolicy};

    fn local(node: u32, arrival: f64, ex: f64, deadline: f64) -> ToManager {
        ToManager::Local(LocalTask {
            node: NodeId::new(node),
            attrs: TaskAttributes {
                arrival,
                deadline,
                ex,
                pex: ex,
            },
        })
    }

    fn manager(cfg: &SystemConfig, warmup: f64) -> Manager {
        Manager::new(cfg, &RngFactory::new(1), warmup).expect("valid config")
    }

    fn live(m: &Manager) -> &Live {
        m.engine.model()
    }

    fn nodes(m: &Manager) -> &[Node] {
        live(m).model.nodes()
    }

    #[test]
    fn back_to_back_jobs_book_from_the_previous_booked_instant() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let mut m = manager(&cfg, 0.0);
        for (ex, deadline) in [(1.0, 50.0), (2.0, 60.0), (3.0, 70.0), (0.5, 80.0)] {
            m.handle(local(0, 0.0, ex, deadline), 0.0);
        }
        m.fire_due(0.0);
        assert_eq!(m.next_booked(), Some(1.0));
        // Late wake-ups: each booking chains from the previous booked
        // instant, not from the wake-up.
        m.fire_due(1.4);
        assert_eq!(m.next_booked(), Some(3.0));
        m.fire_due(3.9);
        assert_eq!(m.next_booked(), Some(6.0));
        // A wake-up past several booked instants fires them all.
        m.fire_due(8.0);
        assert_eq!(m.next_booked(), None);
        let late = &live(&m).wake_lateness;
        assert_eq!(late.count(), 4);
        assert!((late.sum() - (0.4 + 0.9 + 2.0 + 1.5)).abs() < 1e-12);
        assert_eq!(m.terminal().0, 4);
        // After an idle spell, a job is booked from the instant it is
        // handled.
        m.handle(local(0, 9.0, 0.5, 20.0), 9.25);
        m.fire_due(9.25);
        assert_eq!(m.next_booked(), Some(9.75));
    }

    #[test]
    fn a_preempting_job_books_from_now_and_the_resumed_job_chains() {
        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        cfg.preemptive = true;
        let mut m = manager(&cfg, 0.0);
        m.handle(local(0, 0.0, 4.0, 100.0), 0.0);
        m.fire_due(0.0);
        assert_eq!(m.next_booked(), Some(4.0));
        // A tighter job preempts at 1.5 and is booked from then.
        m.handle(local(0, 1.0, 1.0, 3.0), 1.5);
        m.fire_due(1.5);
        assert_eq!(m.next_booked(), Some(2.5));
        // It completes late; the preempted job resumes back to back with
        // its remaining 2.5 units.
        m.fire_due(2.7);
        assert_eq!(m.terminal().0, 1);
        // The preempted job's original completion is stale: it fires
        // and finishes nothing.
        assert_eq!(m.next_booked(), Some(4.0));
        m.fire_due(4.0);
        assert_eq!(m.terminal().0, 1);
        assert_eq!(m.next_booked(), Some(5.0));
        m.fire_due(5.0);
        assert_eq!(m.terminal().0, 2);
        assert_eq!(live(&m).wake_lateness.count(), 2);
    }

    #[test]
    fn an_early_task_starts_at_its_instant_on_a_late_wake_up() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let mut m = manager(&cfg, 0.0);
        // Received at 1.0, ahead of its instant 2.0: booked, not queued.
        m.handle(local(0, 2.0, 1.5, 3.6), 1.0);
        m.fire_due(1.0);
        assert_eq!(m.next_booked(), Some(2.0));
        assert!(!nodes(&m)[0].is_busy());
        // The wake-up comes at 2.4: the job is enqueued and starts at its
        // instant, so its completion is booked at 2.0 + 1.5.
        m.fire_due(2.4);
        assert!(nodes(&m)[0].is_busy());
        assert_eq!(m.next_booked(), Some(3.5));
        assert_eq!(m.late_arrivals, 0);
        assert_eq!(live(&m).arrival_lag.count(), 1);
        assert!((live(&m).arrival_lag.sum() - 0.4).abs() < 1e-12);
        // Booked at 3.5, within its deadline 3.6, but observed at 3.9:
        // the verdict reads the observed clock.
        m.fire_due(3.9);
        assert_eq!(live(&m).model.metrics().local.missed(), 1);
    }

    #[test]
    fn a_late_message_is_handled_on_receipt() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let mut m = manager(&cfg, 0.0);
        // Instant 2.0, received at 2.5: too late to book ahead, so the
        // job starts on receipt and its completion is booked from then.
        m.handle(local(0, 2.0, 1.5, 50.0), 2.5);
        m.fire_due(2.5);
        assert!(nodes(&m)[0].is_busy());
        assert_eq!(m.next_booked(), Some(4.0));
        assert_eq!(m.late_arrivals, 1);
        assert!((live(&m).arrival_lag.sum() - 0.5).abs() < 1e-12);
    }

    /// A global task whose stages run on the given nodes, one subtask per
    /// node with `ex` = `pex` = 1.
    fn global(arrival: f64, deadline: f64, stages: &[&[u32]]) -> ToManager {
        let mut run = FlatRun::new();
        for stage in stages {
            for &node in *stage {
                run.push_subtask(NodeId::new(node), 1.0, 1.0);
            }
            run.end_stage();
        }
        run.set_structure(stages.len() > 1, stages.iter().any(|s| s.len() > 1));
        run.set_timing(arrival, deadline);
        ToManager::Global(Box::new(PooledRun::Flat(run)))
    }

    #[test]
    fn a_late_global_task_is_admitted_at_its_instant() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let mut m = manager(&cfg, 0.0);
        // Instant 2, received at 2.5: booked on receipt, but admitted at
        // its instant, so EQF gives the first of two equal stages half
        // the window from 2, not from 2.5 (which would give 6.25).
        m.handle(global(2.0, 10.0, &[&[0], &[1]]), 2.5);
        m.fire_due(2.5);
        assert_eq!(m.late_arrivals, 1);
        let first = nodes(&m)[0]
            .current()
            .expect("the first stage is in service");
        assert_eq!(first.deadline, 6.0);
    }

    #[test]
    fn an_aborted_tasks_hand_off_in_flight_is_dropped_on_arrival() {
        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        cfg.overload = OverloadPolicy::AbortTardy;
        // Every hop takes 0.5, except manager → node 1, which takes 5.
        let n = cfg.workload.nodes;
        let mut delays = vec![vec![0.5; n + 1]; n + 1];
        delays[n][1] = 5.0;
        cfg.network = NetworkModel::Matrix { delays };
        let mut m = manager(&cfg, 0.0);
        // Node 0 serves a local job until 3, so the fan's branch 0 waits
        // there past the task's deadline 2 and is discarded at 3, which
        // aborts the task.
        m.handle(local(0, 0.0, 3.0, 100.0), 0.0);
        m.handle(global(0.0, 2.0, &[&[0, 1]]), 0.0);
        m.fire_due(3.0);
        assert_eq!(live(&m).model.metrics().aborted_globals, 1);
        // Branch 1 reaches node 1 at 5, after the abort: dropped, not
        // delivered (delivering it would discard it once more there).
        m.fire_due(6.0);
        let metrics = live(&m).model.metrics();
        assert_eq!(metrics.subtask_virtual_miss.denominator(), 1);
        assert_eq!(nodes(&m)[1].served(), 0);
        assert_eq!(nodes(&m)[1].queue_len(), 0);
        assert_eq!(live(&m).model.tasks_in_flight(), 0);
    }

    #[test]
    fn completions_either_side_of_the_warm_up_land_either_side_of_the_restart() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let mut m = manager(&cfg, 10.0);
        // Completions booked at 9.5 (node 0) and 10.5 (node 1).
        m.handle(local(0, 0.0, 9.5, 100.0), 0.0);
        m.handle(local(1, 0.0, 10.5, 100.0), 0.0);
        m.fire_due(0.0);
        // One late wake-up at 11 observes both, and the restart between
        // them at exactly the warm-up instant.
        m.fire_due(11.0);
        assert_eq!(m.terminal().0, 2);
        assert_eq!(live(&m).wake_lateness.count(), 2);
        // Only the completion booked after the warm-up is recorded.
        assert_eq!(live(&m).model.metrics().local.completed(), 1);
        assert_eq!(nodes(&m)[0].served(), 0);
        assert_eq!(nodes(&m)[1].served(), 1);
        // Node statistics restarted at 10, not at the wake-up: node 1
        // was busy from 10 to 10.5 of the 10..11 window.
        let busy = nodes(&m)[1].utilization(SimTime::new(11.0));
        assert!((busy - 0.5).abs() < 1e-12, "utilization {busy}");
    }

    #[test]
    fn the_drain_waits_for_booked_arrivals() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let mut m = manager(&cfg, 0.0);
        m.handle(local(0, 5.0, 1.0, 50.0), 1.0);
        for locals in [true, false] {
            let submitted = u64::from(locals);
            m.handle(ToManager::SubmitterDone { submitted, locals }, 1.0);
        }
        // Both submitters are done and every node is idle, but the task
        // is still booked.
        assert!(!m.drained());
        m.fire_due(5.0);
        assert!(!m.drained(), "the task is in service");
        m.fire_due(6.0);
        assert!(m.drained());
        assert_eq!(m.terminal().0, 1);
    }

    #[test]
    fn lateness_tallies_cover_every_submission_and_every_job_served() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let run = RunConfig {
            warmup: 0.0,
            duration: 200.0,
            seed: 0x1A7E,
            order_fuzz: 0,
        };
        let wall = WallRunConfig {
            max_globals: 40,
            ..WallRunConfig::new(&run, 2_000.0)
        };
        let report = run_wall(&cfg, &wall).expect("wall run");
        assert!(report.drained_clean(), "{report:?}");
        assert!(report.submitted_globals > 0, "traffic must actually flow");
        assert_eq!(
            report.arrival_lag.count(),
            report.submitted_locals + report.submitted_globals
        );
        // No warm-up and no discards: every job served is a local task
        // or a global subtask, each accounted once.
        let m = &report.metrics;
        assert_eq!(
            report.wake_lateness.count(),
            m.local.completed() + m.subtask_virtual_miss.denominator()
        );
        assert!(report.arrival_lag.min() >= 0.0);
        assert!(report.wake_lateness.min() >= 0.0);
    }

    #[test]
    fn contract_compatibility_is_offered_at_most_requested() {
        let tight = DeadlineContract::new(5.0).unwrap();
        let loose = DeadlineContract::new(10.0).unwrap();
        assert!(tight.satisfies(&loose));
        assert!(tight.satisfies(&tight));
        assert!(!loose.satisfies(&tight));
    }

    #[test]
    fn contract_rejects_degenerate_budgets() {
        assert!(DeadlineContract::new(0.0).is_err());
        assert!(DeadlineContract::new(-1.0).is_err());
        assert!(DeadlineContract::new(f64::NAN).is_err());
        assert!(DeadlineContract::new(f64::INFINITY).is_err());
    }

    #[test]
    fn new_covers_warmup_plus_measured_duration() {
        let run = RunConfig {
            warmup: 50.0,
            duration: 400.0,
            seed: 3,
            order_fuzz: 0,
        };
        let wall = WallRunConfig::new(&run, 1_000.0);
        assert_eq!(wall.warmup, 50.0);
        // The same horizon `run_once` simulates: 400 measured units
        // after the 50-unit warm-up.
        assert_eq!(wall.duration, 450.0);
    }

    #[test]
    fn rejects_bad_warmup_before_starting() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let run = RunConfig {
            warmup: 0.0,
            duration: 50.0,
            seed: 1,
            order_fuzz: 0,
        };
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let wall = WallRunConfig {
                warmup: bad,
                ..WallRunConfig::new(&run, 1_000.0)
            };
            match run_wall(&cfg, &wall) {
                Err(ServiceError::BadParameter { what, value }) => {
                    assert_eq!(what, "warmup");
                    assert_eq!(value.to_bits(), bad.to_bits());
                }
                other => panic!("warmup {bad} must be rejected, got {other:?}"),
            }
        }
    }
}
