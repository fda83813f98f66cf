//! The DL Publisher: detection of stable server-interface changes (§5.6)
//! and reactive forced publication (§5.7).
//!
//! This module is the heart of the paper. A [`PublisherCore`] watches a
//! dynamic class and regenerates/publishes its interface description
//! (WSDL or CORBA-IDL) according to a [`PublicationStrategy`]:
//!
//! * [`PublicationStrategy::ChangeDriven`] — publish on every change to
//!   the distributed interface (the paper rejects this: it publishes
//!   transient interfaces and is expensive),
//! * [`PublicationStrategy::Periodic`] — poll at a fixed interval (also
//!   rejected: can still publish a transient interface, which then
//!   persists at the client until the next poll),
//! * [`PublicationStrategy::StableTimeout`] — the paper's mechanism:
//!   change-driven, but waits for a *stable interval*. A change starts a
//!   countdown; further distributed-interface changes reset it; only when
//!   the timer expires is the new description generated and published.
//!
//! The rules live in [`Publication`], a pure machine: no lock, thread,
//! clock or I/O. [`PublisherCore`] runs it under one mutex. Class edits
//! reach it synchronously through a class observer; a stale call's
//! [`PublisherCore::ensure_current`] generates on the caller's thread;
//! countdowns, forced publications and change-driven generations run on
//! one process-wide publication clock thread. `tests/publication_explore.rs`
//! drives the machine through every interleaving with edits, stale calls
//! and the Interface Server.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread;
use std::time::{Duration, Instant};

use jpie::{ClassEvent, ClassHandle, ClassObserver};
use obs::events::VersionEventKind;
use obs::metrics::{Counter, Histogram};
use obs::sync::{Condvar, Mutex, MutexGuard};

/// How the DL Publisher decides when to publish (§5.6 discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PublicationStrategy {
    /// Publish immediately on every distributed-interface change.
    ChangeDriven,
    /// Publish at a fixed polling interval (if the interface changed).
    Periodic(Duration),
    /// The paper's mechanism: publish after the interface has been stable
    /// for the timeout.
    StableTimeout(Duration),
}

/// A generated interface description ready for publication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedDoc {
    /// The document text (WSDL XML or CORBA-IDL).
    pub text: String,
    /// The class interface version the document reflects.
    pub version: u64,
}

/// Produces the interface description from the current class state.
/// Implementations are the paper's WSDL Generator / IDL Generator.
pub type DocumentGenerator = dyn Fn() -> GeneratedDoc + Send + Sync + 'static;

/// Publication sink — receives each newly generated document (the
/// Interface Server, plus metrics).
pub type PublishSink = dyn Fn(&GeneratedDoc) + Send + Sync + 'static;

/// Counters exposed by a publisher (used by the §5.6 ablation and the
/// §5.7 rogue-client experiment).
#[derive(Debug, Default)]
pub struct PublisherMetrics {
    /// Completed generation operations.
    pub generations: AtomicU64,
    /// Documents actually handed to the Interface Server.
    pub publications: AtomicU64,
    /// `ensure_current` calls that had to force work (i.e. were not
    /// already current).
    pub forced: AtomicU64,
    /// `ensure_current` calls answered with no work at all.
    pub already_current: AtomicU64,
}

impl PublisherMetrics {
    /// Snapshot of (generations, publications, forced, already_current).
    ///
    /// `Relaxed` loads (matching the `Relaxed` increments): these atomics
    /// are pure statistics — publication state itself is synchronized by
    /// the publisher's mutex/condvar, never through these counters, so
    /// only their own atomicity matters.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.generations.load(Ordering::Relaxed),
            self.publications.load(Ordering::Relaxed),
            self.forced.load(Ordering::Relaxed),
            self.already_current.load(Ordering::Relaxed),
        )
    }
}

/// Global-registry mirrors of [`PublisherMetrics`], resolved once per
/// publisher. The per-publisher counters remain authoritative for the
/// experiments; these feed `GET /metrics` and the REPL `stats` view.
struct PublisherObs {
    generations: Arc<Counter>,
    publications: Arc<Counter>,
    forced: Arc<Counter>,
    already_current: Arc<Counter>,
    generation_ns: Arc<Histogram>,
}

impl PublisherObs {
    fn for_class(class: &str) -> PublisherObs {
        let r = obs::registry();
        let labels = [("class", class)];
        PublisherObs {
            generations: r.counter_with("sde_generations_total", &labels),
            publications: r.counter_with("sde_publications_total", &labels),
            forced: r.counter_with("sde_forced_publications_total", &labels),
            already_current: r.counter_with("sde_already_current_total", &labels),
            generation_ns: r.histogram_with("sde_generation_ns", &labels),
        }
    }
}

/// What the publication machine is told.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Input {
    /// The class changed: its interface version after the edit, and
    /// whether the distributed interface changed. May arrive after a
    /// generation has already read the edit.
    Edit {
        version: u64,
        distributed: bool,
    },
    /// The countdown ran out.
    Fired,
    /// The generation in flight read this interface version.
    Generated(u64),
    /// The sink holds the document [`Output::Publish`] handed it.
    Published,
    /// A stale call (§5.7) read this interface version of the class.
    Stale(u64),
    /// The user forced timer expiry (§4).
    Force,
    Strategy(PublicationStrategy),
    Shutdown,
}

/// What the runner must do, in the order a step returns them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Output {
    /// Start the countdown, replacing a running one.
    Arm(Duration),
    Cancel,
    /// Run the generator; answer [`Input::Generated`].
    Generate {
        forced: bool,
    },
    /// Hand the generated document to the sink; answer
    /// [`Input::Published`].
    Publish {
        forced: bool,
    },
    /// The stale call found the published document current: no work.
    Current,
    /// Nothing is in flight any more: wake the stale calls waiting.
    Release,
}

/// The outputs of one step (never more than two).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outputs([Option<Output>; 2]);

impl Outputs {
    fn push(&mut self, output: Output) {
        let slot = self.0.iter_mut().find(|o| o.is_none());
        *slot.expect("a step has at most two outputs") = Some(output);
    }

    pub fn contains(&self, output: Output) -> bool {
        self.0.contains(&Some(output))
    }
}

impl IntoIterator for Outputs {
    type Item = Output;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<Output>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter().flatten()
    }
}

/// The §5.6/§5.7 publication machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Publication {
    strategy: PublicationStrategy,
    /// The countdown runs.
    timer: bool,
    /// A generation is in flight, through its publication; whether it
    /// was forced.
    generating: Option<bool>,
    /// One more generation to run when the one in flight ends (§5.6:
    /// the timer may expire during a generation).
    queued: Option<bool>,
    /// Interface version of the last published document.
    published: u64,
    /// The newest interface version an edit or a stale call reported.
    seen: u64,
    /// The newest version the last countdown saw stay unchanged to its
    /// end.
    stable: u64,
    stopped: bool,
}

impl Publication {
    /// A machine whose document at `published` is already published.
    /// Feed it [`Input::Strategy`] to arm a periodic countdown.
    pub fn new(strategy: PublicationStrategy, published: u64) -> Publication {
        Publication {
            strategy,
            timer: false,
            generating: None,
            queued: None,
            published,
            seen: published,
            stable: published,
            stopped: false,
        }
    }

    pub fn strategy(&self) -> PublicationStrategy {
        self.strategy
    }

    pub fn published(&self) -> u64 {
        self.published
    }

    /// No generation is in flight or queued: waiters may leave.
    pub fn settled(&self) -> bool {
        self.generating.is_none()
    }

    /// Whether the published document is current for a class at
    /// `version`: no countdown, no generation, nothing newer.
    pub fn is_current(&self, version: u64) -> bool {
        !self.timer && self.settled() && self.published >= version
    }

    /// One transition.
    pub fn step(&mut self, input: Input) -> Outputs {
        let mut out = Outputs::default();
        match input {
            Input::Edit {
                version,
                distributed,
            } => self.edit(version, distributed, &mut out),
            Input::Fired if self.timer => {
                self.timer = false;
                self.stable = self.seen;
                self.request(false, &mut out);
            }
            Input::Fired => {}
            Input::Generated(version) => {
                let forced = self.generating.expect("a generation is in flight");
                // §5.6: a countdown publishes only what stayed unchanged
                // to its end. A generation that read a newer edit leaves
                // it to that edit's own countdown.
                let stable = forced
                    || version <= self.stable
                    || !matches!(self.strategy, PublicationStrategy::StableTimeout(_));
                if version > self.published && stable && !self.stopped {
                    self.published = version;
                    out.push(Output::Publish { forced });
                } else {
                    self.finish(&mut out);
                }
            }
            Input::Published => self.finish(&mut out),
            Input::Stale(version) => {
                self.seen = self.seen.max(version);
                if self.stopped || self.is_current(version) {
                    // §5.7 case 1: this early return is what makes a rogue
                    // client unable to trigger needless generations.
                    out.push(Output::Current);
                } else if self.timer || self.published < version {
                    // Cases 2/3: fold a pending countdown, or an edit not
                    // yet published, into a forced generation.
                    self.cancel(&mut out);
                    self.request(true, &mut out);
                }
            }
            Input::Force if !self.stopped => {
                self.cancel(&mut out);
                self.request(true, &mut out);
            }
            Input::Force => {}
            Input::Strategy(strategy) => {
                self.strategy = strategy;
                self.poll(&mut out);
            }
            Input::Shutdown => {
                self.stopped = true;
                self.queued = None;
                self.cancel(&mut out);
                if self.settled() {
                    out.push(Output::Release);
                }
            }
        }
        out
    }

    fn edit(&mut self, version: u64, distributed: bool, out: &mut Outputs) {
        self.seen = self.seen.max(version);
        // An edit the published document already covers carries no work.
        if self.stopped || (version <= self.published && self.settled()) {
            return;
        }
        match self.strategy {
            PublicationStrategy::ChangeDriven if distributed => self.request(true, out),
            PublicationStrategy::ChangeDriven | PublicationStrategy::Periodic(_) => {}
            // A change starts the countdown; a distributed change resets it.
            PublicationStrategy::StableTimeout(timeout) => {
                if !self.timer || distributed {
                    self.timer = true;
                    out.push(Output::Arm(timeout));
                }
            }
        }
    }

    fn request(&mut self, forced: bool, out: &mut Outputs) {
        if self.generating.is_some() {
            self.queued = Some(forced || self.queued == Some(true));
        } else {
            self.generating = Some(forced);
            out.push(Output::Generate { forced });
        }
    }

    fn finish(&mut self, out: &mut Outputs) {
        self.generating = None;
        // "Publishing if necessary": a document that covers every reported
        // edit leaves a countdown nothing to publish. Later edits re-arm.
        if self.published >= self.seen && !matches!(self.strategy, PublicationStrategy::Periodic(_))
        {
            self.cancel(out);
            if self.queued == Some(false) {
                self.queued = None;
            }
        }
        match self.queued.take() {
            Some(forced) => self.request(forced, out),
            None => {
                self.poll(out);
                out.push(Output::Release);
            }
        }
    }

    fn cancel(&mut self, out: &mut Outputs) {
        if self.timer {
            self.timer = false;
            out.push(Output::Cancel);
        }
    }

    /// A periodic strategy keeps a countdown armed while idle.
    fn poll(&mut self, out: &mut Outputs) {
        if let PublicationStrategy::Periodic(every) = self.strategy {
            if !self.timer && self.settled() && !self.stopped {
                self.timer = true;
                out.push(Output::Arm(every));
            }
        }
    }
}

/// The runner's side of the machine, under the same lock.
struct Runner {
    machine: Publication,
    /// When the armed countdown runs out.
    deadline: Option<Instant>,
    /// When this publisher's countdown entry on the clock is due.
    entry: Option<Instant>,
    /// The document between `Generated` and `Published`.
    doc: Option<GeneratedDoc>,
    /// Modelled generation cost: generations run on the clock this long
    /// after they are asked for.
    latency: Duration,
}

/// The DL Publisher shared by the WSDL and IDL publishers.
pub struct PublisherCore {
    name: String,
    class: ClassHandle,
    state: Mutex<Runner>,
    /// Signalled on [`Output::Release`].
    released: Condvar,
    generator: Box<DocumentGenerator>,
    sink: Box<PublishSink>,
    metrics: PublisherMetrics,
    o: PublisherObs,
    observer: Arc<ClassObserver>,
    me: Weak<PublisherCore>,
}

impl std::fmt::Debug for PublisherCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublisherCore")
            .field("class", &self.name)
            .field("strategy", &self.strategy())
            .finish_non_exhaustive()
    }
}

impl PublisherCore {
    /// Creates a publisher for `class`, immediately publishing the initial
    /// (minimal) document (§5.1.1/§5.2.1), and observes the class.
    pub fn start(
        class: ClassHandle,
        strategy: PublicationStrategy,
        generator: Box<DocumentGenerator>,
        sink: Box<PublishSink>,
    ) -> Arc<PublisherCore> {
        let name = class.name();
        let initial = generator();
        sink(&initial);
        let core = Arc::new_cyclic(|me: &Weak<PublisherCore>| {
            let observed = me.clone();
            PublisherCore {
                o: PublisherObs::for_class(&name),
                name,
                class: class.clone(),
                state: Mutex::new(Runner {
                    machine: Publication::new(strategy, initial.version),
                    deadline: None,
                    entry: None,
                    doc: None,
                    latency: Duration::ZERO,
                }),
                released: Condvar::new(),
                generator,
                sink,
                metrics: PublisherMetrics::default(),
                // Weak: the class may outlive the publisher.
                observer: Arc::new(move |event: &ClassEvent| {
                    if let Some(core) = observed.upgrade() {
                        core.edited(event);
                    }
                }),
                me: me.clone(),
            }
        });
        core.metrics.publications.fetch_add(1, Ordering::Relaxed);
        core.o.publications.inc();
        obs::events::record(&core.name, VersionEventKind::Publication, initial.version);
        class.observe(core.observer.clone());
        drop(core.drive(core.state.lock(), Input::Strategy(strategy), false));
        core
    }

    /// The class this publisher serves.
    pub fn class(&self) -> &ClassHandle {
        &self.class
    }

    /// Publication metrics.
    pub fn metrics(&self) -> &PublisherMetrics {
        &self.metrics
    }

    /// Changes the publication strategy (the SDE Manager Interface lets
    /// the user "control the publication frequency by specifying a
    /// timeout value", §4).
    pub fn set_strategy(&self, strategy: PublicationStrategy) {
        drop(self.drive(self.state.lock(), Input::Strategy(strategy), false));
    }

    /// Current strategy.
    pub fn strategy(&self) -> PublicationStrategy {
        self.state.lock().machine.strategy()
    }

    /// Sets an artificial generation latency (models the expensive
    /// generation operation; used by tests and the consistency-matrix
    /// experiment).
    pub fn set_generation_latency(&self, latency: Duration) {
        self.state.lock().latency = latency;
    }

    /// Version of the last published document.
    pub fn published_version(&self) -> u64 {
        self.state.lock().machine.published()
    }

    /// Whether the published document is current *right now* (timer idle,
    /// no generation in flight, version up to date).
    pub fn is_current(&self) -> bool {
        let st = self.state.lock();
        st.machine.is_current(self.class.interface_version())
    }

    /// §4: "The user may decide to manually trigger the publication of the
    /// server interface description at any time by forcing timer
    /// expiration through the SDE Manager Interface."
    pub fn force_publish(&self) {
        drop(self.drive(self.state.lock(), Input::Force, false));
    }

    /// Blocks until the published interface description reflects every
    /// change made before this call — the §5.7 algorithm. Returns whether
    /// any waiting/forcing was needed (false = "was already current").
    pub fn ensure_current(&self) -> bool {
        let mut st = self.state.lock();
        let version = self.class.interface_version();
        let out = st.machine.step(Input::Stale(version));
        if out.contains(Output::Current) {
            self.metrics.already_current.fetch_add(1, Ordering::Relaxed);
            self.o.already_current.inc();
            return false;
        }
        self.metrics.forced.fetch_add(1, Ordering::Relaxed);
        self.o.forced.inc();
        obs::events::note(
            "sde::publisher",
            "ensure-current-forced",
            format!("class={} version={version}", self.name),
        );
        st = self.execute(st, out, true);
        while !st.machine.settled() {
            self.released.wait(&mut st);
        }
        true
    }

    /// Stops publishing and stops observing the class. A generation in
    /// flight finishes first; it publishes nothing.
    pub fn shutdown(&self) {
        self.class.unobserve(&self.observer);
        let mut st = self.drive(self.state.lock(), Input::Shutdown, false);
        while !st.machine.settled() {
            self.released.wait(&mut st);
        }
    }

    fn edited(&self, event: &ClassEvent) {
        if event.distributed_change {
            let kind = VersionEventKind::InterfaceEdit;
            obs::events::record(&self.name, kind, event.interface_version);
        }
        let edit = Input::Edit {
            version: event.interface_version,
            distributed: event.distributed_change,
        };
        drop(self.drive(self.state.lock(), edit, false));
    }

    fn drive<'a>(
        &'a self,
        mut st: MutexGuard<'a, Runner>,
        input: Input,
        here: bool,
    ) -> MutexGuard<'a, Runner> {
        let out = st.machine.step(input);
        self.execute(st, out, here)
    }

    /// Carries out the machine's outputs, feeding back what they answer.
    /// A generation runs on this thread when `here` and no latency is
    /// modelled, else on the clock.
    fn execute<'a>(
        &'a self,
        mut st: MutexGuard<'a, Runner>,
        mut out: Outputs,
        here: bool,
    ) -> MutexGuard<'a, Runner> {
        loop {
            let mut work = None;
            for output in out {
                match output {
                    Output::Arm(after) => self.arm(&mut st, after),
                    Output::Cancel => st.deadline = None,
                    Output::Release => self.released.notify_all(),
                    Output::Generate { .. } if !here || !st.latency.is_zero() => {
                        clock().at(Instant::now() + st.latency, &self.me, Job::Generate);
                    }
                    Output::Generate { .. } | Output::Publish { .. } => work = Some(output),
                    Output::Current => {}
                }
            }
            let input = match work {
                None => return st,
                Some(Output::Publish { forced }) => {
                    let doc = st.doc.take().expect("a generated document");
                    drop(st);
                    self.publish(&doc, forced);
                    st = self.state.lock();
                    Input::Published
                }
                Some(_) => {
                    drop(st);
                    let input;
                    (st, input) = self.generate();
                    input
                }
            };
            out = st.machine.step(input);
        }
    }

    fn arm(&self, st: &mut Runner, after: Duration) {
        if let PublicationStrategy::StableTimeout(_) = st.machine.strategy() {
            let version = self.class.interface_version();
            obs::events::record(&self.name, VersionEventKind::TimerReset, version);
        }
        let due = Instant::now() + after;
        st.deadline = Some(due);
        // One entry per publisher: an entry due before a reset deadline
        // requeues itself when it finds the deadline moved.
        if st.entry.is_none_or(|at| at > due) {
            st.entry = Some(due);
            clock().at(due, &self.me, Job::Countdown);
        }
    }

    /// A countdown entry came due.
    fn countdown(&self) {
        let mut st = self.state.lock();
        let now = Instant::now();
        if st.entry.is_some_and(|at| at <= now) {
            st.entry = None;
        }
        match st.deadline {
            Some(due) if due <= now => {
                st.deadline = None;
                if let PublicationStrategy::StableTimeout(_) = st.machine.strategy() {
                    let version = self.class.interface_version();
                    obs::events::record(&self.name, VersionEventKind::StabilityTimeout, version);
                }
                drop(self.drive(st, Input::Fired, true));
            }
            Some(due) if st.entry.is_none() => {
                st.entry = Some(due);
                clock().at(due, &self.me, Job::Countdown);
            }
            _ => {}
        }
    }

    /// Runs the generator outside the lock; returns the lock and the
    /// machine's input.
    fn generate(&self) -> (MutexGuard<'_, Runner>, Input) {
        let span = obs::Span::timed(self.o.generation_ns.clone());
        let doc = (self.generator)();
        span.finish();
        self.metrics.generations.fetch_add(1, Ordering::Relaxed);
        self.o.generations.inc();
        obs::events::record(&self.name, VersionEventKind::Generation, doc.version);
        let mut st = self.state.lock();
        let input = Input::Generated(doc.version);
        st.doc = Some(doc);
        (st, input)
    }

    fn publish(&self, doc: &GeneratedDoc, forced: bool) {
        (self.sink)(doc);
        self.metrics.publications.fetch_add(1, Ordering::Relaxed);
        self.o.publications.inc();
        let kind = if forced {
            VersionEventKind::ForcedPublication
        } else {
            VersionEventKind::Publication
        };
        obs::events::record(&self.name, kind, doc.version);
    }
}

impl Drop for PublisherCore {
    fn drop(&mut self) {
        self.class.unobserve(&self.observer);
    }
}

/// What a clock entry does when it comes due.
#[derive(Clone, Copy)]
enum Job {
    Countdown,
    Generate,
}

/// Clock entries by due time (and arrival, to keep equal times apart).
type Queue = BTreeMap<(Instant, u64), (Weak<PublisherCore>, Job)>;

/// The publication clock: one deadline queue for every publisher in the
/// process, served by one thread started on first use.
struct Clock {
    queue: Mutex<Queue>,
    wake: Condvar,
    seq: AtomicU64,
}

fn clock() -> &'static Clock {
    static CLOCK: OnceLock<Clock> = OnceLock::new();
    CLOCK.get_or_init(|| {
        thread::Builder::new()
            .name("publish-clock".into())
            .spawn(|| clock().run())
            .expect("spawn the publication clock");
        Clock {
            queue: Mutex::new(BTreeMap::new()),
            wake: Condvar::new(),
            seq: AtomicU64::new(0),
        }
    })
}

impl Clock {
    fn at(&self, at: Instant, core: &Weak<PublisherCore>, job: Job) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.queue.lock().insert((at, seq), (core.clone(), job));
        self.wake.notify_one();
    }

    fn run(&self) {
        loop {
            let mut queue = self.queue.lock();
            let (core, job) = loop {
                match queue.first_key_value().map(|(&(at, _), _)| at) {
                    Some(at) if at <= Instant::now() => {
                        break queue.pop_first().expect("a due entry").1;
                    }
                    Some(at) => drop(self.wake.wait_until(&mut queue, at)),
                    None => self.wake.wait(&mut queue),
                }
            };
            drop(queue);
            let Some(core) = core.upgrade() else {
                continue;
            };
            match job {
                Job::Countdown => core.countdown(),
                Job::Generate => {
                    let (st, input) = core.generate();
                    drop(core.drive(st, input, true));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jpie::{MethodBuilder, TypeDesc};
    use std::sync::Mutex as StdMutex;

    const HOUR: Duration = Duration::from_secs(3600);
    const STABLE: PublicationStrategy = PublicationStrategy::StableTimeout(HOUR);

    fn edit(version: u64) -> Input {
        Input::Edit {
            version,
            distributed: true,
        }
    }

    /// Steps `machine` through `inputs`, returning every output in order.
    fn run(machine: &mut Publication, inputs: &[Input]) -> Vec<Output> {
        inputs.iter().flat_map(|&i| machine.step(i)).collect()
    }

    use Output::{Arm, Cancel, Current, Generate, Publish, Release};

    #[test]
    fn a_burst_publishes_once_after_the_countdown() {
        let mut m = Publication::new(STABLE, 0);
        let out = run(&mut m, &[edit(1), edit(2), edit(3), edit(4)]);
        assert_eq!(out, vec![Arm(HOUR); 4], "each edit resets the countdown");
        assert_eq!(m.published(), 0, "no publication mid-burst");
        let out = run(
            &mut m,
            &[Input::Fired, Input::Generated(4), Input::Published],
        );
        let unforced = Generate { forced: false };
        assert_eq!(out, vec![unforced, Publish { forced: false }, Release]);
        assert!(m.is_current(4));
    }

    #[test]
    fn a_countdown_during_a_generation_queues_one_follow_up() {
        let mut m = Publication::new(STABLE, 0);
        run(&mut m, &[edit(1), Input::Fired]);
        // The generation reads v1; v2 lands and its countdown runs out
        // while the generation is still in flight.
        assert_eq!(run(&mut m, &[edit(2), Input::Fired]), vec![Arm(HOUR)]);
        let out = run(&mut m, &[Input::Generated(1), Input::Published]);
        let unforced = Generate { forced: false };
        assert_eq!(out, vec![Publish { forced: false }, unforced]);
        let out = run(&mut m, &[Input::Generated(2), Input::Published]);
        assert_eq!(out, vec![Publish { forced: false }, Release]);
        assert_eq!(m.published(), 2);
    }

    #[test]
    fn a_countdown_publishes_nothing_it_did_not_see_stay_stable() {
        let mut m = Publication::new(STABLE, 0);
        run(&mut m, &[edit(1), Input::Fired]);
        // The generation reads an edit whose event has not arrived yet.
        assert_eq!(run(&mut m, &[Input::Generated(2)]), vec![Release]);
        assert_eq!(m.published(), 0);
        assert_eq!(
            run(&mut m, &[edit(2)]),
            vec![Arm(HOUR)],
            "the late edit re-arms"
        );
        run(
            &mut m,
            &[Input::Fired, Input::Generated(2), Input::Published],
        );
        assert!(m.is_current(2));
    }

    #[test]
    fn a_body_edit_starts_but_does_not_reset_the_countdown() {
        let mut m = Publication::new(STABLE, 0);
        let body = |version| Input::Edit {
            version,
            distributed: false,
        };
        assert_eq!(run(&mut m, &[body(0)]), vec![], "nothing to publish");
        assert_eq!(run(&mut m, &[edit(1), body(1)]), vec![Arm(HOUR)]);
        let out = run(&mut m, &[Input::Stale(1)]);
        assert_eq!(out, vec![Cancel, Generate { forced: true }]);
    }

    #[test]
    fn change_driven_generates_on_every_distributed_edit() {
        let mut m = Publication::new(PublicationStrategy::ChangeDriven, 0);
        let forced = Generate { forced: true };
        assert_eq!(run(&mut m, &[edit(1)]), vec![forced]);
        assert_eq!(run(&mut m, &[edit(2)]), vec![], "queued behind the first");
        let out = run(&mut m, &[Input::Generated(1), Input::Published]);
        assert_eq!(out, vec![Publish { forced: true }, forced]);
        run(&mut m, &[Input::Generated(2), Input::Published]);
        assert_eq!(m.published(), 2);
    }

    #[test]
    fn periodic_polls_and_publishes_only_changes() {
        let every = Duration::from_millis(15);
        let mut m = Publication::new(PublicationStrategy::Periodic(every), 0);
        let periodic = Input::Strategy(PublicationStrategy::Periodic(every));
        assert_eq!(run(&mut m, &[periodic]), vec![Arm(every)]);
        assert_eq!(run(&mut m, &[edit(1)]), vec![], "polling ignores edits");
        let out = run(
            &mut m,
            &[Input::Fired, Input::Generated(1), Input::Published],
        );
        let unforced = Generate { forced: false };
        assert_eq!(
            out,
            vec![unforced, Publish { forced: false }, Arm(every), Release]
        );
        let out = run(&mut m, &[Input::Fired, Input::Generated(1)]);
        assert_eq!(
            out,
            vec![unforced, Arm(every), Release],
            "no change, no publication"
        );
    }

    #[test]
    fn stale_calls_follow_the_three_cases_of_5_7() {
        // Case 1: nothing running and nothing newer — no work.
        let mut m = Publication::new(STABLE, 3);
        assert_eq!(run(&mut m, &[Input::Stale(3)]), vec![Current]);
        // Case 2: a generation in flight, no countdown — wait for it.
        run(&mut m, &[Input::Force]);
        assert_eq!(run(&mut m, &[Input::Stale(3)]), vec![]);
        assert!(!m.settled());
        run(&mut m, &[Input::Generated(3)]);
        assert!(m.settled());
        // Case 3: a generation in flight and a countdown running — the
        // countdown folds into one forced follow-up.
        run(&mut m, &[Input::Force, edit(4)]);
        assert_eq!(run(&mut m, &[Input::Stale(4)]), vec![Cancel]);
        let out = run(&mut m, &[Input::Generated(3)]);
        assert_eq!(out, vec![Generate { forced: true }]);
        let out = run(&mut m, &[Input::Generated(4), Input::Published]);
        assert_eq!(out, vec![Publish { forced: true }, Release]);
    }

    #[test]
    fn a_rogue_client_cannot_force_generations() {
        let mut m = Publication::new(STABLE, 5);
        for _ in 0..100 {
            assert_eq!(run(&mut m, &[Input::Stale(5)]), vec![Current]);
        }
    }

    #[test]
    fn the_strategy_changes_live() {
        let mut m = Publication::new(STABLE, 0);
        run(
            &mut m,
            &[Input::Strategy(PublicationStrategy::ChangeDriven)],
        );
        assert_eq!(m.strategy(), PublicationStrategy::ChangeDriven);
        assert_eq!(run(&mut m, &[edit(1)]), vec![Generate { forced: true }]);
    }

    #[test]
    fn shutdown_releases_waiters_and_publishes_nothing_more() {
        let mut m = Publication::new(STABLE, 0);
        run(&mut m, &[edit(1), Input::Stale(1)]);
        assert_eq!(
            run(&mut m, &[Input::Shutdown]),
            vec![],
            "a generation is in flight"
        );
        assert_eq!(run(&mut m, &[Input::Generated(1)]), vec![Release]);
        assert_eq!(
            run(&mut m, &[edit(2), Input::Force, Input::Stale(2)]),
            vec![Current]
        );
    }

    fn test_class(name: &str) -> ClassHandle {
        let class = ClassHandle::new(name);
        class
            .add_method(MethodBuilder::new("seed", TypeDesc::Void).distributed(true))
            .unwrap();
        class
    }

    /// Publisher wired to an in-memory publication log.
    fn start_publisher(
        class: &ClassHandle,
        strategy: PublicationStrategy,
    ) -> (Arc<PublisherCore>, Arc<StdMutex<Vec<u64>>>) {
        let log = Arc::new(StdMutex::new(Vec::new()));
        let gen_class = class.clone();
        let sink_log = log.clone();
        let core = PublisherCore::start(
            class.clone(),
            strategy,
            Box::new(move || GeneratedDoc {
                text: format!("doc-v{}", gen_class.interface_version()),
                version: gen_class.interface_version(),
            }),
            Box::new(move |doc| sink_log.lock().unwrap().push(doc.version)),
        );
        (core, log)
    }

    fn add(class: &ClassHandle, name: &str) {
        class
            .add_method(MethodBuilder::new(name, TypeDesc::Void).distributed(true))
            .unwrap();
    }

    #[test]
    fn initial_document_published_at_start() {
        let class = test_class("P0");
        let (core, log) = start_publisher(&class, STABLE);
        assert_eq!(log.lock().unwrap().len(), 1);
        assert!(core.is_current());
        assert!(!core.ensure_current(), "no work when already current");
        let (_, _, forced, already) = core.metrics().snapshot();
        assert_eq!((forced, already), (0, 1));
        core.shutdown();
    }

    #[test]
    fn an_hour_long_countdown_is_forced() {
        let class = test_class("P4");
        let (core, log) = start_publisher(&class, STABLE);
        add(&class, "late");
        assert_eq!(log.lock().unwrap().len(), 1, "huge timeout still pending");
        assert!(!core.is_current());
        // A forced publication runs on the clock; `ensure_current` waits.
        // The modelled cost keeps it in flight until the wait begins: a
        // free generation can finish before this thread runs again.
        core.set_generation_latency(Duration::from_millis(20));
        core.force_publish();
        assert!(core.ensure_current());
        core.set_generation_latency(Duration::ZERO);
        assert_eq!(*log.lock().unwrap(), vec![1, 2]);
        // A stale call forces an hour-long countdown on its own thread.
        add(&class, "later");
        assert!(core.ensure_current());
        assert_eq!(core.published_version(), class.interface_version());
        assert!(obs::events::count("P4", VersionEventKind::InterfaceEdit) >= 2);
        assert!(obs::events::count("P4", VersionEventKind::TimerReset) >= 2);
        assert!(obs::events::count("P4", VersionEventKind::ForcedPublication) >= 2);
        let latest = obs::events::latest_published_version("P4");
        assert_eq!(latest, Some(class.interface_version()));
        core.shutdown();
    }

    #[test]
    fn a_modelled_generation_cost_is_a_clock_deadline() {
        let class = test_class("P7");
        let (core, log) = start_publisher(&class, STABLE);
        core.set_generation_latency(Duration::from_millis(60));
        add(&class, "slow");
        let began = Instant::now();
        assert!(core.ensure_current());
        assert!(began.elapsed() >= Duration::from_millis(60));
        assert_eq!(*log.lock().unwrap(), vec![1, 2]);
        core.shutdown();
    }

    #[test]
    fn concurrent_ensure_current_callers() {
        let class = test_class("P12");
        let (core, log) = start_publisher(&class, STABLE);
        add(&class, "c");
        let mut handles = Vec::new();
        for _ in 0..8 {
            let core = core.clone();
            handles.push(thread::spawn(move || core.ensure_current()));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(core.published_version(), class.interface_version());
        assert_eq!(*log.lock().unwrap(), vec![1, 2], "one forced publication");
        let (generations, ..) = core.metrics().snapshot();
        assert_eq!(generations, 1, "the callers share one generation");
        core.shutdown();
    }

    #[test]
    fn shutdown_stops_observing_the_class() {
        let class = test_class("P13");
        let (core, log) = start_publisher(&class, PublicationStrategy::ChangeDriven);
        core.shutdown();
        add(&class, "after");
        assert!(!core.ensure_current());
        assert_eq!(*log.lock().unwrap(), vec![1]);
    }
}
