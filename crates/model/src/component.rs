//! Component classes: interfaces, threads, and actions (§2.1).

use crate::Priority;
use hsched_numeric::{Cycles, Time};

/// A method of a provided interface, e.g. `SensorReading.provided.read`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvidedMethod {
    /// Method name (the paper's *signature*; parameters are irrelevant to
    /// timing and omitted).
    pub name: String,
    /// Minimum inter-arrival time between two invocations — the paper's
    /// worst-case activation pattern restricted to a single MIT value.
    pub mit: Time,
}

impl ProvidedMethod {
    /// Creates a provided method with the given MIT.
    pub fn new(name: impl Into<String>, mit: Time) -> ProvidedMethod {
        ProvidedMethod {
            name: name.into(),
            mit,
        }
    }
}

/// A method of a required interface, e.g.
/// `SensorIntegration.required.readSensor1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequiredMethod {
    /// Method name.
    pub name: String,
    /// The MIT this component promises between its own invocations of the
    /// method. `None` means "derived from the calling threads' periods"
    /// (validation computes and checks it).
    pub mit: Option<Time>,
}

impl RequiredMethod {
    /// A required method with an explicit MIT promise.
    pub fn new(name: impl Into<String>, mit: Time) -> RequiredMethod {
        RequiredMethod {
            name: name.into(),
            mit: Some(mit),
        }
    }

    /// A required method whose MIT is derived from usage.
    pub fn derived(name: impl Into<String>) -> RequiredMethod {
        RequiredMethod {
            name: name.into(),
            mit: None,
        }
    }
}

/// Reference to a required method by name (resolved during validation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodRef(pub String);

/// One step of a thread body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// A *task*: a piece of code executed by the component itself, with a
    /// worst-case and best-case execution time (in cycles of a unit-speed
    /// processor; the platform rate scales them).
    Execute {
        /// Human-readable label (e.g. `init`, `compute`).
        name: String,
        /// Worst-case execution time `C`.
        wcet: Cycles,
        /// Best-case execution time `Cbest ≤ C`.
        bcet: Cycles,
    },
    /// A synchronous invocation of a method of the required interface: the
    /// thread suspends until the callee's realizing thread completes.
    Call(MethodRef),
}

impl Action {
    /// Builds an [`Action::Execute`] step.
    pub fn task(name: impl Into<String>, wcet: Cycles, bcet: Cycles) -> Action {
        Action::Execute {
            name: name.into(),
            wcet,
            bcet,
        }
    }

    /// Builds an [`Action::Call`] step.
    pub fn call(method: impl Into<String>) -> Action {
        Action::Call(MethodRef(method.into()))
    }
}

/// How a thread is activated (§2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadActivation {
    /// Time-triggered: released every `period`, must finish within
    /// `deadline` of its release.
    Periodic {
        /// Period `T`.
        period: Time,
        /// Relative deadline `D` (the paper's example uses `D = T`).
        deadline: Time,
    },
    /// Event-triggered: released by each invocation of the named provided
    /// method; inherits the method's MIT as its minimum inter-arrival time.
    Realizes(MethodRef),
}

/// A thread of a component implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadSpec {
    /// Thread name, unique within the class.
    pub name: String,
    /// Local priority (greater = higher), used by the class's scheduler.
    pub priority: Priority,
    /// Activation pattern.
    pub activation: ThreadActivation,
    /// Body: a sequence of tasks and synchronous calls.
    pub body: Vec<Action>,
}

impl ThreadSpec {
    /// A periodic thread with deadline equal to period.
    pub fn periodic(
        name: impl Into<String>,
        period: Time,
        priority: Priority,
        body: Vec<Action>,
    ) -> ThreadSpec {
        ThreadSpec {
            name: name.into(),
            priority,
            activation: ThreadActivation::Periodic {
                period,
                deadline: period,
            },
            body,
        }
    }

    /// A periodic thread with an explicit relative deadline.
    pub fn periodic_with_deadline(
        name: impl Into<String>,
        period: Time,
        deadline: Time,
        priority: Priority,
        body: Vec<Action>,
    ) -> ThreadSpec {
        ThreadSpec {
            name: name.into(),
            priority,
            activation: ThreadActivation::Periodic { period, deadline },
            body,
        }
    }

    /// An event-triggered thread realizing a provided method.
    pub fn realizes(
        name: impl Into<String>,
        method: impl Into<String>,
        priority: Priority,
        body: Vec<Action>,
    ) -> ThreadSpec {
        ThreadSpec {
            name: name.into(),
            priority,
            activation: ThreadActivation::Realizes(MethodRef(method.into())),
            body,
        }
    }

    /// `true` for time-triggered threads.
    pub fn is_periodic(&self) -> bool {
        matches!(self.activation, ThreadActivation::Periodic { .. })
    }

    /// The provided method this thread realizes, if event-triggered.
    pub fn realized_method(&self) -> Option<&str> {
        match &self.activation {
            ThreadActivation::Realizes(MethodRef(m)) => Some(m),
            _ => None,
        }
    }

    /// Names of required methods invoked by this thread's body, in order.
    pub fn calls(&self) -> impl Iterator<Item = &str> {
        self.body.iter().filter_map(|a| match a {
            Action::Call(MethodRef(m)) => Some(m.as_str()),
            _ => None,
        })
    }

    /// Total worst-case execution demand of the thread's own tasks.
    pub fn local_wcet(&self) -> Cycles {
        self.body
            .iter()
            .map(|a| match a {
                Action::Execute { wcet, .. } => *wcet,
                Action::Call(_) => Cycles::ZERO,
            })
            .sum()
    }
}

/// The scheduler local to a component. The paper analyzes fixed priorities;
/// EDF is accepted by the model and the simulator, and rejected by the
/// analysis with a clear error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LocalScheduler {
    /// Preemptive fixed priorities, greater number = higher priority.
    #[default]
    FixedPriority,
    /// Preemptive earliest-deadline-first (model/simulator extension).
    EarliestDeadlineFirst,
}

/// A component class (§2.1): interface + implementation template, e.g. the
/// paper's `SensorReading` (Figure 1) instantiated twice.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentClass {
    /// Class name.
    pub name: String,
    /// Methods offered to other components.
    pub provided: Vec<ProvidedMethod>,
    /// Methods this component needs bound to some provider.
    pub required: Vec<RequiredMethod>,
    /// The local scheduler.
    pub scheduler: LocalScheduler,
    /// The implementation threads.
    pub threads: Vec<ThreadSpec>,
}

impl ComponentClass {
    /// Creates an empty class with a fixed-priority scheduler.
    pub fn new(name: impl Into<String>) -> ComponentClass {
        ComponentClass {
            name: name.into(),
            provided: Vec::new(),
            required: Vec::new(),
            scheduler: LocalScheduler::FixedPriority,
            threads: Vec::new(),
        }
    }

    /// Adds a provided method (builder style).
    pub fn provides(mut self, method: ProvidedMethod) -> ComponentClass {
        self.provided.push(method);
        self
    }

    /// Adds a required method (builder style).
    pub fn requires(mut self, method: RequiredMethod) -> ComponentClass {
        self.required.push(method);
        self
    }

    /// Adds a thread (builder style).
    pub fn thread(mut self, thread: ThreadSpec) -> ComponentClass {
        self.threads.push(thread);
        self
    }

    /// Sets the local scheduler (builder style).
    pub fn scheduled_by(mut self, scheduler: LocalScheduler) -> ComponentClass {
        self.scheduler = scheduler;
        self
    }

    /// Finds a provided method by name.
    pub fn provided_method(&self, name: &str) -> Option<&ProvidedMethod> {
        self.provided.iter().find(|m| m.name == name)
    }

    /// Finds a required method by name.
    pub fn required_method(&self, name: &str) -> Option<&RequiredMethod> {
        self.required.iter().find(|m| m.name == name)
    }

    /// The thread realizing a provided method, if any.
    pub fn realizer_of(&self, method: &str) -> Option<&ThreadSpec> {
        self.threads
            .iter()
            .find(|t| t.realized_method() == Some(method))
    }
}

/// Builds the paper's `SensorReading` class (Figure 1) with explicit
/// execution times (the figure gives the structure; Table 1 the numbers:
/// the periodic acquisition thread is `C = 1, Cbest = 0.25` and the `read()`
/// realizer `C = 1, Cbest = 0.8`).
pub fn sensor_reading_class() -> ComponentClass {
    ComponentClass::new("SensorReading")
        .provides(ProvidedMethod::new("read", Time::from_integer(50)))
        .thread(ThreadSpec::periodic(
            "Thread1",
            Time::from_integer(15),
            2,
            vec![Action::task(
                "acquire",
                Cycles::from_integer(1),
                Cycles::new(1, 4),
            )],
        ))
        .thread(ThreadSpec::realizes(
            "Thread2",
            "read",
            1,
            vec![Action::task(
                "serve_read",
                Cycles::from_integer(1),
                Cycles::new(4, 5),
            )],
        ))
}

/// Builds the paper's `SensorIntegration` class (Figure 2). `Thread2`'s
/// body is `init; readSensor1(); readSensor2(); compute;` with the Table 1
/// execution times (init: `C=1, Cbest=0.8`; compute: `C=1, Cbest=0.8`), and
/// `Thread1` realizes `read()` with `C = 7, Cbest = 5` (the paper's τ4,1).
pub fn sensor_integration_class() -> ComponentClass {
    ComponentClass::new("SensorIntegration")
        .provides(ProvidedMethod::new("read", Time::from_integer(70)))
        .requires(RequiredMethod::derived("readSensor1"))
        .requires(RequiredMethod::derived("readSensor2"))
        .thread(ThreadSpec::realizes(
            "Thread1",
            "read",
            1,
            vec![Action::task(
                "serve_read",
                Cycles::from_integer(7),
                Cycles::from_integer(5),
            )],
        ))
        .thread(ThreadSpec::periodic(
            "Thread2",
            Time::from_integer(50),
            2,
            vec![
                Action::task("init", Cycles::from_integer(1), Cycles::new(4, 5)),
                Action::call("readSensor1"),
                Action::call("readSensor2"),
                Action::task("compute", Cycles::from_integer(1), Cycles::new(4, 5)),
            ],
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsched_numeric::rat;

    #[test]
    fn sensor_reading_matches_figure1() {
        let c = sensor_reading_class();
        assert_eq!(c.name, "SensorReading");
        assert_eq!(c.provided.len(), 1);
        assert_eq!(c.provided[0].mit, rat(50, 1));
        assert!(c.required.is_empty());
        assert_eq!(c.threads.len(), 2);
        assert!(c.threads[0].is_periodic());
        assert_eq!(c.threads[0].priority, 2);
        assert_eq!(c.threads[1].realized_method(), Some("read"));
        assert_eq!(c.threads[1].priority, 1);
        assert_eq!(c.realizer_of("read").unwrap().name, "Thread2");
        assert!(c.realizer_of("write").is_none());
    }

    #[test]
    fn sensor_integration_matches_figure2() {
        let c = sensor_integration_class();
        assert_eq!(c.required.len(), 2);
        let t2 = &c.threads[1];
        assert!(t2.is_periodic());
        let calls: Vec<&str> = t2.calls().collect();
        assert_eq!(calls, ["readSensor1", "readSensor2"]);
        assert_eq!(t2.local_wcet(), rat(2, 1)); // init + compute
        assert_eq!(t2.body.len(), 4);
    }

    #[test]
    fn thread_constructors() {
        let t = ThreadSpec::periodic_with_deadline("t", rat(10, 1), rat(8, 1), 3, vec![]);
        match t.activation {
            ThreadActivation::Periodic { period, deadline } => {
                assert_eq!(period, rat(10, 1));
                assert_eq!(deadline, rat(8, 1));
            }
            _ => panic!("expected periodic"),
        }
        assert!(t.calls().next().is_none());
        assert_eq!(t.local_wcet(), Cycles::ZERO);
    }

    #[test]
    fn method_lookups() {
        let c = sensor_integration_class();
        assert!(c.provided_method("read").is_some());
        assert!(c.provided_method("write").is_none());
        assert!(c.required_method("readSensor1").is_some());
        assert!(c.required_method("readSensor9").is_none());
    }

    #[test]
    fn action_builders() {
        let a = Action::task("x", rat(2, 1), rat(1, 1));
        match &a {
            Action::Execute { name, wcet, bcet } => {
                assert_eq!(name, "x");
                assert_eq!(*wcet, rat(2, 1));
                assert_eq!(*bcet, rat(1, 1));
            }
            _ => panic!(),
        }
        let c = Action::call("m");
        assert_eq!(c, Action::Call(MethodRef("m".into())));
    }

    #[test]
    fn default_scheduler_is_fixed_priority() {
        assert_eq!(LocalScheduler::default(), LocalScheduler::FixedPriority);
        let c = ComponentClass::new("X");
        assert_eq!(c.scheduler, LocalScheduler::FixedPriority);
        let c = c.scheduled_by(LocalScheduler::EarliestDeadlineFirst);
        assert_eq!(c.scheduler, LocalScheduler::EarliestDeadlineFirst);
    }
}
