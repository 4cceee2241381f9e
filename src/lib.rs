//! **hsched** — hierarchical scheduling for component-based real-time
//! systems.
//!
//! A Rust implementation of Lorente, Lipari & Bini, *"A Hierarchical
//! Scheduling Model for Component-Based Real-Time Systems"* (IPPS 2006):
//! components with provided/required interfaces executing on reserved
//! fractions of CPUs and networks (*abstract computing platforms*), flattened
//! into real-time transactions and analyzed with a holistic, offset-based
//! worst-case response-time analysis generalized to `(α, Δ, β)` platforms.
//!
//! # Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`numeric`] | `hsched-numeric` | exact rational arithmetic |
//! | [`supply`] | `hsched-supply` | supply functions Zmin/Zmax, (α, Δ, β) extraction |
//! | [`platform`] | `hsched-platform` | named platforms, platform sets |
//! | [`model`] | `hsched-model` | components, threads, RPC bindings, validation |
//! | [`transaction`] | `hsched-transaction` | transactions + the §2.4 flattening |
//! | [`analysis`] | `hsched-analysis` | the §3 response-time analyses |
//! | [`admission`] | `hsched-admission` | online admission control (incremental analysis, scenario generator) |
//! | [`engine`] | `hsched-engine` | concurrent admission service: `SchedService` (`&self` submits, ticketed epochs, journal compaction) over island-routed shards, typed `TxnId` API, journaled replay |
//! | [`net`] | `hsched-net` | socket layer: framed wire protocol, `hsched serve` server, journal-streaming replication, warm-standby follower, remote client |
//! | [`sim`] | `hsched-sim` | discrete-event simulator (validation oracle) |
//! | [`spec`] | `hsched-spec` | the `.hsc` specification language |
//! | [`design`] | `hsched-design` | platform-parameter optimization (§5 future work) |
//!
//! # Quickstart
//!
//! ```
//! use hsched::prelude::*;
//!
//! // The paper's worked example (Tables 1–2), ready-made:
//! let system = hsched::transaction::paper_example::transactions();
//!
//! // Analyze (§3) …
//! let report = analyze(&system);
//! assert!(report.schedulable());
//!
//! // … and cross-check with the simulator.
//! let sim = simulate(&system, &SimConfig::worst_case(rat(5000, 1)));
//! for (i, tx) in system.transactions().iter().enumerate() {
//!     for j in 0..tx.len() {
//!         if let Some(observed) = sim.task_stats(i, j).max_response {
//!             assert!(observed <= report.response(i, j));
//!         }
//!     }
//! }
//!
//! // Serve it online: the admission service admits/rejects batched
//! // changes against the same analysis, with typed handles and journaling.
//! // (`submit` takes `&self`: concurrent clients share one `SchedService`.)
//! let engine = SchedService::new(
//!     system.clone(),
//!     AnalysisConfig::default(),
//!     AdmissionPolicy::default(),
//! )
//! .unwrap();
//! let response = engine
//!     .submit(&EngineRequest::batch(vec![AdmissionRequest::RemoveTransaction {
//!         name: "Sensor2.Thread1".into(),
//!     }]))
//!     .unwrap();
//! assert!(response.outcome.verdict.admitted());
//! assert!(engine.schedulable());
//! ```

pub use hsched_admission as admission;
pub use hsched_analysis as analysis;
pub use hsched_design as design;
pub use hsched_engine as engine;
pub use hsched_model as model;
pub use hsched_net as net;
pub use hsched_numeric as numeric;
pub use hsched_platform as platform;
pub use hsched_sim as sim;
pub use hsched_spec as spec;
pub use hsched_supply as supply;
pub use hsched_telemetry as telemetry;
pub use hsched_transaction as transaction;

/// The most commonly used items in one import.
pub mod prelude {
    pub use hsched_admission::{AdmissionController, AdmissionPolicy, AdmissionRequest};
    pub use hsched_analysis::{analyze, analyze_with, AnalysisConfig, SchedulabilityReport};
    pub use hsched_design::{min_alpha, minimize_bandwidth, pareto_sweep, DesignConfig};
    pub use hsched_engine::{
        EngineError, EngineOp, EngineRequest, EngineResponse, SchedService, SnapshotInfo, TxnId,
    };
    pub use hsched_model::{
        Action, ComponentClass, ProvidedMethod, RequiredMethod, RpcLink, System, SystemBuilder,
        ThreadSpec,
    };
    pub use hsched_numeric::{rat, Cycles, Rational, Time};
    pub use hsched_platform::{Platform, PlatformId, PlatformSet};
    pub use hsched_sim::{simulate, SimConfig};
    pub use hsched_spec::{parse_and_validate, parse_str};
    pub use hsched_supply::{BoundedDelay, PeriodicServer, SupplyCurve};
    pub use hsched_transaction::{flatten, FlattenOptions, Task, Transaction, TransactionSet};
}
