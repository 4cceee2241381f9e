//! Abstract computing platforms (§2.3): named, reserved fractions of a
//! physical CPU or network that components execute on.
//!
//! A [`Platform`] couples an identity (name, kind) with a *service model* —
//! either the paper's linear `(α, Δ, β)` abstraction directly, or the exact
//! supply curve of the mechanism implementing the reservation (periodic
//! server, TDMA partition, P-fair share). The schedulability analysis
//! consumes platforms through the [`SupplyCurve`] interface plus the linear
//! parameters, so either representation works; keeping the mechanism around
//! enables the "how much does the linear abstraction cost?" ablation the
//! paper alludes to at the end of §2.3.
//!
//! A [`PlatformSet`] is the indexed collection `Π1 … ΠM` that tasks map onto
//! via their `si,j` variable.
//!
//! # Example: the paper's Table 2
//!
//! ```
//! use hsched_numeric::rat;
//! use hsched_platform::{Platform, PlatformSet};
//!
//! let mut set = PlatformSet::new();
//! let p1 = set.add(Platform::linear("Sensor1", rat(2, 5), rat(1, 1), rat(1, 1)).unwrap());
//! let p2 = set.add(Platform::linear("Sensor2", rat(2, 5), rat(1, 1), rat(1, 1)).unwrap());
//! let p3 = set.add(Platform::linear("Integrator", rat(1, 5), rat(2, 1), rat(1, 1)).unwrap());
//! assert_eq!(set.len(), 3);
//! assert_eq!(set[p3].alpha(), rat(1, 5));
//! assert!(set.by_name("Sensor2").is_some());
//! # let _ = (p1, p2);
//! ```

use hsched_numeric::{Cycles, Rational, Time};
use hsched_supply::{
    extract_linear_bounds, BoundedDelay, EmpiricalSupply, PeriodicServer, QuantizedFluid,
    SupplyCurve, TdmaSupply,
};
use std::fmt;
use std::sync::Arc;

/// Index of a platform within a [`PlatformSet`] — the paper's mapping
/// variable `si,j` takes these values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlatformId(pub usize);

impl fmt::Display for PlatformId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Π{}", self.0 + 1)
    }
}

/// What physical resource the platform is a share of. The paper treats the
/// network "similar to a computational node" (§2.2.1); the distinction only
/// matters for reporting and for message-task insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformKind {
    /// A share of a processor.
    Cpu,
    /// A share of a communication network.
    Network,
}

/// The mechanism behind a platform: either the abstract `(α, Δ, β)` triple
/// or a concrete reservation scheme with exact supply curves.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceModel {
    /// The paper's linear abstraction.
    Linear(BoundedDelay),
    /// A periodic/polling server with budget and period.
    Server(PeriodicServer),
    /// A static TDMA partition.
    Tdma(TdmaSupply),
    /// A P-fair-like proportional share with bounded lag.
    Quantized(QuantizedFluid),
    /// Measured supply envelopes of an opaque mechanism.
    Measured(EmpiricalSupply),
}

impl ServiceModel {
    fn curve(&self) -> &dyn SupplyCurve {
        match self {
            ServiceModel::Linear(m) => m,
            ServiceModel::Server(m) => m,
            ServiceModel::Tdma(m) => m,
            ServiceModel::Quantized(m) => m,
            ServiceModel::Measured(m) => m,
        }
    }

    /// The linear `(α, Δ, β)` abstraction of this mechanism (closed form
    /// where one exists, exact breakpoint extraction for TDMA).
    pub fn to_linear(&self) -> BoundedDelay {
        match self {
            ServiceModel::Linear(m) => *m,
            ServiceModel::Server(s) => s.to_linear(),
            ServiceModel::Quantized(q) => q.to_linear(),
            ServiceModel::Tdma(t) => {
                // Blackout is at most one frame; two more frames make the
                // worst alignment repeat.
                let horizon = t.frame() * Rational::from_integer(3);
                extract_linear_bounds(t, horizon).model
            }
            ServiceModel::Measured(m) => {
                let horizon = m.period() * Rational::from_integer(3);
                extract_linear_bounds(m, horizon).model
            }
        }
    }
}

/// An abstract computing platform Π.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    name: String,
    kind: PlatformKind,
    model: ServiceModel,
    /// Cached linear abstraction (recomputed on construction).
    linear: BoundedDelay,
}

impl Platform {
    /// Builds a platform from an explicit service model.
    pub fn new(name: impl Into<String>, kind: PlatformKind, model: ServiceModel) -> Platform {
        let linear = model.to_linear();
        Platform {
            name: name.into(),
            kind,
            model,
            linear,
        }
    }

    /// A CPU platform from the paper's `(α, Δ, β)` triple.
    pub fn linear(
        name: impl Into<String>,
        alpha: Rational,
        delta: Time,
        beta: Time,
    ) -> Result<Platform, String> {
        Ok(Platform::new(
            name,
            PlatformKind::Cpu,
            ServiceModel::Linear(BoundedDelay::new(alpha, delta, beta)?),
        ))
    }

    /// A network platform from an `(α, Δ, β)` triple.
    pub fn network(
        name: impl Into<String>,
        alpha: Rational,
        delta: Time,
        beta: Time,
    ) -> Result<Platform, String> {
        Ok(Platform::new(
            name,
            PlatformKind::Network,
            ServiceModel::Linear(BoundedDelay::new(alpha, delta, beta)?),
        ))
    }

    /// A dedicated unit-speed processor: `(1, 0, 0)` — the classical case.
    pub fn dedicated(name: impl Into<String>) -> Platform {
        Platform::new(
            name,
            PlatformKind::Cpu,
            ServiceModel::Linear(BoundedDelay::dedicated()),
        )
    }

    /// A CPU platform backed by a periodic server mechanism.
    pub fn server(
        name: impl Into<String>,
        budget: Cycles,
        period: Time,
    ) -> Result<Platform, String> {
        Ok(Platform::new(
            name,
            PlatformKind::Cpu,
            ServiceModel::Server(PeriodicServer::new(budget, period)?),
        ))
    }

    /// Platform name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// CPU or network.
    #[inline]
    pub fn kind(&self) -> PlatformKind {
        self.kind
    }

    /// The underlying service model.
    #[inline]
    pub fn model(&self) -> &ServiceModel {
        &self.model
    }

    /// Rate α of the linear abstraction.
    #[inline]
    pub fn alpha(&self) -> Rational {
        self.linear.alpha()
    }

    /// Delay Δ of the linear abstraction.
    #[inline]
    pub fn delta(&self) -> Time {
        self.linear.delay()
    }

    /// Burstiness β of the linear abstraction (time units).
    #[inline]
    pub fn beta(&self) -> Time {
        self.linear.burstiness()
    }

    /// The full linear abstraction.
    #[inline]
    pub fn linear_model(&self) -> BoundedDelay {
        self.linear
    }

    /// Replaces the service model, keeping name and kind (used by the
    /// design-space explorer when re-dimensioning reservations).
    pub fn with_model(&self, model: ServiceModel) -> Platform {
        Platform::new(self.name.clone(), self.kind, model)
    }
}

impl SupplyCurve for Platform {
    fn zmin(&self, t: Time) -> Cycles {
        self.model.curve().zmin(t)
    }
    fn zmax(&self, t: Time) -> Cycles {
        self.model.curve().zmax(t)
    }
    fn rate(&self) -> Rational {
        self.model.curve().rate()
    }
    fn time_to_supply_min(&self, c: Cycles) -> Time {
        self.model.curve().time_to_supply_min(c)
    }
    fn time_to_supply_max(&self, c: Cycles) -> Time {
        self.model.curve().time_to_supply_max(c)
    }
    fn breakpoints(&self, horizon: Time) -> Vec<Time> {
        self.model.curve().breakpoints(horizon)
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            PlatformKind::Cpu => "cpu",
            PlatformKind::Network => "net",
        };
        write!(f, "{} [{kind}] {}", self.name, self.linear)
    }
}

/// The set of platforms `Π1 … ΠM` available to a system.
///
/// A handle on one shared table: `clone` is O(1), and [`PlatformSet::add`]
/// / [`PlatformSet::replace`] copy the table first when another handle
/// still shares it, so a clone never observes a later mutation.
#[derive(Debug, Clone, Default)]
pub struct PlatformSet {
    platforms: Arc<Vec<Platform>>,
}

impl PartialEq for PlatformSet {
    /// By value; handles on the same table compare equal without a scan.
    fn eq(&self, other: &PlatformSet) -> bool {
        self.same_table(other) || self.platforms == other.platforms
    }
}

impl PlatformSet {
    /// An empty set.
    pub fn new() -> PlatformSet {
        PlatformSet::default()
    }

    /// Adds a platform, returning its id. Names need not be unique, but
    /// [`PlatformSet::by_name`] returns the first match.
    pub fn add(&mut self, platform: Platform) -> PlatformId {
        let platforms = Arc::make_mut(&mut self.platforms);
        platforms.push(platform);
        PlatformId(platforms.len() - 1)
    }

    /// Number of platforms `M`.
    #[inline]
    pub fn len(&self) -> usize {
        self.platforms.len()
    }

    /// `true` when no platform has been added.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.platforms.is_empty()
    }

    /// Lookup by id.
    #[inline]
    pub fn get(&self, id: PlatformId) -> Option<&Platform> {
        self.platforms.get(id.0)
    }

    /// First platform with the given name.
    pub fn by_name(&self, name: &str) -> Option<(PlatformId, &Platform)> {
        self.platforms
            .iter()
            .enumerate()
            .find(|(_, p)| p.name() == name)
            .map(|(i, p)| (PlatformId(i), p))
    }

    /// Iterates `(id, platform)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PlatformId, &Platform)> {
        self.platforms
            .iter()
            .enumerate()
            .map(|(i, p)| (PlatformId(i), p))
    }

    /// Total reserved bandwidth Σα over all platforms — the quantity the
    /// design-space explorer minimizes.
    pub fn total_bandwidth(&self) -> Rational {
        self.platforms.iter().map(|p| p.alpha()).sum()
    }

    /// Replaces the platform at `id` (used during design-space search).
    pub fn replace(&mut self, id: PlatformId, platform: Platform) {
        Arc::make_mut(&mut self.platforms)[id.0] = platform;
    }

    /// `true` when both handles share one table — an O(1) sufficient
    /// condition for equality (two separately built tables may still
    /// compare equal by value).
    pub fn same_table(&self, other: &PlatformSet) -> bool {
        Arc::ptr_eq(&self.platforms, &other.platforms)
    }
}

impl std::ops::Index<PlatformId> for PlatformSet {
    type Output = Platform;
    fn index(&self, id: PlatformId) -> &Platform {
        &self.platforms[id.0]
    }
}

/// Builds the paper's Table 2 platform set: Π1 = Π2 = (0.4, 1, 1) for the
/// two sensors, Π3 = (0.2, 2, 1) for the integrator.
pub fn paper_platforms() -> (PlatformSet, [PlatformId; 3]) {
    let mut set = PlatformSet::new();
    let p1 = set.add(
        Platform::linear(
            "Sensor1",
            Rational::new(2, 5),
            Rational::from_integer(1),
            Rational::from_integer(1),
        )
        .expect("valid"),
    );
    let p2 = set.add(
        Platform::linear(
            "Sensor2",
            Rational::new(2, 5),
            Rational::from_integer(1),
            Rational::from_integer(1),
        )
        .expect("valid"),
    );
    let p3 = set.add(
        Platform::linear(
            "Integrator",
            Rational::new(1, 5),
            Rational::from_integer(2),
            Rational::from_integer(1),
        )
        .expect("valid"),
    );
    (set, [p1, p2, p3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsched_numeric::rat;

    #[test]
    fn paper_platforms_match_table2() {
        let (set, [p1, p2, p3]) = paper_platforms();
        assert_eq!(set.len(), 3);
        assert_eq!(set[p1].alpha(), rat(2, 5));
        assert_eq!(set[p1].delta(), rat(1, 1));
        assert_eq!(set[p1].beta(), rat(1, 1));
        assert_eq!(set[p2].alpha(), rat(2, 5));
        assert_eq!(set[p3].alpha(), rat(1, 5));
        assert_eq!(set[p3].delta(), rat(2, 1));
        assert_eq!(set.total_bandwidth(), rat(1, 1));
    }

    #[test]
    fn display_formats() {
        let (set, [p1, _, _]) = paper_platforms();
        assert_eq!(set[p1].to_string(), "Sensor1 [cpu] (α=0.4, Δ=1, β=1)");
        assert_eq!(PlatformId(2).to_string(), "Π3");
    }

    #[test]
    fn server_platform_exposes_both_views() {
        let p = Platform::server("srv", rat(2, 1), rat(5, 1)).unwrap();
        assert_eq!(p.alpha(), rat(2, 5));
        assert_eq!(p.delta(), rat(6, 1));
        // The exact curve is less pessimistic than the linear abstraction.
        assert!(p.zmin(rat(8, 1)) >= p.linear_model().zmin(rat(8, 1)));
        assert_eq!(p.time_to_supply_min(rat(2, 1)), rat(8, 1));
        assert_eq!(p.linear_model().time_to_supply_min(rat(2, 1)), rat(11, 1));
    }

    #[test]
    fn tdma_platform_linearizes_via_extraction() {
        let tdma = TdmaSupply::new(rat(10, 1), vec![(rat(0, 1), rat(2, 1))]).unwrap();
        let p = Platform::new("part", PlatformKind::Cpu, ServiceModel::Tdma(tdma));
        assert_eq!(p.alpha(), rat(1, 5));
        // Static slot: the worst window starts at the slot end — a blackout
        // of F − len = 8, after which zmin catches the fluid line at the
        // frame boundary, so Δ = 8.
        assert_eq!(p.delta(), rat(8, 1));
    }

    #[test]
    fn measured_platform() {
        use hsched_numeric::rat;
        let m = EmpiricalSupply::new(
            vec![
                (rat(0, 1), rat(0, 1)),
                (rat(3, 1), rat(0, 1)),
                (rat(5, 1), rat(2, 1)),
            ],
            vec![
                (rat(0, 1), rat(0, 1)),
                (rat(2, 1), rat(2, 1)),
                (rat(5, 1), rat(2, 1)),
            ],
            rat(5, 1),
            rat(2, 5),
        )
        .unwrap();
        let p = Platform::new("meas", PlatformKind::Cpu, ServiceModel::Measured(m));
        assert_eq!(p.alpha(), rat(2, 5));
        // Linear abstraction brackets the measurement.
        for k in 0..=40 {
            let t = rat(k, 2);
            assert!(p.linear_model().zmin(t) <= p.zmin(t));
            assert!(p.linear_model().zmax(t) >= p.zmax(t));
        }
    }

    #[test]
    fn by_name_and_lookup() {
        let (set, [p1, _, p3]) = paper_platforms();
        assert_eq!(set.by_name("Sensor1").unwrap().0, p1);
        assert_eq!(set.by_name("Integrator").unwrap().0, p3);
        assert!(set.by_name("nope").is_none());
        assert!(set.get(PlatformId(7)).is_none());
        assert!(set.get(p1).is_some());
    }

    #[test]
    fn network_kind() {
        let n = Platform::network("CAN", rat(1, 2), rat(1, 1), rat(0, 1)).unwrap();
        assert_eq!(n.kind(), PlatformKind::Network);
    }

    #[test]
    fn dedicated_is_classical_processor() {
        let d = Platform::dedicated("cpu0");
        assert_eq!(d.alpha(), Rational::ONE);
        assert_eq!(d.delta(), Time::ZERO);
        assert_eq!(d.beta(), Time::ZERO);
        assert_eq!(d.time_to_supply_min(rat(7, 1)), rat(7, 1));
    }

    #[test]
    fn with_model_keeps_identity() {
        let p = Platform::linear("x", rat(1, 2), rat(1, 1), rat(0, 1)).unwrap();
        let q = p.with_model(ServiceModel::Linear(
            BoundedDelay::new(rat(3, 4), rat(2, 1), rat(0, 1)).unwrap(),
        ));
        assert_eq!(q.name(), "x");
        assert_eq!(q.alpha(), rat(3, 4));
    }

    #[test]
    fn clones_share_until_one_side_writes() {
        let (master, [p1, _, _]) = paper_platforms();
        let mut retuned = master.clone();
        let mut grown = master.clone();
        assert!(master.same_table(&retuned) && master == retuned);

        let stronger = Platform::linear("Sensor1", rat(1, 2), rat(1, 1), rat(1, 1)).unwrap();
        retuned.replace(p1, stronger);
        grown.add(Platform::dedicated("extra"));
        assert_eq!(retuned[p1].alpha(), rat(1, 2));
        assert_eq!(grown.len(), 4);
        // The other side of each clone is untouched.
        assert_eq!(master[p1].alpha(), rat(2, 5));
        assert_eq!(master.len(), 3);
        assert!(!master.same_table(&retuned) && master != retuned);
        assert!(!master.same_table(&grown) && master != grown);
    }

    #[test]
    fn equality_is_by_value_across_allocations() {
        let (a, _) = paper_platforms();
        let (b, _) = paper_platforms();
        assert!(!a.same_table(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn replace_in_set() {
        let (mut set, [p1, _, _]) = paper_platforms();
        let stronger = Platform::linear("Sensor1", rat(1, 2), rat(1, 1), rat(1, 1)).unwrap();
        set.replace(p1, stronger);
        assert_eq!(set[p1].alpha(), rat(1, 2));
    }
}
