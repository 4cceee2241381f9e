//! Task / transaction data model (Figure 4 of the paper).

use hsched_numeric::{Cycles, Rational, Time};
use hsched_platform::{PlatformId, PlatformSet};
use std::collections::HashMap;

/// Whether a task models component code or an RPC message in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// A piece of component code on a CPU platform.
    Computation,
    /// A message "executed" on a network platform (§2.4: "messages can
    /// simply be modeled by considering additional tasks").
    Message,
}

/// One task τi,j of a transaction.
///
/// Offsets `φ` and jitters `J` are *analysis state*, not structure: the
/// holistic iteration of §3.2 derives them from response times (Eq. 18).
/// They are therefore not stored here; the analysis crate keeps its own
/// per-task state vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Human-readable name, e.g. `Integrator.Thread2.init`.
    pub name: String,
    /// Worst-case execution time `Ci,j` (cycles).
    pub wcet: Cycles,
    /// Best-case execution time `Cbest_i,j ≤ Ci,j` (cycles).
    pub bcet: Cycles,
    /// Priority `pi,j` — greater is higher, compared only among tasks on the
    /// same platform.
    pub priority: u32,
    /// The platform `Π_{si,j}` this task executes on.
    pub platform: PlatformId,
    /// Code or message.
    pub kind: TaskKind,
}

impl Task {
    /// A computation task.
    pub fn new(
        name: impl Into<String>,
        wcet: Cycles,
        bcet: Cycles,
        priority: u32,
        platform: PlatformId,
    ) -> Task {
        Task {
            name: name.into(),
            wcet,
            bcet,
            priority,
            platform,
            kind: TaskKind::Computation,
        }
    }

    /// A message task on a network platform.
    pub fn message(
        name: impl Into<String>,
        wcet: Cycles,
        bcet: Cycles,
        priority: u32,
        network: PlatformId,
    ) -> Task {
        Task {
            name: name.into(),
            wcet,
            bcet,
            priority,
            platform: network,
            kind: TaskKind::Message,
        }
    }
}

/// A transaction Γi: an event stream with period/MIT `T`, end-to-end
/// deadline `D`, and an ordered chain of tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct Transaction {
    /// Name, e.g. `Integrator.Thread2` (the originating thread).
    pub name: String,
    /// Period (periodic threads) or MIT (sporadic/external stimuli).
    pub period: Time,
    /// End-to-end relative deadline: the last task must finish within `D`
    /// of the transaction's activation.
    pub deadline: Time,
    /// Release jitter of the triggering event: the first task may be
    /// released up to this much after the nominal periodic activation
    /// (0 for strictly periodic streams — the paper's examples). Responses
    /// are still measured from the *nominal* activation.
    pub release_jitter: Time,
    tasks: Vec<Task>,
}

impl Transaction {
    /// Creates a transaction; `tasks` must be non-empty and is the
    /// precedence order.
    pub fn new(
        name: impl Into<String>,
        period: Time,
        deadline: Time,
        tasks: Vec<Task>,
    ) -> Result<Transaction, String> {
        if tasks.is_empty() {
            return Err("a transaction needs at least one task".into());
        }
        if !period.is_positive() {
            return Err(format!("transaction period must be positive, got {period}"));
        }
        if !deadline.is_positive() {
            return Err(format!(
                "transaction deadline must be positive, got {deadline}"
            ));
        }
        for t in &tasks {
            if !t.wcet.is_positive() {
                return Err(format!("task `{}` has non-positive wcet", t.name));
            }
            if t.bcet.is_negative() || t.bcet > t.wcet {
                return Err(format!("task `{}` has bcet outside [0, wcet]", t.name));
            }
        }
        Ok(Transaction {
            name: name.into(),
            period,
            deadline,
            release_jitter: Time::ZERO,
            tasks,
        })
    }

    /// Sets the release jitter of the triggering event (builder style).
    ///
    /// # Panics
    ///
    /// Panics on negative jitter.
    pub fn with_release_jitter(mut self, jitter: Time) -> Transaction {
        assert!(!jitter.is_negative(), "release jitter must be ≥ 0");
        self.release_jitter = jitter;
        self
    }

    /// The ordered task chain.
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks `ni`.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Always false (constructor rejects empty chains); provided for clippy
    /// symmetry with [`Transaction::len`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total worst-case demand of the chain in cycles.
    pub fn total_wcet(&self) -> Cycles {
        self.tasks.iter().map(|t| t.wcet).sum()
    }
}

/// Reference to a task: transaction index `i` and position `j` (0-based,
/// unlike the paper's 1-based τi,j — display adds 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskRef {
    /// Transaction index.
    pub tx: usize,
    /// Task position within the transaction.
    pub idx: usize,
}

impl std::fmt::Display for TaskRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "τ{},{}", self.tx + 1, self.idx + 1)
    }
}

/// The full analyzable system: transactions plus the platform set they map
/// onto.
#[derive(Debug, Clone, PartialEq)]
pub struct TransactionSet {
    platforms: PlatformSet,
    transactions: Vec<Transaction>,
    /// Name → index of the *first* transaction with that name, kept in sync
    /// by every mutator so [`TransactionSet::transaction_index`] is O(1)
    /// (online admission resolves every request through it).
    index: HashMap<String, usize>,
}

impl TransactionSet {
    /// Bundles transactions with their platforms, checking that every task's
    /// platform id is in range.
    pub fn new(
        platforms: PlatformSet,
        transactions: Vec<Transaction>,
    ) -> Result<TransactionSet, String> {
        for tx in &transactions {
            for task in tx.tasks() {
                if platforms.get(task.platform).is_none() {
                    return Err(format!(
                        "task `{}` maps to unknown platform {}",
                        task.name, task.platform
                    ));
                }
            }
        }
        Ok(TransactionSet {
            platforms,
            index: build_index(&transactions),
            transactions,
        })
    }

    /// The platforms.
    #[inline]
    pub fn platforms(&self) -> &PlatformSet {
        &self.platforms
    }

    /// The transactions.
    #[inline]
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// The task behind a reference.
    #[inline]
    pub fn task(&self, r: TaskRef) -> &Task {
        &self.transactions[r.tx].tasks()[r.idx]
    }

    /// Iterates every task reference in the system.
    pub fn task_refs(&self) -> impl Iterator<Item = TaskRef> + '_ {
        self.transactions
            .iter()
            .enumerate()
            .flat_map(|(i, tx)| (0..tx.len()).map(move |j| TaskRef { tx: i, idx: j }))
    }

    /// Total number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.transactions.iter().map(|t| t.len()).sum()
    }

    /// Demand utilization of each platform: `Σ_{si,j = k} Ci,j / Ti`,
    /// in cycles per time unit. The necessary schedulability condition is
    /// `utilization(k) ≤ α_k` for every platform.
    pub fn platform_utilization(&self) -> Vec<Rational> {
        let mut u = vec![Rational::ZERO; self.platforms.len()];
        for tx in &self.transactions {
            for task in tx.tasks() {
                u[task.platform.0] += task.wcet / tx.period;
            }
        }
        u
    }

    /// Checks the necessary condition `U_k ≤ α_k` on every platform,
    /// returning the ids of overloaded platforms.
    pub fn overloaded_platforms(&self) -> Vec<PlatformId> {
        self.platform_utilization()
            .into_iter()
            .enumerate()
            .filter_map(|(k, u)| {
                let id = PlatformId(k);
                (u > self.platforms[id].alpha()).then_some(id)
            })
            .collect()
    }

    /// Replaces the platform set (design-space exploration): the structure
    /// of the transactions is unchanged.
    pub fn with_platforms(&self, platforms: PlatformSet) -> Result<TransactionSet, String> {
        TransactionSet::new(platforms, self.transactions.clone())
    }

    /// Index of the first transaction with the given name. O(1) via the
    /// maintained name index.
    pub fn transaction_index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Appends a transaction, validating its platform references against the
    /// set. Returns the new transaction's index. This is the arrival half of
    /// online admission: the set mutates in place instead of being rebuilt.
    pub fn push_transaction(&mut self, tx: Transaction) -> Result<usize, String> {
        for task in tx.tasks() {
            if self.platforms.get(task.platform).is_none() {
                return Err(format!(
                    "task `{}` maps to unknown platform {}",
                    task.name, task.platform
                ));
            }
        }
        let at = self.transactions.len();
        self.index.entry(tx.name.clone()).or_insert(at);
        self.transactions.push(tx);
        Ok(at)
    }

    /// Removes and returns the transaction at `index`; later indices shift
    /// down by one. The departure half of online admission (and of admission
    /// rollback, which undoes an arrival without rebuilding the set).
    pub fn remove_transaction(&mut self, index: usize) -> Result<Transaction, String> {
        if index >= self.transactions.len() {
            return Err(format!(
                "transaction index {index} out of range (set has {})",
                self.transactions.len()
            ));
        }
        let removed = self.transactions.remove(index);
        let was_first = self.index.get(&removed.name) == Some(&index);
        if was_first {
            self.index.remove(&removed.name);
        }
        for slot in self.index.values_mut() {
            if *slot > index {
                *slot -= 1;
            }
        }
        if was_first {
            // Duplicate names are legal in a raw set: promote the next
            // occurrence (rare; only sets built outside admission have dups).
            if let Some(next) = self
                .transactions
                .iter()
                .position(|t| t.name == removed.name)
            {
                self.index.insert(removed.name.clone(), next);
            }
        }
        Ok(removed)
    }

    /// Re-inserts a transaction at `index`, shifting later indices up by
    /// one — the exact inverse of [`TransactionSet::remove_transaction`],
    /// used by the admission undo log to roll a rejected batch back without
    /// snapshotting the whole set.
    pub fn insert_transaction(&mut self, index: usize, tx: Transaction) -> Result<(), String> {
        if index > self.transactions.len() {
            return Err(format!(
                "insert index {index} out of range (set has {})",
                self.transactions.len()
            ));
        }
        for task in tx.tasks() {
            if self.platforms.get(task.platform).is_none() {
                return Err(format!(
                    "task `{}` maps to unknown platform {}",
                    task.name, task.platform
                ));
            }
        }
        for slot in self.index.values_mut() {
            if *slot >= index {
                *slot += 1;
            }
        }
        match self.index.get(&tx.name) {
            Some(&first) if first < index => {}
            _ => {
                self.index.insert(tx.name.clone(), index);
            }
        }
        self.transactions.insert(index, tx);
        Ok(())
    }

    /// Removes the first transaction with the given name.
    pub fn remove_transaction_by_name(&mut self, name: &str) -> Result<Transaction, String> {
        let index = self
            .transaction_index(name)
            .ok_or_else(|| format!("no transaction named `{name}`"))?;
        self.remove_transaction(index)
    }

    /// Replaces the platform at `id` in place — the retune operation of
    /// online admission. Task→platform references are by id, so the
    /// transactions are untouched; only the service parameters change.
    pub fn replace_platform(
        &mut self,
        id: PlatformId,
        platform: hsched_platform::Platform,
    ) -> Result<(), String> {
        if self.platforms.get(id).is_none() {
            return Err(format!("platform {id} out of range"));
        }
        self.platforms.replace(id, platform);
        Ok(())
    }

    /// Swaps the whole platform table in O(1), keeping the transactions.
    /// Every task id was checked against the current table, so a table at
    /// least as long keeps them all in range; a shorter one is refused.
    pub fn replace_platforms(&mut self, platforms: PlatformSet) -> Result<(), String> {
        if platforms.len() < self.platforms.len() {
            return Err(format!(
                "platform table shrinks below {} entries",
                self.platforms.len()
            ));
        }
        self.platforms = platforms;
        Ok(())
    }
}

/// First-occurrence name index of a transaction list.
fn build_index(transactions: &[Transaction]) -> HashMap<String, usize> {
    let mut index = HashMap::with_capacity(transactions.len());
    for (i, tx) in transactions.iter().enumerate() {
        index.entry(tx.name.clone()).or_insert(i);
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsched_numeric::rat;
    use hsched_platform::Platform;

    fn one_platform() -> PlatformSet {
        let mut set = PlatformSet::new();
        set.add(Platform::dedicated("cpu"));
        set
    }

    #[test]
    fn transaction_validation() {
        let ok = Transaction::new(
            "t",
            rat(10, 1),
            rat(10, 1),
            vec![Task::new("a", rat(1, 1), rat(1, 2), 1, PlatformId(0))],
        );
        assert!(ok.is_ok());
        assert!(Transaction::new("t", rat(10, 1), rat(10, 1), vec![]).is_err());
        assert!(Transaction::new(
            "t",
            rat(0, 1),
            rat(10, 1),
            vec![Task::new("a", rat(1, 1), rat(1, 2), 1, PlatformId(0))]
        )
        .is_err());
        assert!(Transaction::new(
            "t",
            rat(10, 1),
            rat(10, 1),
            vec![Task::new("a", rat(1, 1), rat(2, 1), 1, PlatformId(0))] // bcet > wcet
        )
        .is_err());
        assert!(Transaction::new(
            "t",
            rat(10, 1),
            rat(10, 1),
            vec![Task::new("a", rat(0, 1), rat(0, 1), 1, PlatformId(0))] // zero wcet
        )
        .is_err());
    }

    #[test]
    fn set_rejects_unknown_platform() {
        let tx = Transaction::new(
            "t",
            rat(10, 1),
            rat(10, 1),
            vec![Task::new("a", rat(1, 1), rat(1, 2), 1, PlatformId(5))],
        )
        .unwrap();
        assert!(TransactionSet::new(one_platform(), vec![tx]).is_err());
    }

    #[test]
    fn utilization_and_overload() {
        let mut platforms = PlatformSet::new();
        let p = platforms.add(Platform::linear("half", rat(1, 2), rat(0, 1), rat(0, 1)).unwrap());
        let light = Transaction::new(
            "light",
            rat(10, 1),
            rat(10, 1),
            vec![Task::new("a", rat(2, 1), rat(1, 1), 1, p)],
        )
        .unwrap();
        let set = TransactionSet::new(platforms.clone(), vec![light.clone()]).unwrap();
        assert_eq!(set.platform_utilization(), vec![rat(1, 5)]);
        assert!(set.overloaded_platforms().is_empty());

        let heavy = Transaction::new(
            "heavy",
            rat(10, 1),
            rat(10, 1),
            vec![Task::new("b", rat(4, 1), rat(4, 1), 2, p)],
        )
        .unwrap();
        let set = TransactionSet::new(platforms, vec![light, heavy]).unwrap();
        assert_eq!(set.platform_utilization(), vec![rat(3, 5)]);
        assert_eq!(set.overloaded_platforms(), vec![p]);
    }

    #[test]
    fn task_refs_cover_all() {
        let mut platforms = PlatformSet::new();
        let p = platforms.add(Platform::dedicated("cpu"));
        let t1 = Transaction::new(
            "t1",
            rat(10, 1),
            rat(10, 1),
            vec![
                Task::new("a", rat(1, 1), rat(1, 1), 1, p),
                Task::new("b", rat(1, 1), rat(1, 1), 1, p),
            ],
        )
        .unwrap();
        let t2 = Transaction::new(
            "t2",
            rat(20, 1),
            rat(20, 1),
            vec![Task::new("c", rat(1, 1), rat(1, 1), 1, p)],
        )
        .unwrap();
        let set = TransactionSet::new(platforms, vec![t1, t2]).unwrap();
        let refs: Vec<TaskRef> = set.task_refs().collect();
        assert_eq!(refs.len(), 3);
        assert_eq!(set.num_tasks(), 3);
        assert_eq!(set.task(refs[2]).name, "c");
        assert_eq!(refs[1].to_string(), "τ1,2");
    }

    #[test]
    fn mutators_add_remove_retune() {
        let mut platforms = PlatformSet::new();
        let p = platforms.add(Platform::dedicated("cpu"));
        let tx = |name: &str| {
            Transaction::new(
                name,
                rat(10, 1),
                rat(10, 1),
                vec![Task::new(format!("{name}_a"), rat(1, 1), rat(1, 1), 1, p)],
            )
            .unwrap()
        };
        let mut set = TransactionSet::new(platforms, vec![tx("first")]).unwrap();

        // push validates platform ids.
        let bad = Transaction::new(
            "bad",
            rat(10, 1),
            rat(10, 1),
            vec![Task::new("b", rat(1, 1), rat(1, 1), 1, PlatformId(9))],
        )
        .unwrap();
        assert!(set.push_transaction(bad).is_err());
        assert_eq!(set.push_transaction(tx("second")).unwrap(), 1);
        assert_eq!(set.transaction_index("second"), Some(1));
        assert_eq!(set.transaction_index("nope"), None);

        // remove shifts later indices and returns the transaction.
        let removed = set.remove_transaction_by_name("first").unwrap();
        assert_eq!(removed.name, "first");
        assert_eq!(set.transaction_index("second"), Some(0));
        assert!(set.remove_transaction(5).is_err());
        assert!(set.remove_transaction_by_name("first").is_err());

        // retune swaps service parameters without touching transactions.
        let before = set.transactions().to_vec();
        set.replace_platform(
            p,
            Platform::linear("cpu", rat(1, 2), rat(1, 1), rat(0, 1)).unwrap(),
        )
        .unwrap();
        assert_eq!(set.platforms()[p].alpha(), rat(1, 2));
        assert_eq!(set.transactions(), &before[..]);
        assert!(set
            .replace_platform(PlatformId(9), Platform::dedicated("x"))
            .is_err());
    }

    #[test]
    fn name_index_tracks_mutations() {
        let mut platforms = PlatformSet::new();
        let p = platforms.add(Platform::dedicated("cpu"));
        let tx = |name: &str| {
            Transaction::new(
                name,
                rat(10, 1),
                rat(10, 1),
                vec![Task::new(format!("{name}_a"), rat(1, 1), rat(1, 1), 1, p)],
            )
            .unwrap()
        };
        let mut set = TransactionSet::new(platforms, vec![tx("a"), tx("b"), tx("c")]).unwrap();
        assert_eq!(set.transaction_index("b"), Some(1));

        // Removal shifts later names down.
        set.remove_transaction_by_name("a").unwrap();
        assert_eq!(set.transaction_index("a"), None);
        assert_eq!(set.transaction_index("b"), Some(0));
        assert_eq!(set.transaction_index("c"), Some(1));

        // insert_transaction is the exact inverse of remove_transaction.
        let removed = set.remove_transaction(0).unwrap();
        set.insert_transaction(0, removed).unwrap();
        assert_eq!(set.transaction_index("b"), Some(0));
        assert_eq!(set.transaction_index("c"), Some(1));
        assert!(set.insert_transaction(9, tx("x")).is_err());
        let bad = Transaction::new(
            "bad",
            rat(10, 1),
            rat(10, 1),
            vec![Task::new("b", rat(1, 1), rat(1, 1), 1, PlatformId(7))],
        )
        .unwrap();
        assert!(set.insert_transaction(0, bad).is_err());

        // Duplicate names keep first-occurrence semantics across removal.
        set.push_transaction(tx("b")).unwrap();
        assert_eq!(set.transaction_index("b"), Some(0));
        set.remove_transaction(0).unwrap();
        assert_eq!(
            set.transaction_index("b"),
            Some(1),
            "next occurrence promoted"
        );
    }

    #[test]
    fn total_wcet() {
        let tx = Transaction::new(
            "t",
            rat(10, 1),
            rat(10, 1),
            vec![
                Task::new("a", rat(1, 1), rat(1, 2), 1, PlatformId(0)),
                Task::message("m", rat(1, 2), rat(1, 4), 1, PlatformId(0)),
            ],
        )
        .unwrap();
        assert_eq!(tx.total_wcet(), rat(3, 2));
        assert_eq!(tx.tasks()[1].kind, TaskKind::Message);
    }
}
