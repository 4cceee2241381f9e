//! Typed wire errors and their stable numeric codes.
//!
//! Every error a peer can receive over the wire carries a code from
//! [`code`]; the codes are part of the protocol (`docs/WIRE_PROTOCOL.md`)
//! and never change meaning, so clients branch on numbers instead of
//! parsing message strings. Rejection *reasons* are not errors — they ride
//! in the response envelope with their own stable code space
//! ([`reason_code`]) so a client can tell a load-dependent rejection worth
//! retrying later (overload, unschedulable) from a hard one (structural,
//! analysis, numeric).
//!
//! Every code is declared through the `classified_codes!` macro, which forces an
//! explicit `retryable`/`fatal` classification at the declaration site and
//! collects the table the [`retryable`] predicate (and its exhaustiveness
//! test) walks — adding a code without deciding its retry class does not
//! compile.

use hsched_engine::EngineError;

/// Declares a module of stable `u16` codes where every entry must carry an
/// explicit retry classification (`retryable` or `fatal`). The module also
/// exports `CLASSIFIED: &[(u16, &str, bool)]` — `(value, name, retryable)`
/// for every declared code — which backs [`retryable`] and the exhaustive
/// classification test below.
macro_rules! classified_codes {
    (
        $(#[$mod_meta:meta])*
        pub mod $module:ident {
            $(
                $(#[$meta:meta])*
                $class:ident $name:ident = $value:literal;
            )*
        }
    ) => {
        $(#[$mod_meta])*
        pub mod $module {
            $(
                $(#[$meta])*
                pub const $name: u16 = $value;
            )*

            /// `(value, name, retryable)` for every declared code.
            pub const CLASSIFIED: &[(u16, &str, bool)] = &[
                $(($value, stringify!($name), classified_codes!(@class $class)),)*
            ];
        }
    };
    (@class retryable) => { true };
    (@class fatal) => { false };
}

classified_codes! {
    /// Stable numeric error codes of the wire protocol.
    pub mod code {
        /// Malformed or oversized frame, bad grammar, protocol violation.
        fatal MALFORMED = 100;
        /// Request schema version outside the supported range.
        fatal UNSUPPORTED_VERSION = 101;
        /// Unknown transaction handle.
        fatal UNKNOWN_TXN = 102;
        /// Engine seeding failed.
        fatal SEED = 103;
        /// Journal I/O failed (the primary's durability is poisoned).
        fatal JOURNAL = 104;
        /// Replay/standby divergence (replicated state refused).
        fatal REPLAY = 105;
        /// Internal engine invariant violation.
        retryable INTERNAL = 106;
        /// The server shed the request under admission backpressure; the
        /// message carries a `retry-after-ms=<n>` hint
        /// (see [`crate::retry_after_hint`]).
        retryable OVERLOADED = 107;
        /// Replication resume offset rejected (past the durable prefix, or
        /// the prefix digest no longer matches — e.g. after a compaction).
        fatal BAD_OFFSET = 110;
    }
}

classified_codes! {
    /// Stable rejection-reason codes carried in response envelopes (and as
    /// `err_code` in JSON mode). These classify a *rejected* epoch, which
    /// is a successful response, not an error.
    pub mod reason {
        /// Request was structurally invalid (duplicate name, unknown target).
        fatal STRUCTURAL = 1;
        /// A platform's utilization bound was exceeded.
        retryable OVERLOAD = 2;
        /// Response-time analysis found deadline misses.
        retryable UNSCHEDULABLE = 3;
        /// The analysis itself failed.
        fatal ANALYSIS = 4;
        /// Exact arithmetic overflowed during the admission scan.
        fatal NUMERIC = 5;
    }
}

/// Maps an [`EngineError`] to its stable wire code.
pub fn engine_code(error: &EngineError) -> u16 {
    match error {
        EngineError::UnsupportedVersion { .. } => code::UNSUPPORTED_VERSION,
        EngineError::UnknownTxn(_) => code::UNKNOWN_TXN,
        EngineError::Seed(_) => code::SEED,
        EngineError::Journal(_) | EngineError::JournalHeaderIncomplete => code::JOURNAL,
        EngineError::Replay(_) => code::REPLAY,
        EngineError::Internal(_) => code::INTERNAL,
    }
}

/// Maps a rejection-reason kind string (the `reason_kind` vocabulary the
/// CLI already prints: `structural`, `overload`, `unschedulable`,
/// `analysis`, `numeric`) to its stable code; 0 for unknown kinds.
pub fn reason_code(kind: &str) -> u16 {
    match kind {
        "structural" => reason::STRUCTURAL,
        "overload" => reason::OVERLOAD,
        "unschedulable" => reason::UNSCHEDULABLE,
        "analysis" => reason::ANALYSIS,
        "numeric" => reason::NUMERIC,
        _ => 0,
    }
}

/// `true` when the condition behind a code is load- or time-dependent and
/// the same request may succeed later: the overload/unschedulable
/// rejection reasons (capacity may free up), [`code::INTERNAL`], and
/// [`code::OVERLOADED`] (the server shed under backpressure). Version
/// mismatches, malformed frames, structural rejections, and a poisoned
/// journal are hard failures. The classification is declared per code in
/// the `classified_codes!` tables; unknown codes are never retryable.
///
/// The two code spaces overlap numerically (reasons are 1–5, wire codes
/// 100+), so one predicate serves both — callers know from context which
/// space a number came from.
pub fn retryable(code_or_reason: u16) -> bool {
    code::CLASSIFIED
        .iter()
        .chain(reason::CLASSIFIED)
        .any(|&(value, _, retry)| value == code_or_reason && retry)
}

/// Extracts the `retry-after-ms=<n>` hint a shed ([`code::OVERLOADED`])
/// error message carries, if any. The hint is advisory: the delay after
/// which the server expects its pending-epoch backlog to have drained.
pub fn retry_after_hint(message: &str) -> Option<u64> {
    message.split_whitespace().find_map(|token| {
        token.strip_prefix("retry-after-ms=").and_then(|n| {
            n.trim_end_matches(|c: char| !c.is_ascii_digit())
                .parse()
                .ok()
        })
    })
}

/// The wire layer's error type: transport failures, protocol violations,
/// and typed errors that crossed (or are about to cross) the wire.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The peer violated the framing or frame grammar (local diagnosis;
    /// maps to [`code::MALFORMED`] when reported to the peer).
    Protocol(String),
    /// A typed error with a stable code — either received in an `error`
    /// frame or produced locally for one.
    Remote {
        /// Stable code from [`code`].
        code: u16,
        /// Human-readable detail (never needed to branch).
        message: String,
    },
}

impl WireError {
    /// Convenience constructor for typed errors.
    pub fn remote(code: u16, message: impl Into<String>) -> WireError {
        WireError::Remote {
            code,
            message: message.into(),
        }
    }

    /// The stable code this error would carry in an `error` frame.
    pub fn wire_code(&self) -> u16 {
        match self {
            WireError::Io(_) => code::INTERNAL,
            WireError::Protocol(_) => code::MALFORMED,
            WireError::Remote { code, .. } => *code,
        }
    }

    /// Lifts an engine failure into a typed wire error.
    pub fn from_engine(error: EngineError) -> WireError {
        WireError::Remote {
            code: engine_code(&error),
            message: error.to_string(),
        }
    }

    /// `true` when retrying the same request (possibly on a fresh
    /// connection) may succeed: every transport failure (`Io` — the
    /// connection may come back) and protocol tear (`Protocol` — a torn
    /// frame on a dying socket), plus [`Remote`](WireError::Remote) errors
    /// whose code is [`retryable`]. Retrying is only *safe* when the
    /// request is idempotent or deduplicated (see the client's ticket
    /// scheme in `docs/WIRE_PROTOCOL.md`).
    pub fn transient(&self) -> bool {
        match self {
            WireError::Io(_) | WireError::Protocol(_) => true,
            WireError::Remote { code, .. } => retryable(*code),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Protocol(message) => write!(f, "protocol violation: {message}"),
            WireError::Remote { code, message } => write!(f, "wire error {code}: {message}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_errors_map_to_stable_codes() {
        assert_eq!(
            engine_code(&EngineError::UnsupportedVersion {
                found: 9,
                supported: 2
            }),
            code::UNSUPPORTED_VERSION
        );
        assert_eq!(
            engine_code(&EngineError::Journal("disk on fire".into())),
            code::JOURNAL
        );
        assert_eq!(
            engine_code(&EngineError::Replay("digest mismatch".into())),
            code::REPLAY
        );
    }

    #[test]
    fn reason_kinds_map_and_classify() {
        assert_eq!(reason_code("overload"), reason::OVERLOAD);
        assert_eq!(reason_code("structural"), reason::STRUCTURAL);
        assert_eq!(reason_code("mystery"), 0);
        assert!(retryable(reason::OVERLOAD));
        assert!(retryable(reason::UNSCHEDULABLE));
        assert!(retryable(code::OVERLOADED));
        assert!(!retryable(reason::STRUCTURAL));
        assert!(!retryable(code::JOURNAL));
        assert!(!retryable(code::MALFORMED));
    }

    /// Pins the complete retry classification over both code spaces. Every
    /// *assigned* value in the wire-code range 100–110 and the reason
    /// range 1–5 must appear in its module's `CLASSIFIED` table with the
    /// expected verdict, and every unassigned value must be non-retryable.
    /// A new code added without a `retryable`/`fatal` keyword fails to
    /// compile; one added with the wrong classification fails here.
    #[test]
    fn retry_classification_is_exhaustive() {
        // (value, expected assigned?, expected retryable?)
        let wire_expectations: &[(u16, bool, bool)] = &[
            (100, true, false), // MALFORMED
            (101, true, false), // UNSUPPORTED_VERSION
            (102, true, false), // UNKNOWN_TXN
            (103, true, false), // SEED
            (104, true, false), // JOURNAL
            (105, true, false), // REPLAY
            (106, true, true),  // INTERNAL
            (107, true, true),  // OVERLOADED
            (108, false, false),
            (109, false, false),
            (110, true, false), // BAD_OFFSET
        ];
        for &(value, assigned, retry) in wire_expectations {
            let entry = code::CLASSIFIED.iter().find(|&&(v, _, _)| v == value);
            assert_eq!(
                entry.is_some(),
                assigned,
                "wire code {value}: assignment expectation diverged"
            );
            assert_eq!(retryable(value), retry, "wire code {value} misclassified");
        }
        assert_eq!(
            code::CLASSIFIED.len(),
            wire_expectations.iter().filter(|e| e.1).count(),
            "a wire code exists outside the pinned 100–110 table — extend the test"
        );

        let reason_expectations: &[(u16, bool)] = &[
            (reason::STRUCTURAL, false),
            (reason::OVERLOAD, true),
            (reason::UNSCHEDULABLE, true),
            (reason::ANALYSIS, false),
            (reason::NUMERIC, false),
        ];
        for &(value, retry) in reason_expectations {
            assert!(
                reason::CLASSIFIED.iter().any(|&(v, _, _)| v == value),
                "reason {value} missing from CLASSIFIED"
            );
            assert_eq!(retryable(value), retry, "reason {value} misclassified");
        }
        assert_eq!(
            reason::CLASSIFIED.len(),
            reason_expectations.len(),
            "a reason code exists outside the pinned 1–5 table — extend the test"
        );
    }

    #[test]
    fn retry_after_hints_parse() {
        assert_eq!(
            retry_after_hint("server overloaded: 700 epochs pending (cap 512); retry-after-ms=50"),
            Some(50)
        );
        assert_eq!(retry_after_hint("retry-after-ms=125"), Some(125));
        assert_eq!(retry_after_hint("no hint here"), None);
        assert_eq!(retry_after_hint("retry-after-ms=bogus"), None);
    }

    #[test]
    fn transient_splits_transport_from_hard_remote() {
        assert!(WireError::Io(std::io::Error::other("boom")).transient());
        assert!(WireError::Protocol("torn frame".into()).transient());
        assert!(WireError::remote(code::OVERLOADED, "shed").transient());
        assert!(!WireError::remote(code::JOURNAL, "poisoned").transient());
        assert!(!WireError::remote(code::MALFORMED, "bad frame").transient());
    }
}
