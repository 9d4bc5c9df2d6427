//! Information loggers (§3.3 of the paper).
//!
//! Coign components pass application events — instantiations, destructions,
//! and interface calls — to the information logger, which is free to process
//! them as needed. Three loggers are provided, mirroring the paper:
//!
//! * [`ProfilingLogger`] summarizes ICC data into in-memory structures with
//!   exponential size buckets (written out for post-profiling analysis).
//! * [`EventLogger`] records a detailed trace of all component-related
//!   events (the paper notes a colleague used these to drive simulations).
//! * [`NullLogger`] ignores everything (used during distributed execution).

use crate::classifier::ClassificationId;
use crate::profile::IccProfile;
use coign_com::{Clsid, Iid, InstanceId};
use parking_lot::Mutex;
use std::collections::HashMap;

/// One interface call as seen by the instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallRecord {
    /// Calling instance (`None` when the call came from the application
    /// root / scenario driver).
    pub caller: Option<InstanceId>,
    /// Classification of the caller ([`ClassificationId::ROOT`] at top
    /// level).
    pub caller_class: ClassificationId,
    /// Callee instance.
    pub callee: InstanceId,
    /// Classification of the callee.
    pub callee_class: ClassificationId,
    /// Interface called.
    pub iid: Iid,
    /// Method index.
    pub method: u32,
    /// Deep-copy size of the request message, bytes.
    pub req_bytes: u64,
    /// Deep-copy size of the reply message, bytes.
    pub reply_bytes: u64,
    /// False if the interface (or this particular message) cannot cross a
    /// machine boundary.
    pub remotable: bool,
}

/// Receives application events from the Coign runtime.
///
/// The event vocabulary is the paper's §3.3 list: "component
/// instantiations, component destructions, interface instantiations,
/// interface destructions, and interface calls", less the two
/// destructions: simCOM never releases an instance.
pub trait InfoLogger: Send + Sync {
    /// An instance was created and classified.
    fn log_instance_created(&self, _id: InstanceId, _clsid: Clsid, _class: ClassificationId) {}
    /// An interface was instantiated (a pointer minted and wrapped).
    fn log_interface_created(&self, _owner: InstanceId, _iid: Iid) {}
    /// An interface call completed.
    fn log_call(&self, _record: &CallRecord) {}
}

/// Ignores all events — the logger used during distributed execution.
#[derive(Debug, Default)]
pub struct NullLogger;

impl InfoLogger for NullLogger {}

/// A fully detailed event trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogEvent {
    /// Component instantiation.
    InstanceCreated {
        /// New instance.
        id: InstanceId,
        /// Its class.
        clsid: Clsid,
        /// Its classification.
        class: ClassificationId,
    },
    /// Interface instantiation.
    InterfaceCreated {
        /// Owning instance.
        owner: InstanceId,
        /// Interface type.
        iid: Iid,
    },
    /// Interface call.
    Call(CallRecord),
}

/// Records every event in order (detailed traces for offline simulation).
#[derive(Debug, Default)]
pub struct EventLogger {
    events: Mutex<Vec<LogEvent>>,
}

impl EventLogger {
    /// Creates an empty event logger.
    pub fn new() -> Self {
        EventLogger::default()
    }

    /// Takes the recorded events, leaving the log empty.
    pub fn take_events(&self) -> Vec<LogEvent> {
        std::mem::take(&mut self.events.lock())
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True if no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl InfoLogger for EventLogger {
    fn log_instance_created(&self, id: InstanceId, clsid: Clsid, class: ClassificationId) {
        self.events
            .lock()
            .push(LogEvent::InstanceCreated { id, clsid, class });
    }

    fn log_interface_created(&self, owner: InstanceId, iid: Iid) {
        self.events
            .lock()
            .push(LogEvent::InterfaceCreated { owner, iid });
    }

    fn log_call(&self, record: &CallRecord) {
        self.events.lock().push(LogEvent::Call(*record));
    }
}

/// Instance-pair traffic kept for classifier evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairTraffic {
    /// Messages exchanged between the pair (both directions).
    pub messages: u64,
    /// Bytes exchanged between the pair (both directions).
    pub bytes: u64,
}

/// Summarizes ICC data online — the profiling logger.
///
/// Two views are maintained: the durable, summarized [`IccProfile`]
/// (classification-level, written to the configuration record) and a
/// per-execution instance-pair table used to build the *instance
/// communication vectors* of §4.2.
#[derive(Debug, Default)]
pub struct ProfilingLogger {
    profile: Mutex<IccProfile>,
    pairs: Mutex<HashMap<(InstanceId, InstanceId), PairTraffic>>,
    instance_class: Mutex<HashMap<InstanceId, ClassificationId>>,
}

/// Sentinel instance id representing the application root in pair keys
/// (instance ids allocated by the runtime start at 1).
pub const ROOT_INSTANCE: InstanceId = InstanceId(0);

impl ProfilingLogger {
    /// Creates an empty profiling logger.
    pub fn new() -> Self {
        ProfilingLogger::default()
    }

    /// Snapshot of the summarized profile.
    pub fn snapshot_profile(&self) -> IccProfile {
        self.profile.lock().clone()
    }

    /// Takes the summarized profile, resetting the logger.
    pub fn take_profile(&self) -> IccProfile {
        let mut profile = self.profile.lock();
        let out = profile.clone();
        *profile = IccProfile::new();
        self.pairs.lock().clear();
        self.instance_class.lock().clear();
        out
    }

    /// Labels the profile with the scenario that produced it.
    pub fn set_scenario(&self, name: &str) {
        self.profile.lock().scenarios = vec![name.to_string()];
    }

    /// Per-execution instance-pair traffic (order-normalized keys).
    pub(crate) fn instance_pairs(&self) -> HashMap<(InstanceId, InstanceId), PairTraffic> {
        self.pairs.lock().clone()
    }

    /// The classification observed for each instance this execution.
    pub(crate) fn instance_classes(&self) -> HashMap<InstanceId, ClassificationId> {
        self.instance_class.lock().clone()
    }
}

impl InfoLogger for ProfilingLogger {
    fn log_instance_created(&self, id: InstanceId, clsid: Clsid, class: ClassificationId) {
        self.profile.lock().record_instance(class, clsid);
        self.instance_class.lock().insert(id, class);
    }

    fn log_call(&self, r: &CallRecord) {
        let mut profile = self.profile.lock();
        if r.remotable {
            // Request message travels caller → callee, reply travels back.
            profile.record_message(r.caller_class, r.callee_class, r.iid, r.method, r.req_bytes);
            profile.record_message(
                r.callee_class,
                r.caller_class,
                r.iid,
                r.method,
                r.reply_bytes,
            );
        } else {
            profile.record_non_remotable(r.caller_class, r.callee_class);
        }
        drop(profile);

        let caller = r.caller.unwrap_or(ROOT_INSTANCE);
        let key = if caller <= r.callee {
            (caller, r.callee)
        } else {
            (r.callee, caller)
        };
        let mut pairs = self.pairs.lock();
        let entry = pairs.entry(key).or_default();
        entry.messages += 2;
        entry.bytes += r.req_bytes + r.reply_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(caller: u64, callee: u64, req: u64, reply: u64, remotable: bool) -> CallRecord {
        CallRecord {
            caller: if caller == 0 {
                None
            } else {
                Some(InstanceId(caller))
            },
            caller_class: ClassificationId(caller as u32),
            callee: InstanceId(callee),
            callee_class: ClassificationId(callee as u32),
            iid: Iid::from_name("IX"),
            method: 0,
            req_bytes: req,
            reply_bytes: reply,
            remotable,
        }
    }

    #[test]
    fn null_logger_ignores_everything() {
        let logger = NullLogger;
        logger.log_call(&record(1, 2, 10, 20, true));
        logger.log_instance_created(InstanceId(1), Clsid::from_name("A"), ClassificationId(1));
        // Nothing observable — the point is that it does not panic or store.
    }

    #[test]
    fn event_logger_keeps_order() {
        let logger = EventLogger::new();
        logger.log_instance_created(InstanceId(1), Clsid::from_name("A"), ClassificationId(1));
        logger.log_call(&record(0, 1, 5, 7, true));
        assert_eq!(logger.len(), 2);
        let events = logger.take_events();
        assert!(matches!(events[0], LogEvent::InstanceCreated { .. }));
        assert!(matches!(events[1], LogEvent::Call(_)));
        assert!(logger.is_empty());
    }

    #[test]
    fn profiling_logger_summarizes_both_directions() {
        let logger = ProfilingLogger::new();
        logger.log_call(&record(1, 2, 100, 300, true));
        let profile = logger.snapshot_profile();
        assert_eq!(profile.total_messages(), 2);
        assert_eq!(profile.total_bytes(), 400);
    }

    #[test]
    fn non_remotable_calls_record_constraint_not_traffic() {
        let logger = ProfilingLogger::new();
        logger.log_call(&record(1, 2, 0, 0, false));
        let profile = logger.snapshot_profile();
        assert_eq!(profile.total_messages(), 0);
        assert_eq!(profile.non_remotable.len(), 1);
    }

    #[test]
    fn root_calls_use_root_classification() {
        let logger = ProfilingLogger::new();
        let mut r = record(0, 2, 10, 10, true);
        r.caller_class = ClassificationId::ROOT;
        logger.log_call(&r);
        let profile = logger.snapshot_profile();
        assert!(profile
            .edges
            .keys()
            .any(|k| k.from == ClassificationId::ROOT));
        let pairs = logger.instance_pairs();
        assert!(pairs.contains_key(&(ROOT_INSTANCE, InstanceId(2))));
    }

    #[test]
    fn instance_pairs_normalize_direction() {
        let logger = ProfilingLogger::new();
        logger.log_call(&record(1, 2, 10, 0, true));
        logger.log_call(&record(2, 1, 30, 0, true));
        let pairs = logger.instance_pairs();
        assert_eq!(pairs.len(), 1);
        let traffic = pairs[&(InstanceId(1), InstanceId(2))];
        assert_eq!(traffic.messages, 4);
        assert_eq!(traffic.bytes, 40);
    }

    #[test]
    fn take_profile_resets() {
        let logger = ProfilingLogger::new();
        logger.set_scenario("test");
        logger.log_call(&record(1, 2, 10, 10, true));
        let p = logger.take_profile();
        assert_eq!(p.scenarios, vec!["test".to_string()]);
        assert_eq!(p.total_messages(), 2);
        assert_eq!(logger.snapshot_profile().total_messages(), 0);
        assert!(logger.instance_pairs().is_empty());
    }

    #[test]
    fn instance_classes_are_tracked() {
        let logger = ProfilingLogger::new();
        logger.log_instance_created(InstanceId(4), Clsid::from_name("A"), ClassificationId(9));
        assert_eq!(
            logger.instance_classes()[&InstanceId(4)],
            ClassificationId(9)
        );
        let profile = logger.snapshot_profile();
        assert_eq!(profile.instances[&ClassificationId(9)], 1);
    }
}
